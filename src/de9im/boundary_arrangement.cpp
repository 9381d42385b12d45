#include "src/de9im/boundary_arrangement.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>

#include "src/geometry/box.h"
#include "src/geometry/edge_slab_index.h"
#include "src/geometry/prepared_polygon.h"
#include "src/geometry/segment.h"
#include "src/util/check.h"

namespace stj::de9im {

namespace {

// Normalised parameter of a point known to lie on segment [a, b], measured
// along the dominant axis. Exact for the endpoints; monotone in between.
double ParamOnSegment(const Point& p, const Point& a, const Point& b) {
  const double dx = b.x - a.x;
  const double dy = b.y - a.y;
  if (std::abs(dx) >= std::abs(dy)) {
    return dx == 0.0 ? 0.0 : (p.x - a.x) / dx;
  }
  return (p.y - a.y) / dy;
}

// One split point of an edge, found during intersection discovery.
struct Cut {
  uint32_t edge;
  double t;  // in (0, 1)
  Point p;
};

// One collinear overlap [t0, t1] of an edge with the other boundary.
struct SharedRange {
  uint32_t edge;
  double t0;
  double t1;
};

// The per-pair split bookkeeping of one side, as flat records sorted once by
// edge at emission. This is the only per-pair state of the arrangement; the
// edge arrays and slab indexes come from the (possibly cached)
// PreparedPolygons.
struct SideSplits {
  std::vector<Cut> cuts;
  std::vector<SharedRange> shared;
};

void RecordCut(SideSplits* splits, uint32_t edge, double t, const Point& p) {
  if (t > 0.0 && t < 1.0) splits->cuts.push_back(Cut{edge, t, p});
}

void RecordShared(SideSplits* splits, uint32_t edge, double t0,
                  const Point& p0, double t1, const Point& p1) {
  if (t0 > t1) {
    RecordShared(splits, edge, t1, p1, t0, p0);
    return;
  }
  RecordCut(splits, edge, t0, p0);
  RecordCut(splits, edge, t1, p1);
  splits->shared.push_back(SharedRange{edge, t0, t1});
}

// Ascending indices of the edges of `side` whose box meets the closed
// rectangle `other` (the other polygon's MBR). Every other edge is far: it
// meets nothing of the other polygon, so it has no cuts and its midpoint
// lies outside `other`, i.e. in the other polygon's exterior.
std::vector<uint32_t> NearEdges(const PreparedPolygon& side, const Box& other) {
  std::vector<uint32_t> near;
  if (!side.Bounds().Intersects(other)) return near;
  const std::vector<Segment>& edges = side.Edges();
  side.EdgeIndex().Probe(other.min.y, other.max.y, [&](uint32_t i) {
    if (edges[i].Bounds().Intersects(other)) near.push_back(i);
  });
  std::sort(near.begin(), near.end());
  return near;
}

// Emits the sub-edge midpoints of one side's near edges into `side` and
// counts the rest as far edges.
void EmitSide(const std::vector<Segment>& edges,
              const std::vector<uint32_t>& near, SideSplits* splits,
              ArrangementSide* side) {
  side->far_edges = edges.size() - near.size();
  // Stable: cuts at equal t keep discovery order, so the de-duplication
  // below keeps the first one found.
  std::vector<Cut>& cuts = splits->cuts;
  std::stable_sort(cuts.begin(), cuts.end(), [](const Cut& a, const Cut& b) {
    return a.edge != b.edge ? a.edge < b.edge : a.t < b.t;
  });
  std::vector<SharedRange>& shared = splits->shared;
  std::sort(shared.begin(), shared.end(),
            [](const SharedRange& a, const SharedRange& b) {
              if (a.edge != b.edge) return a.edge < b.edge;
              return a.t0 != b.t0 ? a.t0 < b.t0 : a.t1 < b.t1;
            });

  size_t next_cut = 0;
  size_t next_shared = 0;
  std::vector<std::pair<double, double>> merged;
  side->midpoints.reserve(near.size() + cuts.size());
  for (const uint32_t i : near) {
    const Segment& e = edges[i];
    const size_t cuts_begin = next_cut;
    while (next_cut < cuts.size() && cuts[next_cut].edge == i) ++next_cut;
    const size_t shared_begin = next_shared;
    while (next_shared < shared.size() && shared[next_shared].edge == i) {
      ++next_shared;
    }
    if (cuts_begin == next_cut && shared_begin == next_shared) {
      side->midpoints.push_back(e.Mid());
      continue;
    }
    // Merge collinear shared ranges.
    merged.clear();
    for (size_t k = shared_begin; k < next_shared; ++k) {
      if (!merged.empty() && shared[k].t0 <= merged.back().second) {
        merged.back().second = std::max(merged.back().second, shared[k].t1);
      } else {
        merged.emplace_back(shared[k].t0, shared[k].t1);
      }
    }
    if (!merged.empty()) side->has_shared_piece = true;

    auto in_shared = [&merged](double t) {
      for (const auto& range : merged) {
        if (t >= range.first && t <= range.second) return true;
      }
      return false;
    };

    // Walk consecutive split points (including the edge endpoints).
    double prev_t = 0.0;
    Point prev_p = e.a;
    auto emit_piece = [&](double next_t, const Point& next_p) {
      const double mid_t = 0.5 * (prev_t + next_t);
      if (!in_shared(mid_t)) {
        side->midpoints.push_back(Midpoint(prev_p, next_p));
      }
      prev_t = next_t;
      prev_p = next_p;
    };
    for (size_t k = cuts_begin; k < next_cut; ++k) {
      if (k > cuts_begin && cuts[k].t == cuts[k - 1].t) continue;
      emit_piece(cuts[k].t, cuts[k].p);
    }
    emit_piece(1.0, e.b);
  }
  // Every cut lies on a near edge: it meets the other polygon's MBR.
  STJ_DCHECK(next_cut == cuts.size() && next_shared == shared.size());
}

}  // namespace

Arrangement ComputeArrangement(const PreparedPolygon& r,
                               const PreparedPolygon& s) {
  Arrangement out;
  const std::vector<Segment>& r_edges = r.Edges();
  const std::vector<Segment>& s_edges = s.Edges();
  const std::vector<uint32_t> r_near = NearEdges(r, s.Bounds());
  const std::vector<uint32_t> s_near = NearEdges(s, r.Bounds());
  SideSplits r_splits;
  SideSplits s_splits;

  // Only near edges can meet the other boundary: a far edge misses the
  // other polygon's MBR, so skipping it records no cuts, which is exactly
  // what probing it would have recorded.
  if (!s_near.empty()) {
    const EdgeSlabIndex& s_index = s.EdgeIndex();
    for (const uint32_t i : r_near) {
      const Segment& re = r_edges[i];
      const Box re_box = re.Bounds();
      s_index.Probe(std::min(re.a.y, re.b.y), std::max(re.a.y, re.b.y),
                    [&](uint32_t j) {
        const Segment& se = s_edges[j];
        if (!re_box.Intersects(se.Bounds())) return;
        const SegIntersection isect =
            IntersectSegments(re.a, re.b, se.a, se.b);
        if (isect.kind == SegIntersectKind::kNone) return;
        out.boundaries_touch = true;
        if (isect.kind == SegIntersectKind::kPoint) {
          RecordCut(&r_splits, i, ParamOnSegment(isect.p0, re.a, re.b),
                    isect.p0);
          RecordCut(&s_splits, j, ParamOnSegment(isect.p0, se.a, se.b),
                    isect.p0);
        } else {
          RecordShared(&r_splits, i, ParamOnSegment(isect.p0, re.a, re.b),
                       isect.p0, ParamOnSegment(isect.p1, re.a, re.b),
                       isect.p1);
          RecordShared(&s_splits, j, ParamOnSegment(isect.p0, se.a, se.b),
                       isect.p0, ParamOnSegment(isect.p1, se.a, se.b),
                       isect.p1);
        }
      });
    }
  }

  EmitSide(r_edges, r_near, &r_splits, &out.r);
  EmitSide(s_edges, s_near, &s_splits, &out.s);
  return out;
}

Arrangement ComputeArrangement(const Polygon& r, const Polygon& s) {
  // One-shot prepared wrappers: components build lazily, so this costs what
  // the pre-prepared implementation cost, and both paths share one body.
  const PreparedPolygon pr(r);
  const PreparedPolygon ps(s);
  return ComputeArrangement(pr, ps);
}

}  // namespace stj::de9im
