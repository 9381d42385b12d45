#include "src/geometry/prepared_polygon.h"

#include <algorithm>
#include <limits>
#include <vector>

#include "src/geometry/point_on_surface.h"
#include "src/geometry/ring.h"

namespace stj {

bool CentreCutInteriorPoint(const Polygon& poly, const PolygonLocator& locator,
                            Point* out) {
  if (poly.Empty()) return false;
  // The two distinct vertex y-levels straddling the bounding-box centre: no
  // vertex lies strictly between them, so a cut at their midpoint crosses
  // every edge it meets properly and parity along it is well defined.
  const double centre = poly.Bounds().Center().y;
  double below = -std::numeric_limits<double>::infinity();
  double above = std::numeric_limits<double>::infinity();
  const auto scan = [&](const Ring& ring) {
    for (const Point& p : ring.Vertices()) {
      if (p.y <= centre) {
        below = std::max(below, p.y);
      } else {
        above = std::min(above, p.y);
      }
    }
  };
  scan(poly.Outer());
  for (const Ring& hole : poly.Holes()) scan(hole);
  const double y = 0.5 * (below + above);
  if (!(y > below && y < above)) return false;  // no level, or none between

  std::vector<double> xs;
  poly.ForEachEdge([&](const Segment& e) {
    if ((e.a.y < y && e.b.y > y) || (e.b.y < y && e.a.y > y)) {
      const double t = (y - e.a.y) / (e.b.y - e.a.y);
      xs.push_back(e.a.x + t * (e.b.x - e.a.x));
    }
  });
  std::sort(xs.begin(), xs.end());
  // Consecutive crossings alternate exterior -> interior -> exterior; take
  // the middle of the widest interior span.
  double best_width = 0.0;
  Point best{};
  for (size_t i = 0; i + 1 < xs.size(); i += 2) {
    const double width = xs[i + 1] - xs[i];
    if (width > best_width) {
      best_width = width;
      best = Point{0.5 * (xs[i] + xs[i + 1]), y};
    }
  }
  // Rounded crossings can misplace the candidate; only an exact verdict
  // certifies it.
  if (best_width <= 0.0 || locator.Locate(best) != Location::kInterior) {
    return false;
  }
  *out = best;
  return true;
}

const PolygonLocator& PreparedPolygon::Locator() const {
  if (external_locator_ != nullptr) return *external_locator_;
  if (locator_ == nullptr) locator_ = std::make_unique<PolygonLocator>(*poly_);
  return *locator_;
}

const std::vector<Segment>& PreparedPolygon::Edges() const {
  return Locator().Edges();
}

const EdgeSlabIndex& PreparedPolygon::EdgeIndex() const {
  return Locator().Index();
}

const Point* PreparedPolygon::InteriorPoint() const {
  if (!interior_computed_) {
    interior_computed_ = true;
    Point p;
    if (CentreCutInteriorPoint(*poly_, Locator(), &p) ||
        PointOnSurface(*poly_, &p)) {
      interior_ = p;
    }
  }
  return interior_.has_value() ? &*interior_ : nullptr;
}

void PreparedPolygon::Warm() const { Locator(); }

size_t PreparedPolygon::EstimateBytes(const Polygon& poly) {
  // Per vertex, the locator holds one Segment in its edge array (32 B), one
  // uint32 CSR entry per slab an edge spans plus one uint32 visited stamp in
  // its slab index (~8-12 B), and ~2 B of size_t slab offsets at ~4 edges
  // per slab: under 50 B. The constant is about twice that on purpose: it
  // keeps the cache's admission and eviction decisions, and so its hit
  // rates and resident memory per worker, as they were measured.
  constexpr size_t kBytesPerVertex = 96;
  constexpr size_t kFixedOverhead = 512;
  return sizeof(PreparedPolygon) + kFixedOverhead +
         poly.VertexCount() * kBytesPerVertex;
}

}  // namespace stj
