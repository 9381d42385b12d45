#include "src/geometry/locator.h"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "src/geometry/predicates.h"

namespace stj {

namespace {

std::vector<Segment> FlattenEdges(const Polygon& poly) {
  std::vector<Segment> edges;
  edges.reserve(poly.VertexCount());
  poly.ForEachEdge([&edges](const Segment& e) { edges.push_back(e); });
  return edges;
}

}  // namespace

PolygonLocator::PolygonLocator(const Polygon& poly)
    : poly_(&poly), edges_(FlattenEdges(poly)), index_(edges_, poly.Bounds()) {}

Location PolygonLocator::Locate(const Point& p) const {
  if (!poly_->Bounds().Contains(p)) return Location::kExterior;
  bool inside = false;
  for (const uint32_t i : index_.SlabAt(p.y)) {
    const Segment& e = edges_[i];
    // On-boundary test with a cheap bounding-box pre-filter.
    if (p.x >= std::min(e.a.x, e.b.x) && p.x <= std::max(e.a.x, e.b.x) &&
        p.y >= std::min(e.a.y, e.b.y) && p.y <= std::max(e.a.y, e.b.y) &&
        OnSegment(p, e.a, e.b)) {
      return Location::kBoundary;
    }
    // Half-open crossing rule for the +x ray (counts each vertex once).
    if (e.a.y <= p.y) {
      if (e.b.y > p.y && OrientSign(e.a, e.b, p) == Sign::kPositive) {
        inside = !inside;
      }
    } else {
      if (e.b.y <= p.y && OrientSign(e.a, e.b, p) == Sign::kNegative) {
        inside = !inside;
      }
    }
  }
  // Even-odd over all rings equals OGC interior for valid polygons with
  // properly nested holes.
  return inside ? Location::kInterior : Location::kExterior;
}

}  // namespace stj
