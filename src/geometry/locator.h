#pragma once

#include <cstddef>
#include <vector>

#include "src/geometry/edge_slab_index.h"
#include "src/geometry/point.h"
#include "src/geometry/point_in_polygon.h"
#include "src/geometry/polygon.h"
#include "src/geometry/segment.h"

namespace stj {

/// Accelerated exact point location against one polygon.
///
/// Buckets all ring edges into horizontal slabs; a query only inspects the
/// edges whose y-span overlaps the query point's slab, which is exactly the
/// superset of (a) edges the +x crossing ray can hit and (b) edges the point
/// could lie on. Queries stay exact (adaptive orientation predicate); the slab
/// structure only prunes. Typical query cost is O(sqrt(n)) for blob-like
/// polygons versus O(n) for the plain scan in point_in_polygon.h.
///
/// The slab structure is the polygon's flattened edge array plus one
/// EdgeSlabIndex over it — the same index the DE-9IM boundary arrangement
/// probes for intersection discovery, so a PreparedPolygon builds it once
/// for both uses.
class PolygonLocator {
 public:
  /// Builds the edge array and slab index over all rings of \p poly. The
  /// polygon must outlive the locator.
  explicit PolygonLocator(const Polygon& poly);

  /// Exact topological location of \p p relative to the polygon. Pure:
  /// safe to call from several threads at once.
  Location Locate(const Point& p) const;

  /// Convenience: Locate(p) == kInterior.
  bool ContainsInterior(const Point& p) const {
    return Locate(p) == Location::kInterior;
  }

  /// All edges, flattened in ForEachEdge order: outer ring, then holes.
  const std::vector<Segment>& Edges() const { return edges_; }

  /// The y-slab index over Edges(), slabbing the polygon's MBR. Its Probe
  /// keeps per-index scratch: one thread at a time (see EdgeSlabIndex).
  const EdgeSlabIndex& Index() const { return index_; }

 private:
  const Polygon* poly_;
  std::vector<Segment> edges_;
  EdgeSlabIndex index_;  // over edges_, so declared after it
};

}  // namespace stj
