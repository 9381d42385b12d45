#pragma once

#include <cstddef>
#include <vector>

#include "src/geometry/point.h"
#include "src/geometry/polygon.h"

namespace stj {
class PreparedPolygon;
}

namespace stj::de9im {

/// One side's view of the mutual boundary arrangement of a polygon pair.
struct ArrangementSide {
  /// Midpoints of this polygon's boundary sub-edges after splitting at every
  /// intersection with the other polygon's boundary — excluding sub-edges
  /// that lie on collinear shared pieces (reported via has_shared_piece).
  /// In exact arithmetic each midpoint is strictly interior or strictly
  /// exterior to the other polygon, never on its boundary.
  /// Only near edges — those whose box meets the other polygon's closed
  /// MBR — are split and listed here; far edges are counted in far_edges.
  std::vector<Point> midpoints;

  /// Edges whose box misses the other polygon's closed MBR. Such an edge has
  /// no cuts and its midpoint lies outside that MBR, so it would contribute
  /// one midpoint in the other's exterior: callers read far_edges > 0 as
  /// "some sub-edge lies in the exterior" without locating anything.
  size_t far_edges = 0;

  /// True when some positive-length piece of this boundary coincides with
  /// the other polygon's boundary (dimension-1 B/B intersection evidence).
  bool has_shared_piece = false;
};

/// The arrangement of two polygon boundaries against each other: the raw
/// material for DE-9IM classification.
struct Arrangement {
  ArrangementSide r;
  ArrangementSide s;

  /// True when the two boundaries share at least one point.
  bool boundaries_touch = false;
};

/// Splits every edge of \p r at its intersections with edges of \p s and
/// vice versa, using exact intersection classification. Collinear shared
/// pieces are detected explicitly (never classified via rounded midpoints),
/// which keeps shared-boundary datasets (tessellations, equal polygons)
/// robust. Cost: O((near_r + near_s + k) * slab) where near counts the edges
/// meeting the other polygon's MBR (found through each side's y-slab index)
/// and k is the number of boundary intersections — a small polygon against
/// a large one costs little more than the small one's size.
/// Delegates through one-shot PreparedPolygons, so the result is identical
/// to the prepared overload below by construction.
Arrangement ComputeArrangement(const Polygon& r, const Polygon& s);

/// As above, consuming each side's cached edge array, per-ring MBRs, and
/// EdgeSlabIndex instead of rebuilding them — the amortised path refinement
/// takes when an object participates in many candidate pairs. Only the
/// per-pair split bookkeeping is allocated per call.
Arrangement ComputeArrangement(const PreparedPolygon& r,
                               const PreparedPolygon& s);

}  // namespace stj::de9im
