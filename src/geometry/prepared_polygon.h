#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <vector>

#include "src/geometry/box.h"
#include "src/geometry/edge_slab_index.h"
#include "src/geometry/locator.h"
#include "src/geometry/point.h"
#include "src/geometry/polygon.h"
#include "src/geometry/segment.h"

namespace stj {

/// O(n) representative-point candidate: cuts \p poly at the level midway
/// between the two distinct vertex y-levels that straddle its bounding-box
/// centre and takes the middle of the widest interior span of the cut.
/// Returns true and sets *out only when \p locator (built over \p poly)
/// classifies the candidate as exactly kInterior; false leaves *out alone
/// (no such level, or rounding misplaced the candidate).
bool CentreCutInteriorPoint(const Polygon& poly, const PolygonLocator& locator,
                            Point* out);

/// A polygon bundled with every per-object structure DE-9IM refinement
/// needs, so that the build cost is paid once per object instead of once per
/// candidate pair:
///
///  - the PolygonLocator: the flattened edge array and one EdgeSlabIndex
///    over it, serving both sub-edge midpoint classification and the
///    boundary arrangement's intersection discovery,
///  - the memoized representative interior point (the interior/interior
///    containment fallback, which shared-boundary pairs hit on nearly every
///    refinement).
///
/// Every component is a deterministic pure function of the polygon, so a
/// relate computed through a PreparedPolygon — fresh, cached, or reused a
/// thousand times — is byte-identical to the cold two-polygon path, which
/// itself delegates through one-shot PreparedPolygons.
///
/// Components build lazily on first use, so a one-shot PreparedPolygon costs
/// no more than the cold path it replaced; Warm() materialises the locator
/// eagerly for cache insertion (the representative point stays lazy: not
/// every pair needs it, and memoization amortises it just as well). Lazy
/// state is mutable and NOT thread-safe: a PreparedPolygon is per-worker
/// state (see the Pipeline prepared cache) and must not be shared across
/// threads.
///
/// The referenced Polygon (and any external locator) must outlive the
/// PreparedPolygon.
class PreparedPolygon {
 public:
  PreparedPolygon() = default;
  explicit PreparedPolygon(const Polygon& poly) : poly_(&poly) {}

  /// As above but over a caller-owned locator (its edges and slab index)
  /// instead of building one (the RelateEngine locator-overload path).
  PreparedPolygon(const Polygon& poly, const PolygonLocator* locator)
      : poly_(&poly), external_locator_(locator) {}

  PreparedPolygon(PreparedPolygon&&) = default;
  PreparedPolygon& operator=(PreparedPolygon&&) = default;
  PreparedPolygon(const PreparedPolygon&) = delete;
  PreparedPolygon& operator=(const PreparedPolygon&) = delete;

  const Polygon& Geometry() const { return *poly_; }
  const Box& Bounds() const { return poly_->Bounds(); }

  /// The locator: edge array plus slab index (built on first use).
  const PolygonLocator& Locator() const;

  /// All edges, flattened in ForEachEdge order: outer ring, then holes
  /// (the locator's).
  const std::vector<Segment>& Edges() const;

  /// The y-slab index over Edges(), over the polygon's own bounds (the
  /// locator's): the arrangement probes it for intersection discovery.
  const EdgeSlabIndex& EdgeIndex() const;

  /// The memoized representative interior point, or nullptr for degenerate
  /// polygons. Computed at most once per object: CentreCutInteriorPoint when
  /// the locator certifies it, PointOnSurface otherwise. Relate needs only
  /// *some* exactly certified interior point (the interior is connected, so
  /// any one decides containment), not a particular one.
  const Point* InteriorPoint() const;

  /// Materialises the locator (edge array and slab index) now — called on
  /// cache insertion so the build cost lands in one place (and in the
  /// prepared_build_seconds stat) instead of inside the first relate.
  void Warm() const;

  /// Deterministic, conservative estimate of the fully-warmed memory footprint
  /// (locator edge array and slab index + fixed overhead), used by the
  /// prepared cache's byte budget. Independent of which components are
  /// currently materialised.
  static size_t EstimateBytes(const Polygon& poly);

 private:
  const Polygon* poly_ = nullptr;
  const PolygonLocator* external_locator_ = nullptr;
  mutable std::unique_ptr<PolygonLocator> locator_;
  mutable bool interior_computed_ = false;
  mutable std::optional<Point> interior_;
};

}  // namespace stj
