#pragma once

#include "src/de9im/matrix.h"
#include "src/de9im/relation.h"
#include "src/geometry/locator.h"
#include "src/geometry/polygon.h"
#include "src/geometry/prepared_polygon.h"

namespace stj::de9im {

/// Computes DE-9IM matrices for polygon pairs — the refinement step of the
/// topology-join pipeline (the paper delegates this to boost::geometry; we
/// implement it from scratch).
///
/// Method: split both boundaries at their mutual intersections
/// (ComputeArrangement), classify each resulting sub-edge midpoint against
/// the other polygon with an exact slab-indexed point locator, and derive the
/// nine matrix entries from the classification flags; interior/interior and
/// interior/exterior entries that no boundary evidence decides fall back to
/// locating a representative interior point (PreparedPolygon::InteriorPoint).
/// Because a valid polygon's interior is connected, the fallback is sound,
/// and any exactly certified interior point serves: if no
/// boundary piece of either polygon lies in the other's interior or exterior,
/// each interior is entirely inside, entirely outside, or equal to the other.
///
/// Cost: O((n + m + k) * q) where k is the number of boundary intersections
/// and q the slab-query cost (≈ sqrt of ring size) — the superlinear growth
/// with polygon complexity that motivates the paper's intermediate filter.
class RelateEngine {
 public:
  /// Computes the DE-9IM matrix of (r, s), building all per-object indexes
  /// internally (one-shot PreparedPolygon wrappers; see the overload below).
  static Matrix Relate(const Polygon& r, const Polygon& s);

  /// As above but with caller-provided locators (reused across pairs that
  /// share a polygon); their edge arrays and slab indexes serve the
  /// arrangement too. The representative points are still found per call;
  /// prefer the PreparedPolygon overload for full reuse. Probing a locator's
  /// slab index is single-threaded, so concurrent calls must not share one.
  static Matrix Relate(const Polygon& r, const PolygonLocator& r_locator,
                       const Polygon& s, const PolygonLocator& s_locator);

  /// The amortised path: consumes each side's cached locator, edge array,
  /// edge index, and memoized representative point. All overloads share this
  /// body, so cold and prepared results are byte-identical by construction.
  static Matrix Relate(const PreparedPolygon& r, const PreparedPolygon& s);
};

/// Convenience: the DE-9IM matrix of (r, s).
Matrix RelateMatrix(const Polygon& r, const Polygon& s);

/// Convenience: the most specific of the eight relations for (r, s).
Relation FindRelationExact(const Polygon& r, const Polygon& s);

}  // namespace stj::de9im
