#include "src/de9im/relate_engine.h"

#include "src/de9im/boundary_arrangement.h"
#include "src/geometry/prepared_polygon.h"

namespace stj::de9im {

namespace {

// Classification summary of one polygon's boundary sub-edges against the
// other polygon.
struct SideFlags {
  bool in_interior = false;  // some sub-edge lies in the other's interior
  bool in_exterior = false;  // some sub-edge lies in the other's exterior
  bool on_boundary = false;  // some sub-edge lies on the other's boundary
};

SideFlags ClassifySide(const ArrangementSide& side,
                       const PolygonLocator& other) {
  SideFlags flags;
  flags.on_boundary = side.has_shared_piece;
  // A far edge's midpoint is outside the other's MBR: exterior unlocated.
  flags.in_exterior = side.far_edges > 0;
  for (const Point& mid : side.midpoints) {
    if (flags.in_interior && flags.in_exterior && flags.on_boundary) break;
    switch (other.Locate(mid)) {
      case Location::kInterior: flags.in_interior = true; break;
      case Location::kExterior: flags.in_exterior = true; break;
      case Location::kBoundary:
        // Only reachable through double rounding of a split point; the exact
        // classification would be a shared piece, so treat it as one.
        flags.on_boundary = true;
        break;
    }
  }
  return flags;
}

Matrix DisjointMatrix() {
  // Two disjoint polygons: each boundary and interior meets only the other's
  // exterior.
  Matrix m;
  m.Set(Part::kInterior, Part::kExterior, Dim::k2);
  m.Set(Part::kBoundary, Part::kExterior, Dim::k1);
  m.Set(Part::kExterior, Part::kInterior, Dim::k2);
  m.Set(Part::kExterior, Part::kBoundary, Dim::k1);
  m.Set(Part::kExterior, Part::kExterior, Dim::k2);
  return m;
}

}  // namespace

Matrix RelateEngine::Relate(const Polygon& r, const Polygon& s) {
  // One-shot prepared wrappers (components build lazily on first use): the
  // cold path and the cached path run the same code, so their matrices are
  // byte-identical by construction.
  const PreparedPolygon pr(r);
  const PreparedPolygon ps(s);
  return Relate(pr, ps);
}

Matrix RelateEngine::Relate(const Polygon& r, const PolygonLocator& r_locator,
                            const Polygon& s, const PolygonLocator& s_locator) {
  const PreparedPolygon pr(r, &r_locator);
  const PreparedPolygon ps(s, &s_locator);
  return Relate(pr, ps);
}

Matrix RelateEngine::Relate(const PreparedPolygon& r,
                            const PreparedPolygon& s) {
  if (!r.Bounds().Intersects(s.Bounds())) return DisjointMatrix();

  const Arrangement arr = ComputeArrangement(r, s);
  const SideFlags rb = ClassifySide(arr.r, s.Locator());  // B(r) vs s
  const SideFlags sb = ClassifySide(arr.s, r.Locator());  // B(s) vs r

  Matrix m;
  m.Set(Part::kExterior, Part::kExterior, Dim::k2);

  // Boundary row/column: a boundary piece in the other's interior or exterior
  // is one-dimensional; shared boundary pieces are one-dimensional, isolated
  // touch points zero-dimensional.
  if (rb.in_interior) m.Set(Part::kBoundary, Part::kInterior, Dim::k1);
  if (rb.in_exterior) m.Set(Part::kBoundary, Part::kExterior, Dim::k1);
  if (sb.in_interior) m.Set(Part::kInterior, Part::kBoundary, Dim::k1);
  if (sb.in_exterior) m.Set(Part::kExterior, Part::kBoundary, Dim::k1);
  if (rb.on_boundary || sb.on_boundary) {
    m.Set(Part::kBoundary, Part::kBoundary, Dim::k1);
  } else if (arr.boundaries_touch) {
    m.Set(Part::kBoundary, Part::kBoundary, Dim::k0);
  }

  // Interior/interior: boundary-in-interior evidence implies open overlap.
  // Otherwise each connected interior is wholly inside, wholly outside, or
  // equal — decided by one (memoized) representative point per side.
  bool ii = rb.in_interior || sb.in_interior;
  if (!ii) {
    const Point* pr = r.InteriorPoint();
    if (pr != nullptr && s.Locator().Locate(*pr) == Location::kInterior) {
      ii = true;
    }
  }
  if (!ii) {
    const Point* ps = s.InteriorPoint();
    if (ps != nullptr && r.Locator().Locate(*ps) == Location::kInterior) {
      ii = true;
    }
  }
  if (ii) m.Set(Part::kInterior, Part::kInterior, Dim::k2);

  // Interior(r) vs exterior(s): r's boundary reaching E(s), or s's boundary
  // cutting through I(r) (one side of it is E(s)), or r's interior wholly
  // outside s.
  bool ie = rb.in_exterior || sb.in_interior;
  if (!ie) {
    const Point* pr = r.InteriorPoint();
    if (pr != nullptr && s.Locator().Locate(*pr) == Location::kExterior) {
      ie = true;
    }
  }
  if (ie) m.Set(Part::kInterior, Part::kExterior, Dim::k2);

  // Exterior(r) vs interior(s): symmetric.
  bool ei = sb.in_exterior || rb.in_interior;
  if (!ei) {
    const Point* ps = s.InteriorPoint();
    if (ps != nullptr && r.Locator().Locate(*ps) == Location::kExterior) {
      ei = true;
    }
  }
  if (ei) m.Set(Part::kExterior, Part::kInterior, Dim::k2);

  return m;
}

Matrix RelateMatrix(const Polygon& r, const Polygon& s) {
  return RelateEngine::Relate(r, s);
}

Relation FindRelationExact(const Polygon& r, const Polygon& s) {
  return MostSpecificRelation(RelateMatrix(r, s));
}

}  // namespace stj::de9im
