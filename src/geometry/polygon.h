#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/geometry/ring.h"

namespace stj {

/// A simple polygon with optional holes.
///
/// The outer ring is normalised to counter-clockwise winding and each hole to
/// clockwise winding on construction. The polygon's interior is the interior
/// of the outer ring minus the closed holes; hole interiors belong to the
/// polygon's exterior (OGC semantics, which DE-9IM assumes).
class Polygon {
 public:
  Polygon() = default;

  /// Builds a polygon from an outer ring and zero or more holes, normalising
  /// winding orders.
  explicit Polygon(Ring outer, std::vector<Ring> holes = {});

  /// Adopts rings whose winding was already normalised by the rule above
  /// (PolygonBuffer::EndRing applies it). Nothing is re-checked: re-applying
  /// the rule is not idempotent on a zero-area outer ring, which it reverses
  /// every time.
  static Polygon FromNormalized(Ring outer, std::vector<Ring> holes);

  const Ring& Outer() const { return outer_; }
  const std::vector<Ring>& Holes() const { return holes_; }
  bool Empty() const { return outer_.Empty(); }

  /// Total number of vertices across all rings — the paper's complexity
  /// measure (Table 4 groups pairs by the sum of the two polygons' counts).
  size_t VertexCount() const;

  /// Number of rings (1 outer + holes).
  size_t RingCount() const { return 1 + holes_.size(); }

  /// Bounding box of the outer ring.
  const Box& Bounds() const { return outer_.Bounds(); }

  /// Area of the outer ring minus the hole areas.
  double Area() const;

  /// Invokes \p fn for every directed edge of every ring.
  template <typename Fn>
  void ForEachEdge(Fn&& fn) const {
    for (size_t i = 0; i < outer_.Size(); ++i) fn(outer_.Edge(i));
    for (const Ring& hole : holes_) {
      for (size_t i = 0; i < hole.Size(); ++i) fn(hole.Edge(i));
    }
  }

 private:
  Ring outer_;
  std::vector<Ring> holes_;
};

/// Polygons stored as flat columns: every vertex of every ring in one array,
/// plus per-ring sizes and bounds and per-polygon ring counts. The WKT
/// loader's workers parse into one buffer each, growing four arrays instead
/// of allocating a vector per ring; the calling thread then materialises each
/// polygon once with every ring at its exact size (DESIGN.md §7).
class PolygonBuffer {
 public:
  /// A position in the buffer: the polygons, rings and vertices before it.
  struct Cursor {
    size_t polygon = 0;
    size_t ring = 0;
    size_t vertex = 0;
  };

  /// Number of complete polygons.
  size_t Size() const { return ring_counts_.size(); }
  Cursor End() const;

  /// Building one polygon: AddVertex for each vertex of a ring, EndRing
  /// after each ring (the first is the outer ring), then EndPolygon. A
  /// polygon with no ring is POLYGON EMPTY.
  void AddVertex(const Point& p) { vertices_.push_back(p); }
  /// Reserves room for \p n vertices in all (as std::vector::reserve).
  void ReserveVertices(size_t n) { vertices_.reserve(n); }
  /// Closes the ring of the vertices added since the last EndRing: drops an
  /// explicit closing vertex (as Ring's constructor does), records the
  /// ring's bounds and normalises its winding (as Polygon's constructor
  /// does).
  void EndRing();
  void EndPolygon();

  /// Appends \p polygon's rings verbatim (they are already normalised).
  void Append(const Polygon& polygon);
  /// Drops everything from \p to onwards, an unfinished polygon included.
  void Truncate(const Cursor& to);
  /// Materialises the polygon at \p *at, allocating each ring once at its
  /// exact size, and advances \p *at past it.
  Polygon Extract(Cursor* at) const;

 private:
  std::vector<Point> vertices_;
  std::vector<uint32_t> ring_sizes_;
  std::vector<Box> ring_bounds_;
  std::vector<uint32_t> ring_counts_;  ///< Per polygon; 0 = POLYGON EMPTY.
  size_t open_ring_vertex_ = 0;        ///< First vertex of the open ring.
  size_t open_polygon_ring_ = 0;       ///< First ring of the open polygon.
};

/// A polygon plus the identity and precomputed metadata a dataset entry
/// carries through the join pipeline.
struct SpatialObject {
  uint32_t id = 0;
  Polygon geometry;
};

}  // namespace stj
