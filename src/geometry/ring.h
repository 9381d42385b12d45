#pragma once

#include <cstddef>
#include <vector>

#include "src/geometry/box.h"
#include "src/geometry/point.h"
#include "src/geometry/segment.h"

namespace stj {

/// Twice the signed area of the closed ring v[0..n) (shoelace relative to
/// v[0]); 0 when n < 3. Ring::SignedArea2 and the flat ring builder of
/// PolygonBuffer share it, so both normalise winding from the same value.
double RingSignedArea2(const Point* v, size_t n);

/// A closed polygonal ring.
///
/// Vertices are stored without a repeated closing vertex; the edge from
/// back() to front() is implicit. A valid ring has at least 3 vertices, no
/// repeated consecutive vertices, and no self-intersections (checked by
/// Validate() in validate.h, not enforced on construction).
class Ring {
 public:
  Ring() = default;
  explicit Ring(std::vector<Point> vertices);

  /// Adopts \p open_vertices verbatim, with \p bounds as their bounding
  /// box: no closing vertex is dropped and nothing is recomputed. For
  /// builders that already did both (PolygonBuffer).
  Ring(std::vector<Point> open_vertices, const Box& bounds);

  size_t Size() const { return vertices_.size(); }
  bool Empty() const { return vertices_.empty(); }
  const Point& operator[](size_t i) const { return vertices_[i]; }
  const std::vector<Point>& Vertices() const { return vertices_; }

  /// The i-th directed edge, from vertex i to vertex (i+1) mod Size().
  Segment Edge(size_t i) const;

  /// Twice the signed area (shoelace); positive for counter-clockwise rings.
  double SignedArea2() const {
    return RingSignedArea2(vertices_.data(), Size());
  }

  /// Absolute enclosed area.
  double Area() const { return 0.5 * (SignedArea2() < 0 ? -SignedArea2() : SignedArea2()); }

  /// True iff the vertices wind counter-clockwise.
  bool IsCCW() const { return SignedArea2() > 0.0; }

  /// Reverses the winding direction in place.
  void Reverse();

  /// Bounding box of all vertices.
  const Box& Bounds() const { return bounds_; }

  /// Appends a vertex and extends the bounding box. Intended for builders;
  /// the ring is closed implicitly.
  void PushBack(const Point& p);

  friend bool operator==(const Ring& a, const Ring& b) {
    return a.vertices_ == b.vertices_;
  }

 private:
  std::vector<Point> vertices_;
  Box bounds_ = Box::Empty();
};

}  // namespace stj
