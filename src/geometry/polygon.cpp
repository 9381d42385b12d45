#include "src/geometry/polygon.h"

#include <algorithm>

namespace stj {

namespace {

/// The winding rule: the outer ring counter-clockwise, holes clockwise. A
/// zero-area outer ring is not counter-clockwise, so it is reversed.
bool NeedsReverse(const Point* v, size_t n, bool hole) {
  if (n == 0) return false;
  const bool ccw = RingSignedArea2(v, n) > 0.0;
  return hole ? ccw : !ccw;
}

}  // namespace

Polygon::Polygon(Ring outer, std::vector<Ring> holes)
    : outer_(std::move(outer)), holes_(std::move(holes)) {
  if (NeedsReverse(outer_.Vertices().data(), outer_.Size(), false)) {
    outer_.Reverse();
  }
  for (Ring& hole : holes_) {
    if (NeedsReverse(hole.Vertices().data(), hole.Size(), true)) {
      hole.Reverse();
    }
  }
}

Polygon Polygon::FromNormalized(Ring outer, std::vector<Ring> holes) {
  Polygon polygon;
  polygon.outer_ = std::move(outer);
  polygon.holes_ = std::move(holes);
  return polygon;
}

size_t Polygon::VertexCount() const {
  size_t n = outer_.Size();
  for (const Ring& hole : holes_) n += hole.Size();
  return n;
}

double Polygon::Area() const {
  double area = outer_.Area();
  for (const Ring& hole : holes_) area -= hole.Area();
  return area;
}

PolygonBuffer::Cursor PolygonBuffer::End() const {
  return Cursor{ring_counts_.size(), ring_sizes_.size(), vertices_.size()};
}

void PolygonBuffer::EndRing() {
  Point* first = vertices_.data() + open_ring_vertex_;
  size_t n = vertices_.size() - open_ring_vertex_;
  if (n >= 2 && first[0] == first[n - 1]) {
    vertices_.pop_back();
    --n;
  }
  Box bounds = Box::Empty();
  for (size_t i = 0; i < n; ++i) bounds.Expand(first[i]);
  const bool hole = ring_sizes_.size() > open_polygon_ring_;
  if (NeedsReverse(first, n, hole)) std::reverse(first, first + n);
  ring_sizes_.push_back(static_cast<uint32_t>(n));
  ring_bounds_.push_back(bounds);
  open_ring_vertex_ = vertices_.size();
}

void PolygonBuffer::EndPolygon() {
  ring_counts_.push_back(
      static_cast<uint32_t>(ring_sizes_.size() - open_polygon_ring_));
  open_polygon_ring_ = ring_sizes_.size();
}

void PolygonBuffer::Append(const Polygon& polygon) {
  const auto append_ring = [this](const Ring& ring) {
    vertices_.insert(vertices_.end(), ring.Vertices().begin(),
                     ring.Vertices().end());
    ring_sizes_.push_back(static_cast<uint32_t>(ring.Size()));
    ring_bounds_.push_back(ring.Bounds());
  };
  append_ring(polygon.Outer());
  for (const Ring& hole : polygon.Holes()) append_ring(hole);
  open_ring_vertex_ = vertices_.size();
  EndPolygon();
}

void PolygonBuffer::Truncate(const Cursor& to) {
  ring_counts_.resize(to.polygon);
  ring_sizes_.resize(to.ring);
  ring_bounds_.resize(to.ring);
  vertices_.resize(to.vertex);
  open_ring_vertex_ = to.vertex;
  open_polygon_ring_ = to.ring;
}

Polygon PolygonBuffer::Extract(Cursor* at) const {
  const uint32_t rings = ring_counts_[at->polygon++];
  if (rings == 0) return Polygon{};
  const auto take_ring = [this, at] {
    const Point* first = vertices_.data() + at->vertex;
    const size_t n = ring_sizes_[at->ring];
    Ring ring(std::vector<Point>(first, first + n), ring_bounds_[at->ring]);
    ++at->ring;
    at->vertex += n;
    return ring;
  };
  Ring outer = take_ring();
  std::vector<Ring> holes;
  holes.reserve(rings - 1);
  for (uint32_t k = 1; k < rings; ++k) holes.push_back(take_ring());
  return Polygon::FromNormalized(std::move(outer), std::move(holes));
}

}  // namespace stj
