#include "src/geometry/ring.h"

#include <algorithm>

namespace stj {

Ring::Ring(std::vector<Point> vertices) : vertices_(std::move(vertices)) {
  // Drop an explicit closing vertex if the caller provided one.
  if (vertices_.size() >= 2 && vertices_.front() == vertices_.back()) {
    vertices_.pop_back();
  }
  for (const Point& p : vertices_) bounds_.Expand(p);
}

Ring::Ring(std::vector<Point> open_vertices, const Box& bounds)
    : vertices_(std::move(open_vertices)), bounds_(bounds) {}

Segment Ring::Edge(size_t i) const {
  const size_t j = (i + 1 == vertices_.size()) ? 0 : i + 1;
  return Segment{vertices_[i], vertices_[j]};
}

double RingSignedArea2(const Point* v, size_t n) {
  if (n < 3) return 0.0;
  double acc = 0.0;
  // Shoelace relative to vertex 0 for better conditioning.
  const Point& o = v[0];
  for (size_t i = 1; i + 1 < n; ++i) {
    const double ax = v[i].x - o.x;
    const double ay = v[i].y - o.y;
    const double bx = v[i + 1].x - o.x;
    const double by = v[i + 1].y - o.y;
    acc += ax * by - ay * bx;
  }
  return acc;
}

void Ring::Reverse() { std::reverse(vertices_.begin(), vertices_.end()); }

void Ring::PushBack(const Point& p) {
  vertices_.push_back(p);
  bounds_.Expand(p);
}

}  // namespace stj
