#include "src/geometry/edge_slab_index.h"

#include <algorithm>

namespace stj {

EdgeSlabIndex::EdgeSlabIndex(const std::vector<Segment>& edges,
                             const Box& bounds)
    : y_lo_(bounds.min.y) {
  const size_t n = edges.size();
  num_slabs_ = std::max<size_t>(1, n / 4);
  const double height = bounds.Height();
  inv_height_ = (height > 0.0 && num_slabs_ > 1)
                    ? static_cast<double>(num_slabs_) / height
                    : 0.0;
  if (inv_height_ == 0.0) num_slabs_ = 1;
  // CSR build: count the entries per slab, prefix-sum, scatter. Scattering
  // edges in index order keeps every slab's entries ascending. Each write
  // cursor ends at its slab's end, i.e. the next slab's start, so one shift
  // restores the offsets.
  slab_begin_.assign(num_slabs_ + 1, 0);
  for (const Segment& e : edges) {
    const size_t hi = SlabOf(std::max(e.a.y, e.b.y));
    for (size_t s = SlabOf(std::min(e.a.y, e.b.y)); s <= hi; ++s) {
      ++slab_begin_[s + 1];
    }
  }
  for (size_t s = 0; s < num_slabs_; ++s) slab_begin_[s + 1] += slab_begin_[s];
  entries_.resize(slab_begin_[num_slabs_]);
  for (size_t i = 0; i < n; ++i) {
    const Segment& e = edges[i];
    const size_t hi = SlabOf(std::max(e.a.y, e.b.y));
    for (size_t s = SlabOf(std::min(e.a.y, e.b.y)); s <= hi; ++s) {
      entries_[slab_begin_[s]++] = static_cast<uint32_t>(i);
    }
  }
  for (size_t s = num_slabs_; s > 0; --s) slab_begin_[s] = slab_begin_[s - 1];
  slab_begin_[0] = 0;
  visited_.assign(n, 0);
}

void EdgeSlabIndex::BeginProbe() const {
  if (++stamp_ == 0) {
    std::fill(visited_.begin(), visited_.end(), 0u);
    stamp_ = 1;
  }
}

size_t EdgeSlabIndex::SlabOf(double y) const {
  if (num_slabs_ == 1) return 0;
  const double t = (y - y_lo_) * inv_height_;
  if (t <= 0.0) return 0;
  return std::min(static_cast<size_t>(t), num_slabs_ - 1);
}

}  // namespace stj
