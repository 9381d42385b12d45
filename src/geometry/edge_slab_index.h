#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "src/geometry/box.h"
#include "src/geometry/segment.h"

namespace stj {

/// Y-slab index over a flat edge array: buckets edges by the horizontal
/// slabs their y-span overlaps, so a probe for a y-range only visits edges
/// that could intersect it. One index serves two uses: PolygonLocator
/// locates points through a single slab (SlabAt), and the DE-9IM boundary
/// arrangement probes y-ranges for intersection discovery and near edges
/// (Probe). A PreparedPolygon builds it once per object, inside its locator,
/// and reuses it across every candidate pair the object participates in.
///
/// Probe() is const but keeps mutable de-duplication scratch (an edge
/// spanning several slabs must be reported once per probe), so a single
/// index must not be probed from two threads at once. PreparedPolygons are
/// per-worker state, which guarantees exactly that.
class EdgeSlabIndex {
 public:
  /// Builds the index over \p edges, slabbing the y-extent of \p bounds
  /// (the owning polygon's MBR). The edge array must outlive the index.
  EdgeSlabIndex(const std::vector<Segment>& edges, const Box& bounds);

  /// The ascending indices of the edges in the slab containing y (y outside
  /// the bounds clamps to the first or last slab). A slab lists each edge
  /// once, so no de-duplication scratch is touched: safe to call from
  /// several threads at once.
  std::span<const uint32_t> SlabAt(double y) const {
    const size_t s = SlabOf(y);
    return {entries_.data() + slab_begin_[s],
            entries_.data() + slab_begin_[s + 1]};
  }

  /// Invokes fn(edge_index) once per edge whose slab range overlaps
  /// [ylo, yhi] — a superset of the edges whose y-span overlaps it.
  template <typename Fn>
  void Probe(double ylo, double yhi, Fn&& fn) const {
    BeginProbe();
    const size_t lo = SlabOf(ylo);
    const size_t hi = SlabOf(yhi);
    for (size_t k = slab_begin_[lo]; k < slab_begin_[hi + 1]; ++k) {
      const uint32_t idx = entries_[k];
      if (visited_[idx] == stamp_) continue;
      visited_[idx] = stamp_;
      fn(idx);
    }
  }

 private:
  /// Starts a probe generation, clearing the visited stamps on wrap-around
  /// (a cached index can serve billions of probes over its lifetime).
  void BeginProbe() const;

  size_t SlabOf(double y) const;

  double y_lo_;
  double inv_height_ = 0.0;
  size_t num_slabs_ = 1;
  // CSR slab layout: slab s holds the ascending edge indices
  // entries_[slab_begin_[s] .. slab_begin_[s + 1]). Two flat allocations
  // however many slabs, instead of one growing vector per slab.
  std::vector<size_t> slab_begin_;
  std::vector<uint32_t> entries_;
  mutable std::vector<uint32_t> visited_;
  mutable uint32_t stamp_ = 0;
};

}  // namespace stj
