#include "src/join/mbr_join.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <thread>

#include "src/util/check.h"
#include "src/util/parallel_for.h"
#include "src/util/thread_annotations.h"

namespace stj {

namespace {

struct TileEntry {
  double xmin;  // sort key (exact copy of the box's min.x)
  uint32_t idx;
};

struct TileGrid {
  Box bounds;
  uint32_t tiles = 1;
  double inv_w = 0.0;
  double inv_h = 0.0;

  uint32_t TileX(double x) const {
    const double t = (x - bounds.min.x) * inv_w;
    if (t <= 0.0) return 0;
    return std::min(static_cast<uint32_t>(t), tiles - 1);
  }
  uint32_t TileY(double y) const {
    const double t = (y - bounds.min.y) * inv_h;
    if (t <= 0.0) return 0;
    return std::min(static_cast<uint32_t>(t), tiles - 1);
  }
};

/// Calls fn(tile_index) for every tile the (non-empty) box overlaps.
template <typename Fn>
void ForEachTile(const Box& b, const TileGrid& grid, Fn&& fn) {
  const uint32_t tx0 = grid.TileX(b.min.x);
  const uint32_t tx1 = grid.TileX(b.max.x);
  const uint32_t ty0 = grid.TileY(b.min.y);
  const uint32_t ty1 = grid.TileY(b.max.y);
  for (uint32_t ty = ty0; ty <= ty1; ++ty) {
    for (uint32_t tx = tx0; tx <= tx1; ++tx) {
      fn(static_cast<size_t>(ty) * grid.tiles + tx);
    }
  }
}

/// Tile buckets in CSR form: the entries of tile t occupy
/// entries[offsets[t] .. offsets[t + 1]), sorted by (xmin, idx).
struct TileCsr {
  std::vector<size_t> offsets;     // tiles^2 + 1
  std::vector<TileEntry> entries;  // one flat allocation for all tiles

  const TileEntry* Begin(size_t tile) const { return entries.data() + offsets[tile]; }
  size_t Size(size_t tile) const { return offsets[tile + 1] - offsets[tile]; }

  /// Aborts (STJ_CHECK) if the prefix-sum layout or the per-tile sort is
  /// inconsistent: offsets must be a monotone [0 .. entries.size()] ramp of
  /// tile_count+1 entries, every entry index must address an input box, and
  /// each tile's run must be (xmin, idx)-sorted — the order both the sweep
  /// and the deterministic-mode guarantee depend on. O(entries).
  void ValidateInvariants(size_t tile_count, size_t num_boxes) const {
    STJ_CHECK_MSG(offsets.size() == tile_count + 1,
                  "offset table must have tile_count+1 entries");
    STJ_CHECK_MSG(offsets.front() == 0 && offsets.back() == entries.size(),
                  "offset ramp must span exactly the entry array");
    for (size_t t = 0; t < tile_count; ++t) {
      STJ_CHECK_MSG(offsets[t] <= offsets[t + 1],
                    "tile offsets must be monotone");
      const TileEntry* run = Begin(t);
      const size_t n = Size(t);
      for (size_t i = 0; i < n; ++i) {
        STJ_CHECK_MSG(run[i].idx < num_boxes,
                      "tile entry must reference an input box");
        if (i > 0) {
          const bool sorted = run[i - 1].xmin < run[i].xmin ||
                              (run[i - 1].xmin == run[i].xmin &&
                               run[i - 1].idx < run[i].idx);
          STJ_CHECK_MSG(sorted, "tile run must be (xmin, idx)-sorted");
        }
      }
    }
  }
};

/// Two-pass distribute: count replications per tile, prefix-sum into the
/// offset table, then scatter entries through per-tile atomic cursors. Every
/// pass fans out over \p threads workers; the final per-tile sort uses idx
/// as tiebreaker so the layout is independent of scatter interleaving (and
/// of the thread count).
/// Items per cancellation check-in for the distribute passes. Counting or
/// scattering one box costs nanoseconds, so a coarse grain keeps check-in
/// overhead invisible while still bounding trip latency to microseconds.
constexpr size_t kDistributeGrain = 4096;

TileCsr BuildCsr(const std::vector<Box>& boxes, const TileGrid& grid,
                 unsigned threads, ExecContext* exec) {
  const size_t tile_count = static_cast<size_t>(grid.tiles) * grid.tiles;
  TileCsr csr;
  csr.offsets.assign(tile_count + 1, 0);

  STJ_ATOMIC_DOC("per-tile write cursors; relaxed fetch_add hands each worker a distinct slot, the RunChunks join publishes the rows");
  const auto cursors = std::make_unique<std::atomic<size_t>[]>(tile_count);
  for (size_t t = 0; t < tile_count; ++t) {
    cursors[t].store(0, std::memory_order_relaxed);
  }
  internal::RunChunks(exec, kDistributeGrain, threads, boxes.size(),
                      [&](unsigned, size_t begin, size_t end) {
                        for (size_t i = begin; i < end; ++i) {
                          if (boxes[i].IsEmpty()) continue;
                          ForEachTile(boxes[i], grid, [&](size_t tile) {
                            cursors[tile].fetch_add(1,
                                                    std::memory_order_relaxed);
                          });
                        }
                      });
  if (exec != nullptr && exec->StopRequested()) return csr;

  size_t total = 0;
  for (size_t t = 0; t < tile_count; ++t) {
    csr.offsets[t] = total;
    total += cursors[t].load(std::memory_order_relaxed);
    // Reuse the count slot as the tile's write cursor for the scatter pass.
    cursors[t].store(csr.offsets[t], std::memory_order_relaxed);
  }
  csr.offsets[tile_count] = total;
  if (exec != nullptr && !exec->TryCharge(total * sizeof(TileEntry))) {
    // Budget trip: leave the CSR empty (offsets all zero) — Join returns no
    // pairs and the caller reads the cause from exec->ToStatus().
    csr.offsets.assign(tile_count + 1, 0);
    return csr;
  }
  csr.entries.resize(total);

  internal::RunChunks(
      exec, kDistributeGrain, threads, boxes.size(),
      [&](unsigned, size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) {
          if (boxes[i].IsEmpty()) continue;
          ForEachTile(boxes[i], grid, [&](size_t tile) {
            const size_t slot =
                cursors[tile].fetch_add(1, std::memory_order_relaxed);
            csr.entries[slot] =
                TileEntry{boxes[i].min.x, static_cast<uint32_t>(i)};
          });
        }
      });
  if (exec != nullptr && exec->StopRequested()) {
    // A partially scattered layout is not a valid CSR; drop it.
    csr.offsets.assign(tile_count + 1, 0);
    csr.entries.clear();
    return csr;
  }

  internal::RunChunks(
      exec, /*grain=*/64, threads, tile_count,
      [&](unsigned, size_t begin, size_t end) {
        for (size_t t = begin; t < end; ++t) {
          std::sort(csr.entries.begin() + static_cast<ptrdiff_t>(csr.offsets[t]),
                    csr.entries.begin() +
                        static_cast<ptrdiff_t>(csr.offsets[t + 1]),
                    [](const TileEntry& a, const TileEntry& b) {
                      if (a.xmin != b.xmin) return a.xmin < b.xmin;
                      return a.idx < b.idx;  // reproducible order under ties
                    });
        }
      });
  if (exec != nullptr && exec->StopRequested()) {
    csr.offsets.assign(tile_count + 1, 0);
    csr.entries.clear();
    return csr;
  }
  STJ_IF_INVARIANTS(csr.ValidateInvariants(tile_count, boxes.size()));
  return csr;
}

unsigned ResolveJoinThreads(unsigned requested, size_t work) {
  if (requested != 0) {
    // An explicit request is honoured (the concurrency tests rely on real
    // worker threads), but never with more workers than input boxes.
    return static_cast<unsigned>(
        std::min<size_t>(requested, std::max<size_t>(1, work)));
  }
  return MbrJoin::UsefulThreads(work, 0);
}

/// Number of consecutive tiles a worker claims per steal in dynamic mode:
/// coarse enough to amortise the atomic, fine enough that one dense tile
/// region cannot serialize the tail.
constexpr size_t kTileBlock = 32;

}  // namespace

unsigned MbrJoin::UsefulThreads(size_t work, unsigned cap) {
  if (cap == 0) cap = std::max(1u, std::thread::hardware_concurrency());
  return static_cast<unsigned>(
      std::min<size_t>(cap, std::max<size_t>(1, work / 2048)));
}

std::vector<CandidatePair> MbrJoin::Join(const std::vector<Box>& r,
                                         const std::vector<Box>& s,
                                         Options options) {
  std::vector<CandidatePair> out;
  if (r.empty() || s.empty()) return out;

  TileGrid grid;
  for (const Box& b : r) grid.bounds.Expand(b);
  for (const Box& b : s) grid.bounds.Expand(b);
  if (grid.bounds.IsEmpty()) return out;
  uint32_t tiles = options.tiles_per_side;
  if (tiles == 0) {
    tiles = static_cast<uint32_t>(
        std::sqrt(static_cast<double>(r.size() + s.size()) / 8.0));
    tiles = std::clamp<uint32_t>(tiles, 1, 1024);
  }
  grid.tiles = tiles;
  grid.inv_w = grid.bounds.Width() > 0
                   ? static_cast<double>(tiles) / grid.bounds.Width()
                   : 0.0;
  grid.inv_h = grid.bounds.Height() > 0
                   ? static_cast<double>(tiles) / grid.bounds.Height()
                   : 0.0;

  ExecContext* exec = options.exec;
  const unsigned threads =
      ResolveJoinThreads(options.num_threads, r.size() + s.size());
  const TileCsr r_csr = BuildCsr(r, grid, threads, exec);
  const TileCsr s_csr = BuildCsr(s, grid, threads, exec);
  if (exec != nullptr && exec->StopRequested()) return out;

  // Sweeps one tile: forward scan of the two xmin-sorted entry runs,
  // reporting (a, b) if the boxes intersect and this tile owns their
  // reference point (the max of the two min-corners).
  auto sweep_tile = [&](size_t tile, std::vector<CandidatePair>* sink) {
    const TileEntry* rt = r_csr.Begin(tile);
    const TileEntry* st = s_csr.Begin(tile);
    const size_t rn = r_csr.Size(tile);
    const size_t sn = s_csr.Size(tile);
    if (rn == 0 || sn == 0) return;
    const auto tx = static_cast<uint32_t>(tile % grid.tiles);
    const auto ty = static_cast<uint32_t>(tile / grid.tiles);
    auto emit_if_owned = [&](uint32_t a, uint32_t b) {
      const Box& ra = r[a];
      const Box& sb = s[b];
      if (ra.min.y > sb.max.y || sb.min.y > ra.max.y) return;  // y-overlap
      const double ref_x = std::max(ra.min.x, sb.min.x);
      const double ref_y = std::max(ra.min.y, sb.min.y);
      if (grid.TileX(ref_x) != tx || grid.TileY(ref_y) != ty) return;
      sink->push_back(CandidatePair{a, b});
    };
    size_t i = 0;
    size_t j = 0;
    while (i < rn && j < sn) {
      if (rt[i].xmin <= st[j].xmin) {
        const double xmax = r[rt[i].idx].max.x;
        for (size_t k = j; k < sn; ++k) {
          if (st[k].xmin > xmax) break;
          emit_if_owned(rt[i].idx, st[k].idx);
        }
        ++i;
      } else {
        const double xmax = s[st[j].idx].max.x;
        for (size_t k = i; k < rn; ++k) {
          if (rt[k].xmin > xmax) break;
          emit_if_owned(rt[k].idx, st[j].idx);
        }
        ++j;
      }
    }
  };

  const size_t tile_count = static_cast<size_t>(tiles) * tiles;
  std::vector<std::vector<CandidatePair>> per_worker(threads);
  unsigned used = 0;
  if (options.deterministic || threads <= 1) {
    // Static contiguous tile chunks: worker w owns the w-th ascending tile
    // range, so concatenating per-worker buffers in worker order reproduces
    // the single-threaded tile-major pair order exactly. One check-in per
    // swept tile bounds cancel latency to a single tile's sweep.
    used = internal::RunChunks(exec, /*grain=*/1, threads, tile_count,
                               [&](unsigned worker, size_t begin, size_t end) {
                                 for (size_t t = begin; t < end; ++t) {
                                   sweep_tile(t, &per_worker[worker]);
                                 }
                               });
  } else {
    // Dynamic scheduling: idle workers steal the next block of tiles, so a
    // few dense tiles cannot serialize the sweep tail.
    STJ_ATOMIC_DOC("work-stealing tile-block cursor; relaxed fetch_add, each block is claimed by exactly one worker");
    std::atomic<size_t> next{0};
    used = internal::RunWorkers(threads, [&](unsigned worker) {
      ExecContext::Scope scope(exec);
      while (!scope.stopped()) {
        const size_t begin = next.fetch_add(kTileBlock);
        if (begin >= tile_count) break;
        const size_t end = std::min(tile_count, begin + kTileBlock);
        for (size_t t = begin; t < end; ++t) {
          if (scope.CheckIn()) break;
          sweep_tile(t, &per_worker[worker]);
        }
      }
    });
  }

  size_t total_pairs = 0;
  for (unsigned w = 0; w < used; ++w) total_pairs += per_worker[w].size();
  out.reserve(total_pairs);
  for (unsigned w = 0; w < used; ++w) {
    out.insert(out.end(), per_worker[w].begin(), per_worker[w].end());
  }
  return out;
}

std::vector<CandidatePair> MbrJoin::JoinBruteForce(const std::vector<Box>& r,
                                                   const std::vector<Box>& s) {
  std::vector<CandidatePair> out;
  for (uint32_t i = 0; i < r.size(); ++i) {
    for (uint32_t j = 0; j < s.size(); ++j) {
      if (r[i].Intersects(s[j])) out.push_back(CandidatePair{i, j});
    }
  }
  return out;
}

CandidateSoA MbrJoin::ToSoA(const std::vector<CandidatePair>& pairs) {
  CandidateSoA soa;
  soa.r_idx.reserve(pairs.size());
  soa.s_idx.reserve(pairs.size());
  for (const CandidatePair& pair : pairs) {
    soa.r_idx.push_back(pair.r_idx);
    soa.s_idx.push_back(pair.s_idx);
  }
  return soa;
}

}  // namespace stj
