#include "src/topology/shard_scheduler.h"

#include <algorithm>
#include <numeric>

#include "src/join/mbr_join.h"
#include "src/raster/hilbert.h"
#include "src/util/check.h"
#include "src/util/pinned_byte_cache.h"

namespace stj {

namespace {

/// Resident-shard cache: a PinnedByteLruCache of LoadedShards keyed by
/// (side, tile). The byte budget is the discipline, not a hard cap — the
/// two shards of the running task are pinned (PinGuard per task), so when
/// they alone exceed the budget the cache holds just them. Loads are
/// charged to the ExecContext memory budget and released on eviction, so
/// an armed budget sees shard residency like any other tracked allocation.
/// The pin/evict/charge protocol itself lives in src/util/pinned_byte_cache.h,
/// annotated for -Wthread-safety and exhaustively model-checked in
/// tests/model/cache_model_test.cpp.
using ShardCache = PinnedByteLruCache<LoadedShard>;

uint64_t ShardKey(int side, uint32_t tile) {
  return (static_cast<uint64_t>(side) << 32) | tile;
}

/// Fetches the resident shard for (side, tile) through the cache, mapping
/// the shard file on a miss and folding the load telemetry into \p stats.
/// Null result carries the load failure (or budget trip) in \p status.
const LoadedShard* FetchShard(ShardCache* cache, int side,
                              const ShardSet& set, uint32_t tile,
                              ShardStats* stats, Status* status) {
  return cache->Get(
      ShardKey(side, tile),
      [&set, tile, stats](LoadedShard* shard, size_t* bytes) {
        Status st = set.LoadTile(tile, shard);
        if (!st.ok()) return st;
        ++stats->shard_loads;
        stats->bytes_mapped += shard->map.Size();
        stats->bytes_faulted += shard->eager_bytes;
        *bytes = shard->resident_bytes;
        return Status::Ok();
      },
      status);
}

/// One tile-pair task plus its schedule key.
struct TilePairTask {
  uint32_t r_tile = 0;
  uint32_t s_tile = 0;
  uint64_t hilbert = 0;
};

/// Builds the task list: every (r-tile, s-tile) with intersecting tile
/// rectangles, ordered by the Hilbert position of the intersection center
/// so consecutive tasks touch adjacent tiles (shard reuse), tie-broken by
/// (r_tile, s_tile) for determinism.
std::vector<TilePairTask> BuildTasks(const ShardSet& r_shards,
                                     const ShardSet& s_shards) {
  const TileGrid& rg = r_shards.Grid();
  const TileGrid& sg = s_shards.Grid();
  Box domain = rg.domain;
  domain.Expand(sg.domain);
  const double width = domain.Width() > 0 ? domain.Width() : 1.0;
  const double height = domain.Height() > 0 ? domain.Height() : 1.0;
  constexpr uint32_t kOrder = 16;
  constexpr double kCells = 65536.0;

  std::vector<TilePairTask> tasks;
  for (uint32_t rt = 0; rt < rg.Tiles(); ++rt) {
    if (r_shards.Tile(rt).object_count == 0) continue;
    const Box rb = rg.TileBounds(rt);
    // Candidate s-tiles by column/row range instead of a full scan.
    uint32_t c_lo, c_hi;
    sg.ColumnRange(rb.min.x, rb.max.x, &c_lo, &c_hi);
    for (uint32_t c = c_lo; c <= c_hi; ++c) {
      uint32_t row_lo, row_hi;
      sg.RowRange(c, rb.min.y, rb.max.y, &row_lo, &row_hi);
      for (uint32_t row = row_lo; row <= row_hi; ++row) {
        const uint32_t st = sg.TileId(c, row);
        if (s_shards.Tile(st).object_count == 0) continue;
        const Box sb = sg.TileBounds(st);
        if (!rb.Intersects(sb)) continue;
        const Point center{
            0.5 * (std::max(rb.min.x, sb.min.x) + std::min(rb.max.x, sb.max.x)),
            0.5 * (std::max(rb.min.y, sb.min.y) +
                   std::min(rb.max.y, sb.max.y))};
        const double nx = (center.x - domain.min.x) / width;
        const double ny = (center.y - domain.min.y) / height;
        const uint32_t x = static_cast<uint32_t>(
            std::min(kCells - 1.0, std::max(0.0, nx * kCells)));
        const uint32_t y = static_cast<uint32_t>(
            std::min(kCells - 1.0, std::max(0.0, ny * kCells)));
        tasks.push_back(TilePairTask{rt, st, HilbertXYToD(kOrder, x, y)});
      }
    }
  }
  std::sort(tasks.begin(), tasks.end(),
            [](const TilePairTask& a, const TilePairTask& b) {
              if (a.hilbert != b.hilbert) return a.hilbert < b.hilbert;
              if (a.r_tile != b.r_tile) return a.r_tile < b.r_tile;
              return a.s_tile < b.s_tile;
            });
  return tasks;
}

/// The reference point of a candidate pair: the componentwise max of the
/// two MBR min corners — inside both MBRs whenever they intersect. Exactly
/// one (r-tile, s-tile) task owns it under the two TileOf partitions.
Point ReferencePoint(const Box& r, const Box& s) {
  return Point{std::max(r.min.x, s.min.x), std::max(r.min.y, s.min.y)};
}

}  // namespace

ShardJoinResult ShardedFindRelation(Method method, const ShardSet& r_shards,
                                    const ShardSet& s_shards,
                                    const ShardJoinOptions& options) {
  ShardJoinResult result;
  ExecContext* exec = options.join.exec;
  ShardCache cache(options.shard_cache_bytes, exec);

  const std::vector<TilePairTask> tasks = BuildTasks(r_shards, s_shards);
  result.shard_stats.tasks = tasks.size();
  const TileGrid& rg = r_shards.Grid();
  const TileGrid& sg = s_shards.Grid();

  ExecContext::Scope scope(exec);
  bool cut = false;
  for (const TilePairTask& task : tasks) {
    if (scope.CheckIn()) {
      cut = true;
      break;
    }
    // Pin the task's two shards for the whole task, then fetch: neither can
    // be evicted while the task runs, whatever the budget says.
    const ShardCache::PinGuard r_pin(&cache, ShardKey(0, task.r_tile));
    const ShardCache::PinGuard s_pin(&cache, ShardKey(1, task.s_tile));
    Status st;
    const LoadedShard* r_shard = FetchShard(&cache, 0, r_shards, task.r_tile,
                                            &result.shard_stats, &st);
    if (r_shard == nullptr) {
      result.status = st;
      break;
    }
    const LoadedShard* s_shard = FetchShard(&cache, 1, s_shards, task.s_tile,
                                            &result.shard_stats, &st);
    if (s_shard == nullptr) {
      result.status = st;
      break;
    }

    // Local MBR filter, on as many threads as the tile's boxes can use
    // (most tiles are far too small to pay for the join's thread count).
    // Deterministic mode keeps the local pair order (and with it the
    // executors' schedules) independent of thread count.
    const ShardGeometry& r_geometry = r_shard->geometry;
    const ShardGeometry& s_geometry = s_shard->geometry;
    MbrJoin::Options mbr_options;
    mbr_options.num_threads = MbrJoin::UsefulThreads(
        r_geometry.Size() + s_geometry.Size(), options.join.num_threads);
    mbr_options.deterministic = true;
    mbr_options.exec = exec;
    std::vector<CandidatePair> local =
        MbrJoin::Join(r_geometry.Mbrs(), s_geometry.Mbrs(), mbr_options);
    if (exec != nullptr && exec->StopRequested()) {
      // A cut during the filter leaves an incomplete candidate set; the
      // task contributes nothing (prior tasks' answers stay valid).
      cut = true;
      break;
    }

    // Reference-point dedup: keep only the pairs this task owns.
    std::vector<CandidatePair> owned;
    owned.reserve(local.size());
    for (const CandidatePair& p : local) {
      const Point ref = ReferencePoint(r_geometry.Bounds(p.r_idx),
                                       s_geometry.Bounds(p.s_idx));
      if (rg.TileOf(ref) == task.r_tile && sg.TileOf(ref) == task.s_tile) {
        owned.push_back(p);
      } else {
        ++result.shard_stats.pairs_deduped;
      }
    }

    // The existing executors over local views; the APRIL side reads
    // zero-copy off the two mappings, and refinement decodes the polygons
    // it needs. The shards are pinned, so whatever this task decodes shows
    // up in the difference of their counters across the task.
    DatasetView r_view;
    r_view.shard = &r_geometry;
    r_view.cstore = &r_shard->cstore;
    DatasetView s_view;
    s_view.shard = &s_geometry;
    s_view.cstore = &s_shard->cstore;
    const uint64_t objects_before =
        r_geometry.ObjectsDecoded() + s_geometry.ObjectsDecoded();
    const uint64_t vertices_before =
        r_geometry.VerticesDecoded() + s_geometry.VerticesDecoded();
    ParallelJoinResult task_result =
        ParallelFindRelation(method, r_view, s_view, owned, options.join);
    MergeStats(task_result.stats, &result.stats);
    result.shard_stats.objects_decoded +=
        r_geometry.ObjectsDecoded() + s_geometry.ObjectsDecoded() -
        objects_before;
    result.shard_stats.vertices_decoded +=
        r_geometry.VerticesDecoded() + s_geometry.VerticesDecoded() -
        vertices_before;

    // Keep every answered pair, mapped back to global indices. On a cut
    // the unanswered remainder is dropped loss-lessly (PartialResult).
    for (size_t i = 0; i < owned.size(); ++i) {
      if (!task_result.partial.Answered(i)) continue;
      result.pairs.push_back(CandidatePair{r_shard->ids[owned[i].r_idx],
                                           s_shard->ids[owned[i].s_idx]});
      result.relations.push_back(task_result.relations[i]);
      ++result.shard_stats.pairs_emitted;
    }
    if (!task_result.status.ok()) {
      cut = true;
      break;
    }
    ++result.shard_stats.tasks_run;
  }

  // Fold the cache-side counters into the scheduler telemetry (loads and
  // mapping bytes were accounted inside the loader).
  const PinnedCacheStats cache_stats = cache.Stats();
  result.shard_stats.shard_hits = cache_stats.hits;
  result.shard_stats.shards_evicted = cache_stats.evictions;
  result.shard_stats.cache_peak_bytes = cache_stats.peak_bytes;

  if (result.status.ok() && (cut || (exec != nullptr && exec->StopRequested()))) {
    result.status = exec != nullptr ? exec->ToStatus()
                                    : Status::Cancelled("join cut short");
  }

  // Canonical (r, s) order: directly comparable with the single-arena
  // reference join (each global pair was reported by exactly one task).
  std::vector<uint32_t> order(result.pairs.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return result.pairs[a] < result.pairs[b];
  });
  std::vector<CandidatePair> pairs;
  std::vector<de9im::Relation> relations;
  pairs.reserve(order.size());
  relations.reserve(order.size());
  for (const uint32_t i : order) {
    pairs.push_back(result.pairs[i]);
    relations.push_back(result.relations[i]);
  }
  result.pairs = std::move(pairs);
  result.relations = std::move(relations);
  return result;
}

Status BuildShardSet(const std::string& dir,
                     const std::vector<SpatialObject>& objects,
                     const CompressedAprilStore& store,
                     const PartitionOptions& options,
                     TilePartition* partition_out,
                     ShardWriteStats* stats_out, unsigned num_threads) {
  STJ_CHECK_MSG(store.Count() == objects.size(),
                "shard build needs an APRIL record per object");
  std::vector<Box> mbrs;
  mbrs.reserve(objects.size());
  std::vector<uint64_t> units;
  units.reserve(objects.size());
  const CompressedStoreSpans& spans = store.Spans();
  for (size_t i = 0; i < objects.size(); ++i) {
    mbrs.push_back(objects[i].geometry.Bounds());
    // The join's cost model: refinement work scales with vertices, filter
    // work with interval counts.
    units.push_back(objects[i].geometry.VertexCount() + spans.c_intervals[i] +
                    spans.p_intervals[i]);
  }
  TilePartition partition = BuildCostBalancedPartition(mbrs, units, options);
  Status st = WriteShardSet(dir, partition.grid, partition.tile_begin,
                            partition.entries, partition.tile_units, objects,
                            store, stats_out, num_threads);
  if (!st.ok()) return st;
  if (partition_out != nullptr) *partition_out = std::move(partition);
  return Status::Ok();
}

}  // namespace stj
