#include "src/topology/parallel.h"

#include <algorithm>
#include <atomic>
#include <numeric>
#include <thread>

#include "src/raster/hilbert.h"
#include "src/topology/batch_executor.h"
#include "src/util/thread_annotations.h"

namespace stj {

void RecordScope(const ExecContext::Scope& scope, PipelineStats* stats) {
  stats->checkins = scope.checkins();
  if (scope.stopped() && scope.observed_cause() == StopCause::kDeadlineExceeded) {
    stats->deadline_hits = 1;
  }
  stats->cancel_latency_us = scope.observed_latency_us();
}

namespace {

/// Pairs per work-stealing block: coarse enough that the shared cursor is
/// touched rarely, fine enough that a run of complexity-heavy pairs cannot
/// serialize the tail.
constexpr size_t kPairBlock = 64;

/// Grid order for the scheduling curve: 256x256 buckets is plenty to group
/// pairs that share objects without the key computation showing up in
/// profiles.
constexpr uint32_t kScheduleOrder = 8;

unsigned ResolveThreads(unsigned requested, size_t pairs) {
  if (requested != 0) {
    // An explicit request is honoured (the concurrency tests rely on real
    // worker threads), but never with more workers than pairs.
    return static_cast<unsigned>(
        std::min<size_t>(requested, std::max<size_t>(1, pairs)));
  }
  unsigned n = std::thread::hardware_concurrency();
  if (n == 0) n = 1;
  // Auto mode: no point spinning up workers for a handful of pairs each.
  const size_t max_useful = std::max<size_t>(1, pairs / 256);
  return static_cast<unsigned>(std::min<size_t>(n, max_useful));
}

/// The processing schedule of the parallel drivers: pair indices sorted by
/// the Hilbert-curve position of each pair's reference point (the max of
/// the two MBR min-corners — the same point the filter join's
/// duplicate-avoidance rule uses), with the input index as tiebreaker.
/// Consecutive blocks then touch spatially clustered pairs, so an object
/// that appears in many pairs tends to be refined by one worker while its
/// geometry is still cache-resident. `keys` (indexed by input pair
/// position) rides along for the batch executor, whose refinement re-sort
/// reuses the curve position within an r-object group.
struct PairSchedule {
  std::vector<uint32_t> order;
  std::vector<uint64_t> keys;
};

PairSchedule HilbertSchedule(DatasetView r_view, DatasetView s_view,
                             const std::vector<CandidatePair>& pairs) {
  Box space;
  for (uint32_t i = 0; i < r_view.Size(); ++i) space.Expand(r_view.Bounds(i));
  for (uint32_t i = 0; i < s_view.Size(); ++i) space.Expand(s_view.Bounds(i));
  const uint32_t cells = 1u << kScheduleOrder;
  const double inv_w =
      space.Width() > 0 ? static_cast<double>(cells) / space.Width() : 0.0;
  const double inv_h =
      space.Height() > 0 ? static_cast<double>(cells) / space.Height() : 0.0;
  auto cell_of = [cells](double t) {
    if (t <= 0.0) return 0u;
    return std::min(static_cast<uint32_t>(t), cells - 1);
  };

  PairSchedule schedule;
  schedule.keys.resize(pairs.size());
  for (size_t i = 0; i < pairs.size(); ++i) {
    const Box& rb = r_view.Bounds(pairs[i].r_idx);
    const Box& sb = s_view.Bounds(pairs[i].s_idx);
    const double ref_x = std::max(rb.min.x, sb.min.x);
    const double ref_y = std::max(rb.min.y, sb.min.y);
    schedule.keys[i] = HilbertXYToD(kScheduleOrder,
                                    cell_of((ref_x - space.min.x) * inv_w),
                                    cell_of((ref_y - space.min.y) * inv_h));
  }
  schedule.order.resize(pairs.size());
  std::iota(schedule.order.begin(), schedule.order.end(), 0u);
  const std::vector<uint64_t>& keys = schedule.keys;
  std::sort(schedule.order.begin(), schedule.order.end(),
            [&keys](uint32_t a, uint32_t b) {
              if (keys[a] != keys[b]) return keys[a] < keys[b];
              return a < b;  // deterministic schedule under key ties
            });
  return schedule;
}

PipelineOptions MakePipelineOptions(const JoinOptions& options) {
  return PipelineOptions{.time_stages = options.time_stages,
                         .prepared_cache_bytes = options.prepared_cache_bytes,
                         .decoded_cache_bytes = options.decoded_cache_bytes};
}

/// Shared tail of every driver: maps a tripped ExecContext onto the status
/// and the loss-less PartialResult (parallel.h contract).
void FinalizeRun(ExecContext* ctx, Status* status, PartialResult* partial) {
  if (ctx != nullptr && ctx->StopRequested()) {
    *status = ctx->ToStatus();
    partial->completed = 0;
    for (const char d : partial->done) partial->completed += (d != 0) ? 1 : 0;
  } else {
    *status = Status::Ok();
    partial->completed = partial->total;
    partial->done.clear();  // complete: the bitmap carries no information
  }
}

BatchExecOptions MakeBatchOptions(const JoinOptions& options,
                                  size_t num_pairs) {
  BatchExecOptions exec_options;
  exec_options.threads = ResolveThreads(options.num_threads, num_pairs);
  exec_options.batch_size = options.batch_size;
  exec_options.queue_depth = options.queue_depth;
  exec_options.pipeline = MakePipelineOptions(options);
  exec_options.exec = options.exec;
  return exec_options;
}

/// Shared pair-at-a-time driver for both join flavours: \p process(pipeline,
/// pair_index) answers one pair. Single-threaded runs keep the plain
/// input-order loop (no schedule to build, no cursor); multi-threaded runs
/// drain Hilbert-ordered blocks through an atomic cursor. The batched
/// executor path (JoinOptions::batch_size > 1) is routed before this driver
/// is reached — this loop is the differential oracle it is tested against.
///
/// Cancellation (options.exec != nullptr): every worker checks in before
/// each pair and, on a trip, stops at that pair boundary — completed pairs
/// stay valid, abandoned pairs are recorded as not-done. \p partial is then
/// filled with the done bitmap (cleared again when the run completed, so
/// unbounded callers pay nothing for it); \p status carries the trip cause.
template <typename Process>
PipelineStats RunPairs(Method method, DatasetView r_view, DatasetView s_view,
                       const std::vector<CandidatePair>& pairs,
                       const JoinOptions& options, const Process& process,
                       Status* status, PartialResult* partial) {
  PipelineStats stats;
  const PipelineOptions pipeline_options = MakePipelineOptions(options);
  ExecContext* ctx = options.exec;
  partial->total = pairs.size();
  if (ctx != nullptr) partial->done.assign(pairs.size(), 0);
  const unsigned threads = ResolveThreads(options.num_threads, pairs.size());
  if (threads <= 1) {
    Pipeline pipeline(method, r_view, s_view, pipeline_options);
    {
      ExecContext::Scope scope(ctx);
      for (size_t i = 0; i < pairs.size(); ++i) {
        if (scope.CheckIn()) break;
        process(&pipeline, i);
        if (ctx != nullptr) partial->done[i] = 1;
      }
      stats = pipeline.Stats();
      if (ctx != nullptr) RecordScope(scope, &stats);
    }
  } else {
    const PairSchedule schedule = HilbertSchedule(r_view, s_view, pairs);
    const std::vector<uint32_t>& order = schedule.order;
    std::vector<PipelineStats> per_worker(threads);
    STJ_ATOMIC_DOC("work-stealing pair-block cursor; relaxed fetch_add, each block is claimed by exactly one worker");
    std::atomic<size_t> next{0};
    const unsigned used = internal::RunWorkers(threads, [&](unsigned worker) {
      Pipeline pipeline(method, r_view, s_view, pipeline_options);
      ExecContext::Scope scope(ctx);
      while (!scope.stopped()) {
        const size_t begin = next.fetch_add(kPairBlock);
        if (begin >= order.size()) break;
        const size_t end = std::min(order.size(), begin + kPairBlock);
        for (size_t i = begin; i < end; ++i) {
          if (scope.CheckIn()) break;
          process(&pipeline, order[i]);
          if (ctx != nullptr) partial->done[order[i]] = 1;
        }
      }
      per_worker[worker] = pipeline.Stats();
      if (ctx != nullptr) RecordScope(scope, &per_worker[worker]);
    });
    for (unsigned w = 0; w < used; ++w) MergeStats(per_worker[w], &stats);
  }
  FinalizeRun(ctx, status, partial);
  return stats;
}

}  // namespace

ParallelJoinResult ParallelFindRelation(Method method, DatasetView r_view,
                                        DatasetView s_view,
                                        const std::vector<CandidatePair>& pairs,
                                        const JoinOptions& options) {
  ParallelJoinResult result;
  if (pairs.empty()) return result;  // no workers, no per-worker state
  result.relations.resize(pairs.size());
  if (options.batch_size > 1) {
    ExecContext* ctx = options.exec;
    result.partial.total = pairs.size();
    if (ctx != nullptr) result.partial.done.assign(pairs.size(), 0);
    const PairSchedule schedule = HilbertSchedule(r_view, s_view, pairs);
    result.stats = BatchedFindRelation(
        method, r_view, s_view, pairs, schedule.order, schedule.keys,
        MakeBatchOptions(options, pairs.size()), result.relations.data(),
        ctx != nullptr ? result.partial.done.data() : nullptr);
    FinalizeRun(ctx, &result.status, &result.partial);
    return result;
  }
  result.stats = RunPairs(
      method, r_view, s_view, pairs, options,
      [&](Pipeline* pipeline, size_t i) {
        result.relations[i] =
            pipeline->FindRelation(pairs[i].r_idx, pairs[i].s_idx);
      },
      &result.status, &result.partial);
  return result;
}

ParallelJoinResult ParallelFindRelation(Method method, DatasetView r_view,
                                        DatasetView s_view,
                                        const std::vector<CandidatePair>& pairs,
                                        unsigned num_threads,
                                        bool time_stages) {
  return ParallelFindRelation(
      method, r_view, s_view, pairs,
      JoinOptions{.num_threads = num_threads, .time_stages = time_stages});
}

ParallelRelateResult ParallelRelate(Method method, DatasetView r_view,
                                    DatasetView s_view,
                                    const std::vector<CandidatePair>& pairs,
                                    de9im::Relation predicate,
                                    const JoinOptions& options) {
  ParallelRelateResult result;
  if (pairs.empty()) return result;  // no workers, no per-worker state
  result.matches.resize(pairs.size(), 0);
  if (options.batch_size > 1) {
    ExecContext* ctx = options.exec;
    result.partial.total = pairs.size();
    if (ctx != nullptr) result.partial.done.assign(pairs.size(), 0);
    const PairSchedule schedule = HilbertSchedule(r_view, s_view, pairs);
    result.stats = BatchedRelate(
        method, r_view, s_view, pairs, schedule.order, schedule.keys,
        predicate, MakeBatchOptions(options, pairs.size()),
        result.matches.data(),
        ctx != nullptr ? result.partial.done.data() : nullptr);
    FinalizeRun(ctx, &result.status, &result.partial);
    return result;
  }
  result.stats = RunPairs(
      method, r_view, s_view, pairs, options,
      [&](Pipeline* pipeline, size_t i) {
        result.matches[i] =
            pipeline->Relate(pairs[i].r_idx, pairs[i].s_idx, predicate) ? 1 : 0;
      },
      &result.status, &result.partial);
  return result;
}

ParallelRelateResult ParallelRelate(Method method, DatasetView r_view,
                                    DatasetView s_view,
                                    const std::vector<CandidatePair>& pairs,
                                    de9im::Relation predicate,
                                    unsigned num_threads, bool time_stages) {
  return ParallelRelate(
      method, r_view, s_view, pairs, predicate,
      JoinOptions{.num_threads = num_threads, .time_stages = time_stages});
}

}  // namespace stj
