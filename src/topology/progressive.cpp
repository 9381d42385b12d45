#include "src/topology/progressive.h"

#include <algorithm>
#include <numeric>

#include "src/interval/interval_algebra.h"

namespace stj {

const char* ToString(SchedulingPolicy policy) {
  switch (policy) {
    case SchedulingPolicy::kInputOrder: return "input-order";
    case SchedulingPolicy::kMbrOverlapRatio: return "mbr-overlap";
    case SchedulingPolicy::kAprilOverlap: return "april-overlap";
  }
  return "?";
}

std::vector<size_t> ScheduleCandidates(
    SchedulingPolicy policy, const DatasetView& r_view,
    const DatasetView& s_view, const std::vector<CandidatePair>& pairs) {
  std::vector<size_t> order(pairs.size());
  std::iota(order.begin(), order.end(), size_t{0});
  if (policy == SchedulingPolicy::kInputOrder) return order;

  std::vector<double> score(pairs.size(), 0.0);
  for (size_t i = 0; i < pairs.size(); ++i) {
    const CandidatePair& pair = pairs[i];
    if (policy == SchedulingPolicy::kMbrOverlapRatio) {
      const Box& r = r_view.Bounds(pair.r_idx);
      const Box& s = s_view.Bounds(pair.s_idx);
      const double overlap = r.Intersection(s).Area();
      const double smaller = std::min(r.Area(), s.Area());
      score[i] = smaller > 0 ? overlap / smaller : 1.0;
    } else {
      const AprilApproximation& ra = (*r_view.april)[pair.r_idx];
      const AprilApproximation& sa = (*s_view.april)[pair.s_idx];
      const uint64_t common =
          ListsCommonCells(ra.conservative, sa.conservative);
      const uint64_t smaller = std::min(ra.conservative.CellCount(),
                                        sa.conservative.CellCount());
      score[i] = smaller > 0 ? static_cast<double>(common) /
                                   static_cast<double>(smaller)
                             : 0.0;
    }
  }
  std::stable_sort(order.begin(), order.end(),
                   [&score](size_t a, size_t b) { return score[a] > score[b]; });
  return order;
}

std::vector<ProgressivePoint> ProgressiveFindRelation(
    Method method, const DatasetView& r_view, const DatasetView& s_view,
    const std::vector<CandidatePair>& pairs, SchedulingPolicy policy,
    size_t checkpoints) {
  const std::vector<size_t> order =
      ScheduleCandidates(policy, r_view, s_view, pairs);
  Pipeline pipeline(method, r_view, s_view);
  std::vector<ProgressivePoint> curve;
  curve.reserve(checkpoints);
  size_t links = 0;
  size_t processed = 0;
  size_t next_checkpoint =
      checkpoints > 0 ? (pairs.size() + checkpoints - 1) / checkpoints : 0;
  const size_t step = std::max<size_t>(1, next_checkpoint);
  for (const size_t idx : order) {
    const CandidatePair& pair = pairs[idx];
    if (pipeline.FindRelation(pair.r_idx, pair.s_idx) !=
        de9im::Relation::kDisjoint) {
      ++links;
    }
    ++processed;
    if (processed % step == 0 || processed == pairs.size()) {
      curve.push_back(ProgressivePoint{processed, links});
    }
  }
  if (curve.empty() || curve.back().processed != pairs.size()) {
    curve.push_back(ProgressivePoint{pairs.size(), links});
  }
  return curve;
}

}  // namespace stj
