#pragma once

#include <cstdint>
#include <vector>

#include "src/geometry/box.h"
#include "src/util/exec_context.h"

namespace stj {

/// A candidate pair emitted by the filter step: indices into the two input
/// datasets whose MBRs intersect.
struct CandidatePair {
  uint32_t r_idx = 0;
  uint32_t s_idx = 0;

  friend bool operator==(const CandidatePair& a, const CandidatePair& b) {
    return a.r_idx == b.r_idx && a.s_idx == b.s_idx;
  }
  friend bool operator<(const CandidatePair& a, const CandidatePair& b) {
    if (a.r_idx != b.r_idx) return a.r_idx < b.r_idx;
    return a.s_idx < b.s_idx;
  }
};

/// Structure-of-arrays transpose of a candidate pair list: two flat,
/// index-aligned id columns. The staged batch executor (topology layer)
/// gathers pair ids through a permuted schedule, and columnar storage keeps
/// those gathers on dense cache lines — it is also the layout a GPU or
/// wide-SIMD filter stage would consume as flat buffers.
struct CandidateSoA {
  std::vector<uint32_t> r_idx;
  std::vector<uint32_t> s_idx;

  size_t Size() const { return r_idx.size(); }
};

/// In-memory MBR intersection join: the filter step of the pipeline
/// (the paper delegates this to [39]; its cost is excluded from all
/// measurements, only the candidate set matters).
///
/// Method: uniform grid partitioning over the combined data space, each box
/// replicated into every tile it overlaps; within a tile both sides are
/// sorted by xmin and swept with the classic forward scan; duplicates from
/// replication are suppressed with the reference-point rule (a pair is
/// reported only by the tile containing the top-right-most min-corner of the
/// MBR intersection).
///
/// Layout: tile buckets are a CSR-style index — one flat entry array per
/// side plus a per-tile offset table built with a count/prefix-sum/scatter
/// pass — so the distribute phase does exactly two allocations per side no
/// matter how many tiles the grid has. Both the distribute and the per-tile
/// sweep phases run on Options::num_threads workers.
class MbrJoin {
 public:
  struct Options {
    // Member-init-list constructor (not default member initializers): the
    // defaults are needed by Join's default argument before this class is
    // complete.
    Options()
        : tiles_per_side(0),
          num_threads(1),
          deterministic(false),
          exec(nullptr) {}
    /// Tiles per side; 0 picks ~sqrt((|r|+|s|)/8) automatically.
    uint32_t tiles_per_side;
    /// Worker threads for the distribute and sweep phases
    /// (0 = hardware concurrency, 1 = fully serial).
    unsigned num_threads;
    /// When true, tiles are assigned to workers in static contiguous chunks
    /// and per-worker outputs are concatenated in worker order, which makes
    /// the emitted pair *order* byte-identical for every thread count. When
    /// false, tiles are scheduled dynamically (better balance under skew)
    /// and only the pair *set* is guaranteed stable.
    bool deterministic;
    /// Optional deadline/cancel/budget carrier. Workers check in per swept
    /// tile (and per distribute slice); a trip makes Join return early with
    /// only the pairs discovered so far. The filter's candidate set is only
    /// complete when !exec->StopRequested() afterwards — a cut-short filter
    /// result must be treated as "query stopped during the filter stage",
    /// not as a smaller join. The tile-entry tables are charged against the
    /// exec memory budget before allocation.
    ExecContext* exec;
  };

  /// Returns all pairs (i, j) with r[i] intersecting s[j].
  static std::vector<CandidatePair> Join(const std::vector<Box>& r,
                                         const std::vector<Box>& s,
                                         Options options = Options());

  /// The thread count auto mode (num_threads = 0) picks for \p work input
  /// boxes: one worker per 2048 boxes (tiny inputs are not worth the spawn
  /// cost), at least one, at most \p cap (0 = hardware concurrency).
  static unsigned UsefulThreads(size_t work, unsigned cap);

  /// Reference quadratic join for verification in tests.
  static std::vector<CandidatePair> JoinBruteForce(const std::vector<Box>& r,
                                                   const std::vector<Box>& s);

  /// Transposes a pair list into the SoA column layout (exact reservation,
  /// one pass).
  static CandidateSoA ToSoA(const std::vector<CandidatePair>& pairs);
};

}  // namespace stj
