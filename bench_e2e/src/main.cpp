// bench_e2e — end-to-end benchmark of the topology join.
//
// Drives the library through its public entry points over the whole query
// path, WKT on disk → LoadWktDataset → BuildAprilApproximations
// (→ BuildShardSet) → MbrJoin::Join → ParallelFindRelation (or
// ShardSet::Open + ShardedFindRelation) → WriteNTriples, and reports the
// benchmark's end-to-end metrics (untraced) or per-layer metrics (traced).
//
//   bench_e2e list
//       Print the workload names, one per line.
//   bench_e2e gen --workload W --seed N --out DIR
//       Generate the workload's two inputs from the seed as DIR/r.wkt and
//       DIR/s.wkt. Run in its own process, so generation never counts
//       toward the measured process's memory.
//   bench_e2e run --workload W --seed N --seconds S --trace 0|1 --data DIR
//                 [--trace-out FILE] [--revision REV]
//       Repeat set-up + join over DIR's inputs for S seconds (at least a
//       few iterations), check the answers, and print a run-record line and
//       then the result line (one JSON object) on stdout.
//
// See README.md next to this file for the workloads and the metrics.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <map>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "src/datasets/dataset_io.h"
#include "src/datasets/scenarios.h"
#include "src/geometry/wkt.h"
#include "src/interval/simd.h"
#include "src/join/mbr_join.h"
#include "src/join/partitioner.h"
#include "src/raster/april_compressed.h"
#include "src/raster/april_store.h"
#include "src/raster/grid.h"
#include "src/raster/hilbert.h"
#include "src/raster/shard_io.h"
#include "src/topology/link_writer.h"
#include "src/topology/parallel.h"
#include "src/topology/pipeline.h"
#include "src/topology/shard_scheduler.h"
#include "src/util/cpuid.h"

#include "output_check.h"
#include "proc_stats.h"
#include "trace.h"

#ifndef STJ_BENCH_BUILD_TYPE
#define STJ_BENCH_BUILD_TYPE "unknown"
#endif

namespace bench_e2e {
namespace {

namespace fs = std::filesystem;
using stj::AprilApproximation;
using stj::CandidatePair;
using stj::Dataset;
using stj::DatasetView;
using stj::Method;
using stj::PipelineStats;
using stj::ShardStats;
using stj::Status;
using stj::de9im::Relation;

/// One workload: two generated datasets joined with P+C find-relation.
struct Workload {
  const char* name;
  const char* r_dataset;
  const char* s_dataset;
  double scale;       ///< Dataset generator scale (object-count multiplier).
  unsigned threads;   ///< Threads of every parallel call.
  bool sharded;       ///< Out-of-core tile-sharded join.
  size_t shard_cache_mb;  ///< Resident-shard budget (sharded only).
  unsigned joins_per_setup;  ///< Timed joins on each set-up's data (>= 2).
};

const Workload kWorkloads[] = {
    {"buildings-parks", "OBE", "OPE", 1.0, 4, false, 0, 3},
    {"lakes-parks-ooc", "OLE", "OPE", 1.0, 4, true, 32, 3},
};

constexpr uint32_t kGridOrder = 12;
/// Rounds (set-up + joins) per run at least, however short --seconds is.
constexpr size_t kMinRounds = 3;
/// Candidate pairs re-answered with Method::kST2 per run.
constexpr size_t kSt2Sample = 512;
/// Pairs per block of the traced pass's work-stealing schedule (the same
/// block size the library's parallel driver claims).
constexpr size_t kPassBlock = 64;
constexpr double kMiB = 1024.0 * 1024.0;
/// Formatting threads of the input generator (not measured).
constexpr unsigned kGenThreads = 4;

// ---------------------------------------------------------------------------
// Small helpers

[[noreturn]] void Fail(const std::string& message) {
  throw std::runtime_error(message);
}

void Require(const Status& status, const std::string& what) {
  if (!status.ok()) Fail(what + ": " + status.ToString());
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile of \p v (0 < p <= 100); sorts in place.
double Percentile(std::vector<int64_t>* v, double p) {
  if (v->empty()) return 0.0;
  std::sort(v->begin(), v->end());
  const auto rank = static_cast<size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v->size())));
  return static_cast<double>((*v)[std::max<size_t>(rank, 1) - 1]);
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

/// `--key value` / `--key=value` flags after the subcommand.
std::map<std::string, std::string> ParseFlags(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) Fail("unexpected argument '" + arg + "'");
    arg = arg.substr(2);
    const size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      flags[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc) {
      flags[arg] = argv[++i];
    } else {
      Fail("flag --" + arg + " needs a value");
    }
  }
  return flags;
}

std::string Flag(const std::map<std::string, std::string>& flags,
                 const std::string& key) {
  const auto it = flags.find(key);
  if (it == flags.end()) Fail("missing --" + key);
  return it->second;
}

std::string FlagOr(const std::map<std::string, std::string>& flags,
                   const std::string& key, const std::string& fallback) {
  const auto it = flags.find(key);
  return it == flags.end() ? fallback : it->second;
}

const Workload& WorkloadFlag(const std::map<std::string, std::string>& flags) {
  const std::string name = Flag(flags, "workload");
  const Workload* w = FindWorkload(name);
  if (w == nullptr) Fail("unknown workload '" + name + "'");
  return *w;
}

// ---------------------------------------------------------------------------
// gen

/// Writes \p dataset as one WKT polygon per line — the format
/// SaveWktDataset writes, formatted by \p threads workers a batch of
/// objects at a time (number formatting dominates writing large inputs).
void WriteWkt(const fs::path& path, const Dataset& dataset, unsigned threads) {
  constexpr size_t kBatch = 4096;
  std::FILE* out = std::fopen(path.string().c_str(), "w");
  if (out == nullptr) Fail("cannot write " + path.string());
  std::fprintf(out, "# bench_e2e input: %s\n", dataset.name.c_str());
  const std::vector<stj::SpatialObject>& objects = dataset.objects;
  std::vector<std::string> lines(kBatch);
  for (size_t begin = 0; begin < objects.size(); begin += kBatch) {
    const size_t n = std::min(kBatch, objects.size() - begin);
    auto format = [&](unsigned t) {
      for (size_t i = t; i < n; i += threads) {
        lines[i] = stj::ToWkt(objects[begin + i].geometry);
      }
    };
    std::vector<std::thread> pool;
    for (unsigned t = 1; t < threads; ++t) pool.emplace_back(format, t);
    format(0);
    for (std::thread& th : pool) th.join();
    for (size_t i = 0; i < n; ++i) {
      std::fwrite(lines[i].data(), 1, lines[i].size(), out);
      std::fputc('\n', out);
    }
  }
  if (std::fclose(out) != 0) Fail("cannot write " + path.string());
}

int CmdGen(const std::map<std::string, std::string>& flags) {
  const Workload& w = WorkloadFlag(flags);
  const uint64_t seed = std::stoull(Flag(flags, "seed"));
  const fs::path out = Flag(flags, "out");
  fs::create_directories(out);
  const std::pair<const char*, const char*> sides[] = {
      {w.r_dataset, "r.wkt"}, {w.s_dataset, "s.wkt"}};
  for (const auto& [dataset_name, file] : sides) {
    const Dataset dataset = stj::BuildDataset(dataset_name, w.scale, seed);
    if (dataset.objects.empty()) Fail(std::string("empty dataset ") + dataset_name);
    WriteWkt(out / file, dataset, kGenThreads);
    std::fprintf(stderr, "[gen] %s: %zu polygons, %zu vertices -> %s\n",
                 dataset_name, dataset.objects.size(), dataset.TotalVertices(),
                 (out / file).string().c_str());
  }
  return 0;
}

// ---------------------------------------------------------------------------
// run

/// Everything set-up produces for the in-memory join.
struct Inputs {
  Dataset r;
  Dataset s;
  std::vector<AprilApproximation> r_april;
  std::vector<AprilApproximation> s_april;
  DatasetView RView() const { return DatasetView{&r.objects, &r_april}; }
  DatasetView SView() const { return DatasetView{&s.objects, &s_april}; }
};

/// One timed set-up: WKT files on disk → data ready to join.
struct SetupSample {
  bool traced = false;
  double setup_s = 0.0;
  double wkt_parse_s = 0.0;    ///< Both LoadWktDataset calls.
  double april_build_s = 0.0;  ///< Both BuildAprilApproximations calls.
  double shard_write_s = 0.0;  ///< Compression + BuildShardSet, both sides.
};

/// One timed join: ready data → last link written.
struct JoinSample {
  bool traced = false;
  double join_s = 0.0;
  double join_cpu_s = 0.0;
  /// Resident memory the join adds: its VmHWM minus VmRSS at its start.
  /// The start excludes what glibc keeps resident in worker-thread arenas
  /// after earlier phases (malloc_trim does not release arena tops); that
  /// residue varies by tens of MB from process to process. Negative: not
  /// measurable here.
  double join_rss_mb = -1.0;
  uint64_t candidates = 0;
  uint64_t answered = 0;
  double mbr_join_s = 0.0;
  double emit_s = 0.0;
  PipelineStats stats;
  ShardStats shard_stats;
};

/// Output of the traced per-pair pass.
struct PairPass {
  std::vector<int64_t> filter_ns;
  std::vector<int64_t> refine_ns;
  double filter_s = 0.0;
  double refine_s = 0.0;
  uint64_t refined_vertices = 0;
  uint64_t mismatches = 0;  ///< Pairs whose relation differs from the join.
};

/// Facts about the inputs and the run that every iteration shares.
struct RunFacts {
  uint64_t wkt_bytes = 0;
  uint64_t r_objects = 0;
  uint64_t s_objects = 0;
  uint64_t vertices = 0;
  uint64_t april_intervals = 0;
  double april_mb = 0.0;
  double shard_mb = 0.0;
  uint32_t tiles = 0;
  double tile_imbalance = 0.0;
  double emit_mb = 0.0;
  double reference_mbr_join_s = -1.0;  ///< Sharded: the in-memory MbrJoin.
};

/// Outcome of every output check made in one run.
struct CheckTally {
  uint64_t attempted = 0;
  uint64_t unanswered = 0;
  uint64_t repeat_mismatches = 0;  ///< Against the first join's links.
  uint64_t st2_checked = 0;
  uint64_t st2_mismatches = 0;
  uint64_t reference_mismatches = 0;  ///< Sharded vs in-memory join.
  uint64_t pass_mismatches = 0;       ///< Traced pass vs join.
  bool self_test_fired = false;
  uint64_t digest = 0;
  std::vector<LinkKey> first_links;      ///< Answer of the run's first join.
  std::vector<LinkKey> reference_links;  ///< Sharded: in-memory answer.
  uint64_t Failed() const {
    return unanswered + repeat_mismatches + st2_mismatches +
           reference_mismatches + pass_mismatches;
  }
};

/// Tracks the process peak resident set across the measured intervals of a
/// run: Restart() opens an interval (resetting VmHWM), Include() folds the
/// interval's high-water mark into the peak. Intervals that are restarted
/// without Include() (output checks) do not count. Without a resettable
/// VmHWM every interval counts, since the mark cannot be cleared.
class PeakTracker {
 public:
  bool Restart() {
    resettable_ = ResetVmHwm() && resettable_;
    return resettable_;
  }
  void Include() { peak_mb_ = std::max(peak_mb_, ReadVmHwmMb()); }
  double PeakMb() const {
    return resettable_ ? peak_mb_ : std::max(peak_mb_, ReadVmHwmMb());
  }
  bool Resettable() const { return resettable_; }

 private:
  bool resettable_ = true;
  double peak_mb_ = -1.0;
};

struct RunContext {
  const Workload* workload = nullptr;
  fs::path r_wkt;
  fs::path s_wkt;
  fs::path work;  ///< Scratch outputs: shard sets and the N-Triples file.
  bool trace = false;
  std::vector<SetupSample> setups;
  std::vector<JoinSample> joins;
  SpanLog main_log{0};
  std::vector<std::unique_ptr<SpanLog>> worker_logs;
  PeakTracker peak;
  RunFacts facts;
  CheckTally checks;
  PairPass pass;
  bool pass_done = false;

  fs::path ShardRoot() const { return work / "shards"; }
  fs::path LinksPath() const { return work / "links.nt"; }
};

Dataset LoadSide(const fs::path& path, const char* name, SpanLog* log,
                 double* seconds) {
  Dataset dataset;
  ScopedSpan span(log, "geometry.LoadWktDataset");
  Require(stj::LoadWktDataset(path.string(), name, stj::LoadOptions{}, &dataset),
          "LoadWktDataset " + path.string());
  *seconds += span.End();
  return dataset;
}

uint64_t CountIntervals(const std::vector<AprilApproximation>& april) {
  uint64_t n = 0;
  for (const AprilApproximation& a : april) {
    n += a.conservative.Size() + a.progressive.Size();
  }
  return n;
}

double AprilMb(const std::vector<AprilApproximation>& april) {
  double bytes = 0.0;
  for (const AprilApproximation& a : april) {
    bytes += static_cast<double>(a.ByteSize());
  }
  return bytes / kMiB;
}

/// Re-answers a fixed sample of the canonical links with Method::kST2
/// (MBR filter + full refinement, no intermediate filter) and counts
/// disagreements.
void CheckSt2Sample(const Inputs& in, const std::vector<LinkKey>& links,
                    CheckTally* checks) {
  stj::Pipeline oracle(Method::kST2, in.RView(), in.SView(),
                       stj::PipelineOptions{});
  for (const size_t i : SampleIndices(links.size(), kSt2Sample)) {
    ++checks->st2_checked;
    if (oracle.FindRelation(links[i].r, links[i].s) != links[i].relation) {
      ++checks->st2_mismatches;
    }
  }
}

/// Pair indices in the Hilbert order of each pair's reference point (the
/// max of the two MBR min corners), mirroring the library's parallel
/// schedule so the traced pass sees comparable prepared-cache reuse.
std::vector<uint32_t> HilbertOrder(const Inputs& in,
                                   const std::vector<CandidatePair>& pairs) {
  constexpr uint32_t kOrder = 16;
  stj::Box space;
  for (const auto& o : in.r.objects) space.Expand(o.geometry.Bounds());
  for (const auto& o : in.s.objects) space.Expand(o.geometry.Bounds());
  const double cells = static_cast<double>(1u << kOrder);
  auto cell = [cells](double t) {
    return static_cast<uint32_t>(std::clamp(t, 0.0, cells - 1.0));
  };
  std::vector<uint64_t> keys(pairs.size());
  for (size_t i = 0; i < pairs.size(); ++i) {
    const stj::Box& rb = in.r.objects[pairs[i].r_idx].geometry.Bounds();
    const stj::Box& sb = in.s.objects[pairs[i].s_idx].geometry.Bounds();
    const double x = std::max(rb.min.x, sb.min.x);
    const double y = std::max(rb.min.y, sb.min.y);
    keys[i] = stj::HilbertXYToD(
        kOrder, cell((x - space.min.x) / space.Width() * cells),
        cell((y - space.min.y) / space.Height() * cells));
  }
  std::vector<uint32_t> order(pairs.size());
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&keys](uint32_t a, uint32_t b) {
    return keys[a] != keys[b] ? keys[a] < keys[b] : a < b;
  });
  return order;
}

/// The traced per-pair pass: every candidate pair through
/// Pipeline::FilterStage and, when undecided, RefineStage, one span per
/// call, on the workload's thread count. Relations are checked against the
/// join's canonical links.
void TracedPairPass(RunContext* ctx, const Inputs& in,
                    const std::vector<LinkKey>& links) {
  const unsigned threads = ctx->workload->threads;
  std::vector<CandidatePair> pairs(links.size());
  for (size_t i = 0; i < links.size(); ++i) {
    pairs[i] = CandidatePair{links[i].r, links[i].s};
  }
  const std::vector<uint32_t> order = HilbertOrder(in, pairs);
  const int32_t pass_span = ctx->main_log.Open("topology.traced_pair_pass");

  struct WorkerOut {
    std::vector<int64_t> filter_ns;
    std::vector<int64_t> refine_ns;
    uint64_t refined_vertices = 0;
    uint64_t mismatches = 0;
    std::exception_ptr error;
  };
  std::vector<WorkerOut> outs(threads);
  ctx->worker_logs.clear();
  for (unsigned t = 0; t < threads; ++t) {
    ctx->worker_logs.push_back(std::make_unique<SpanLog>(t + 1));
    ctx->worker_logs.back()->Reserve(pairs.size() * 5 / 4 / threads + 1024);
  }
  std::atomic<size_t> cursor{0};
  auto worker = [&](unsigned t) {
    WorkerOut& out = outs[t];
    SpanLog& log = *ctx->worker_logs[t];
    try {
      stj::Pipeline pipeline(Method::kPC, in.RView(), in.SView(),
                             stj::PipelineOptions{});
      for (;;) {
        const size_t begin = cursor.fetch_add(kPassBlock);
        if (begin >= order.size()) break;
        const size_t end = std::min(order.size(), begin + kPassBlock);
        for (size_t k = begin; k < end; ++k) {
          const LinkKey& link = links[order[k]];
          int32_t id = log.Open("topology.FilterStage", pass_span, 0);
          const stj::Pipeline::FilterOutcome outcome =
              pipeline.FilterStage(link.r, link.s);
          out.filter_ns.push_back(log.Close(id));
          Relation relation = outcome.relation;
          if (!outcome.definite) {
            id = log.Open("topology.RefineStage", pass_span, 0);
            relation = pipeline.RefineStage(link.r, link.s, outcome.candidates);
            out.refine_ns.push_back(log.Close(id));
            out.refined_vertices +=
                in.r.objects[link.r].geometry.VertexCount() +
                in.s.objects[link.s].geometry.VertexCount();
          }
          if (relation != link.relation) ++out.mismatches;
        }
      }
    } catch (...) {
      out.error = std::current_exception();
    }
  };
  std::vector<std::thread> pool;
  for (unsigned t = 1; t < threads; ++t) pool.emplace_back(worker, t);
  worker(0);
  for (std::thread& th : pool) th.join();
  ctx->main_log.Close(pass_span);

  PairPass& pass = ctx->pass;
  pass = PairPass{};
  for (WorkerOut& out : outs) {
    if (out.error) std::rethrow_exception(out.error);
    pass.filter_ns.insert(pass.filter_ns.end(), out.filter_ns.begin(),
                          out.filter_ns.end());
    pass.refine_ns.insert(pass.refine_ns.end(), out.refine_ns.begin(),
                          out.refine_ns.end());
    pass.refined_vertices += out.refined_vertices;
    pass.mismatches += out.mismatches;
    for (const int64_t ns : out.filter_ns) pass.filter_s += 1e-9 * static_cast<double>(ns);
    for (const int64_t ns : out.refine_ns) pass.refine_s += 1e-9 * static_cast<double>(ns);
  }
  ctx->checks.pass_mismatches += pass.mismatches;
  ctx->pass_done = true;
}

/// Output checks made once per run on the in-memory data: the kST2 sample,
/// and (traced runs) the per-pair pass.
void CheckInMemory(RunContext* ctx, const Inputs& in,
                   const std::vector<LinkKey>& links) {
  CheckSt2Sample(in, links, &ctx->checks);
  if (ctx->trace) TracedPairPass(ctx, in, links);
}

std::vector<stj::TopologyLink> ToTopologyLinks(
    const std::vector<CandidatePair>& pairs,
    const std::vector<Relation>& relations) {
  std::vector<stj::TopologyLink> links(pairs.size());
  for (size_t i = 0; i < pairs.size(); ++i) {
    links[i] = stj::TopologyLink{pairs[i], relations[i]};
  }
  return links;
}

void RecordInputFacts(RunContext* ctx, const Inputs& in) {
  RunFacts& f = ctx->facts;
  f.wkt_bytes = fs::file_size(ctx->r_wkt) + fs::file_size(ctx->s_wkt);
  f.r_objects = in.r.objects.size();
  f.s_objects = in.s.objects.size();
  f.vertices = in.r.TotalVertices() + in.s.TotalVertices();
  f.april_intervals = CountIntervals(in.r_april) + CountIntervals(in.s_april);
  f.april_mb = AprilMb(in.r_april) + AprilMb(in.s_april);
}

/// Set-up: loads both WKT files, builds both sides' approximations and, on
/// the sharded workload, partitions and writes both shard sets. Timed as
/// one interval; each library call also gets its own span.
std::unique_ptr<Inputs> RunSetup(RunContext* ctx, SpanLog* log,
                                 SetupSample* sample) {
  const Workload& w = *ctx->workload;
  auto in = std::make_unique<Inputs>();
  ScopedSpan setup(log, "bench.setup");
  in->r = LoadSide(ctx->r_wkt, "R", log, &sample->wkt_parse_s);
  in->s = LoadSide(ctx->s_wkt, "S", log, &sample->wkt_parse_s);
  stj::Box bounds;
  for (const auto& o : in->r.objects) bounds.Expand(o.geometry.Bounds());
  for (const auto& o : in->s.objects) bounds.Expand(o.geometry.Bounds());
  const stj::RasterGrid grid(bounds, kGridOrder);
  for (auto [dataset, april] : {std::pair{&in->r, &in->r_april},
                                std::pair{&in->s, &in->s_april}}) {
    ScopedSpan span(log, "raster.BuildAprilApproximations");
    *april = stj::BuildAprilApproximations(*dataset, grid, w.threads);
    sample->april_build_s += span.End();
  }
  if (w.sharded) {
    const std::tuple<const char*, const Dataset*,
                     const std::vector<AprilApproximation>*>
        sides[] = {{"r", &in->r, &in->r_april}, {"s", &in->s, &in->s_april}};
    ctx->facts.tiles = 0;
    ctx->facts.tile_imbalance = 0.0;
    double bytes = 0.0;
    for (const auto& [sub, dataset, april] : sides) {
      ScopedSpan span(log, "raster.BuildShardSet");
      const stj::CompressedAprilStore cstore =
          stj::CompressedAprilStore::FromStore(
              stj::AprilStore::FromApproximations(*april));
      stj::TilePartition partition;
      stj::ShardWriteStats stats;
      Require(stj::BuildShardSet((ctx->ShardRoot() / sub).string(),
                                 dataset->objects, cstore,
                                 stj::PartitionOptions{}, &partition, &stats),
              std::string("BuildShardSet ") + sub);
      sample->shard_write_s += span.End();
      bytes += static_cast<double>(stats.bytes_written);
      ctx->facts.tiles += partition.Tiles();
      ctx->facts.tile_imbalance =
          std::max(ctx->facts.tile_imbalance, partition.MaxImbalance());
    }
    ctx->facts.shard_mb = bytes / kMiB;
  }
  sample->setup_s = setup.End();
  return in;
}

/// The sharded workload's reference: the in-memory join of the same inputs,
/// which the sharded links must equal. The kST2 sample and the traced pass
/// run on it while the in-memory data is still loaded. Untimed.
void RunReference(RunContext* ctx, const Inputs& in) {
  const Workload& w = *ctx->workload;
  ScopedSpan mbr(nullptr, "join.MbrJoin::Join");
  stj::MbrJoin::Options options;
  options.num_threads = w.threads;
  const std::vector<CandidatePair> pairs =
      stj::MbrJoin::Join(in.r.Mbrs(), in.s.Mbrs(), options);
  ctx->facts.reference_mbr_join_s = mbr.End();
  stj::JoinOptions join_options;
  join_options.num_threads = w.threads;
  const stj::ParallelJoinResult reference = stj::ParallelFindRelation(
      Method::kPC, in.RView(), in.SView(), pairs, join_options);
  if (!reference.status.ok()) {
    Fail("reference join: " + reference.status.ToString());
  }
  ctx->checks.reference_links = CanonicalLinks(pairs, reference.relations);
  CheckInMemory(ctx, in, ctx->checks.reference_links);
}

/// One timed join, MbrJoin::Join → ParallelFindRelation → WriteNTriples in
/// memory, or ShardSet::Open → ShardedFindRelation → WriteNTriples over the
/// shard sets. \p links receives the canonical answer (built untimed).
JoinSample RunJoin(RunContext* ctx, const Inputs* in, SpanLog* log,
                   std::vector<LinkKey>* links) {
  const Workload& w = *ctx->workload;
  JoinSample sample;
  sample.traced = log != nullptr;
  std::vector<CandidatePair> pairs;
  std::vector<Relation> relations;
  TrimHeap();  // Every join starts from the same trimmed heap.
  ctx->peak.Restart();
  const double rss_start_mb = ReadVmRssMb();
  const double cpu_start = ProcessCpuSeconds();
  ScopedSpan join(log, "bench.join");
  if (!w.sharded) {
    {
      ScopedSpan span(log, "join.MbrJoin::Join");
      stj::MbrJoin::Options options;
      options.num_threads = w.threads;
      pairs = stj::MbrJoin::Join(in->r.Mbrs(), in->s.Mbrs(), options);
      sample.mbr_join_s = span.End();
    }
    ScopedSpan span(log, "topology.ParallelFindRelation");
    stj::JoinOptions options;
    options.num_threads = w.threads;
    stj::ParallelJoinResult result = stj::ParallelFindRelation(
        Method::kPC, in->RView(), in->SView(), pairs, options);
    span.End();
    sample.answered = result.partial.completed;
    relations = std::move(result.relations);
    sample.stats = result.stats;
  } else {
    stj::ShardSet r_set;
    stj::ShardSet s_set;
    {
      ScopedSpan span(log, "raster.ShardSet::Open");
      Require(stj::ShardSet::Open((ctx->ShardRoot() / "r").string(), &r_set),
              "ShardSet::Open r");
      Require(stj::ShardSet::Open((ctx->ShardRoot() / "s").string(), &s_set),
              "ShardSet::Open s");
      span.End();
    }
    ScopedSpan span(log, "topology.ShardedFindRelation");
    stj::ShardJoinOptions options;
    options.join.num_threads = w.threads;
    options.shard_cache_bytes = w.shard_cache_mb << 20;
    stj::ShardJoinResult result =
        stj::ShardedFindRelation(Method::kPC, r_set, s_set, options);
    span.End();
    if (!result.status.ok()) Fail("sharded join: " + result.status.ToString());
    sample.answered = result.pairs.size();
    pairs = std::move(result.pairs);
    relations = std::move(result.relations);
    sample.stats = result.stats;
    sample.shard_stats = result.shard_stats;
  }
  {
    ScopedSpan span(log, "topology.WriteNTriples");
    if (!stj::WriteNTriples(ctx->LinksPath().string(), "http://example.org/r/",
                            "http://example.org/s/",
                            ToTopologyLinks(pairs, relations))) {
      Fail("WriteNTriples " + ctx->LinksPath().string());
    }
    sample.emit_s = span.End();
  }
  sample.join_s = join.End();
  sample.join_cpu_s = ProcessCpuSeconds() - cpu_start;
  if (ctx->peak.Resettable()) {
    sample.join_rss_mb = ReadVmHwmMb() - rss_start_mb;
  }
  ctx->peak.Include();
  sample.candidates = pairs.size();
  *links = CanonicalLinks(pairs, relations);
  return sample;
}

/// Output checks of one join (untimed). The first join of a run is checked
/// against the kST2 sample (and, sharded, the in-memory reference); every
/// later join must reproduce the first one's links exactly.
void CheckJoin(RunContext* ctx, const Inputs* in, const JoinSample& sample,
               const std::vector<LinkKey>& links) {
  CheckTally& checks = ctx->checks;
  checks.attempted += sample.candidates;
  checks.unanswered +=
      sample.candidates - std::min<uint64_t>(sample.answered, sample.candidates);
  if (checks.first_links.empty()) {
    ctx->facts.emit_mb =
        static_cast<double>(fs::file_size(ctx->LinksPath())) / kMiB;
    checks.digest = Digest(links);
    checks.self_test_fired = CheckerFiresOnAlteredLink(links);
    if (ctx->workload->sharded) {
      checks.reference_mismatches +=
          CountMismatches(links, checks.reference_links);
    } else {
      CheckInMemory(ctx, *in, links);
    }
    checks.first_links = links;
  } else {
    checks.repeat_mismatches += CountMismatches(links, checks.first_links);
  }
}

/// One round: a set-up followed by the workload's joins on its data.
/// Traced runs trace every other set-up and every other join, so each run
/// holds traced and untraced samples of both.
void RunRound(RunContext* ctx, size_t round) {
  const Workload& w = *ctx->workload;
  fs::remove_all(ctx->ShardRoot());
  TrimHeap();
  ctx->peak.Restart();
  SetupSample setup;
  setup.traced = ctx->trace && round % 2 == 1;
  std::unique_ptr<Inputs> in =
      RunSetup(ctx, setup.traced ? &ctx->main_log : nullptr, &setup);
  ctx->peak.Include();
  ctx->setups.push_back(setup);
  if (round == 0) RecordInputFacts(ctx, *in);
  if (w.sharded) {
    if (round == 0) RunReference(ctx, *in);
    // The sharded join reads only the shard sets: drop the in-memory
    // polygons and approximations and give their pages back first.
    in.reset();
    TrimHeap();
  }
  for (unsigned j = 0; j < w.joins_per_setup; ++j) {
    const bool traced = ctx->trace && j % 2 == 1;
    std::vector<LinkKey> links;
    const JoinSample sample =
        RunJoin(ctx, in.get(), traced ? &ctx->main_log : nullptr, &links);
    ctx->joins.push_back(sample);
    CheckJoin(ctx, in.get(), sample, links);
  }
}

struct MetricOut {
  std::string name;
  double value;
  const char* unit;
};

void PrintJsonNumber(std::FILE* out, double v) {
  if (!std::isfinite(v)) v = 0.0;
  std::fprintf(out, "%.17g", v);
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out;
}

/// Values of \p f over the samples traced (or not) as \p traced says.
template <typename Sample, typename F>
std::vector<double> Collect(const std::vector<Sample>& samples, bool traced,
                            F&& f) {
  std::vector<double> values;
  for (const Sample& sample : samples) {
    if (sample.traced == traced) values.push_back(f(sample));
  }
  return values;
}

template <typename Sample, typename F>
double MedianOf(const std::vector<Sample>& samples, bool traced, F&& f) {
  return Median(Collect(samples, traced, std::forward<F>(f)));
}

std::vector<MetricOut> EndToEndMetrics(const RunContext& ctx) {
  const auto& s = ctx.setups;
  const auto& j = ctx.joins;
  std::vector<MetricOut> m;
  m.push_back({"setup_s", MedianOf(s, false, [](const SetupSample& x) {
                 return x.setup_s;
               }), "s"});
  m.push_back({"join_s", MedianOf(j, false, [](const JoinSample& x) {
                 return x.join_s;
               }), "s"});
  m.push_back({"join_cpu_s", MedianOf(j, false, [](const JoinSample& x) {
                 return x.join_cpu_s;
               }), "s"});
  m.push_back({"pairs_per_s", MedianOf(j, false, [](const JoinSample& x) {
                 return Ratio(static_cast<double>(x.candidates), x.join_s);
               }), "1/s"});
  m.push_back({"peak_rss_mb", ctx.peak.PeakMb(), "MB"});
  if (ctx.peak.Resettable()) {
    m.push_back({"join_rss_mb", MedianOf(j, false, [](const JoinSample& x) {
                   return x.join_rss_mb;
                 }), "MB"});
  }
  return m;
}

std::vector<MetricOut> PerLayerMetrics(const RunContext& ctx) {
  const Workload& w = *ctx.workload;
  const RunFacts& f = ctx.facts;
  const auto& s = ctx.setups;
  const auto& j = ctx.joins;
  // Counters come from the last traced join (they repeat exactly).
  const JoinSample* last = nullptr;
  for (const JoinSample& sample : j) {
    if (sample.traced) last = &sample;
  }
  const bool traced_setup = std::any_of(
      s.begin(), s.end(), [](const SetupSample& x) { return x.traced; });
  if (last == nullptr || !traced_setup) {
    Fail("traced run without traced samples");
  }
  const PipelineStats& st = last->stats;
  const ShardStats& sh = last->shard_stats;
  const double parse_s =
      MedianOf(s, true, [](const SetupSample& x) { return x.wkt_parse_s; });
  const double join_traced =
      MedianOf(j, true, [](const JoinSample& x) { return x.join_s; });
  const double join_untraced =
      MedianOf(j, false, [](const JoinSample& x) { return x.join_s; });
  PairPass pass = ctx.pass;
  const double prepared =
      static_cast<double>(st.prepared_hits + st.prepared_misses);
  const double decoded =
      static_cast<double>(st.decoded_hits + st.decoded_misses);
  const double dedup_total =
      static_cast<double>(sh.pairs_emitted + sh.pairs_deduped);
  auto count = [](uint64_t v) { return static_cast<double>(v); };

  std::vector<MetricOut> m;
  m.push_back({"geometry.wkt_parse_s", parse_s, "s"});
  m.push_back({"geometry.wkt_mb_per_s",
               Ratio(count(f.wkt_bytes) / kMiB, parse_s), "MB/s"});
  m.push_back({"raster.april_build_s", MedianOf(s, true, [](const SetupSample& x) {
                 return x.april_build_s;
               }), "s"});
  m.push_back({"raster.april_intervals", count(f.april_intervals), "count"});
  m.push_back({"raster.april_mb", f.april_mb, "MB"});
  m.push_back({"raster.shard_write_s", MedianOf(s, true, [](const SetupSample& x) {
                 return x.shard_write_s;
               }), "s"});
  m.push_back({"raster.shard_mb", f.shard_mb, "MB"});
  m.push_back({"raster.shard_loads", count(sh.shard_loads), "count"});
  m.push_back({"raster.shard_evictions", count(sh.shards_evicted), "count"});
  m.push_back({"raster.shard_faulted_mb", count(sh.bytes_faulted) / kMiB, "MB"});
  m.push_back({"raster.shard_cache_peak_mb", count(sh.cache_peak_bytes) / kMiB,
               "MB"});
  m.push_back({"raster.decoded_hit_rate", Ratio(count(st.decoded_hits), decoded),
               "ratio"});
  m.push_back({"join.mbr_join_s",
               w.sharded ? f.reference_mbr_join_s
                         : MedianOf(j, true, [](const JoinSample& x) {
                             return x.mbr_join_s;
                           }),
               "s"});
  m.push_back({"join.candidates", count(last->candidates), "count"});
  m.push_back({"join.tiles", count(f.tiles), "count"});
  m.push_back({"join.tile_imbalance", f.tile_imbalance, "ratio"});
  m.push_back({"topology.filter_s", pass.filter_s, "s"});
  m.push_back({"topology.filter_us_p99",
               Percentile(&pass.filter_ns, 99) * 1e-3, "us"});
  m.push_back({"topology.decided_by_mbr", count(st.decided_by_mbr), "count"});
  m.push_back({"topology.decided_by_filter", count(st.decided_by_filter),
               "count"});
  m.push_back({"topology.refined", count(st.refined), "count"});
  m.push_back({"topology.undetermined_pct", st.UndeterminedPercent(), "%"});
  m.push_back({"topology.refine_s", pass.refine_s, "s"});
  m.push_back({"topology.refine_us_p50",
               Percentile(&pass.refine_ns, 50) * 1e-3, "us"});
  m.push_back({"topology.refine_us_p99",
               Percentile(&pass.refine_ns, 99) * 1e-3, "us"});
  m.push_back({"topology.prepared_hit_rate",
               Ratio(count(st.prepared_hits), prepared), "ratio"});
  m.push_back({"topology.cpu_utilization",
               MedianOf(j, true, [&w](const JoinSample& x) {
                 return Ratio(x.join_cpu_s, w.threads * x.join_s);
               }),
               "ratio"});
  m.push_back({"topology.tasks", count(sh.tasks), "count"});
  m.push_back({"topology.dedup_waste_pct",
               100.0 * Ratio(count(sh.pairs_deduped), dedup_total), "%"});
  m.push_back({"topology.emit_s", MedianOf(j, true, [](const JoinSample& x) {
                 return x.emit_s;
               }), "s"});
  m.push_back({"topology.emit_mb", f.emit_mb, "MB"});
  m.push_back({"de9im.refined_vertices", count(pass.refined_vertices), "count"});
  m.push_back({"de9im.ns_per_refined_vertex",
               1e9 * Ratio(pass.refine_s, count(pass.refined_vertices)), "ns"});
  m.push_back({"trace.overhead_s", join_traced - join_untraced, "s"});
  m.push_back({"trace.overhead_pct",
               100.0 * Ratio(join_traced - join_untraced, join_untraced), "%"});
  return m;
}

void PrintSeries(std::FILE* out, const char* key,
                 const std::vector<double>& v) {
  std::fprintf(out, ",\"%s\":[", key);
  for (size_t i = 0; i < v.size(); ++i) {
    if (i != 0) std::fputc(',', out);
    PrintJsonNumber(out, v[i]);
  }
  std::fputc(']', out);
}

/// The run record: what was run, where, and every sample it measured.
void PrintRecord(const RunContext& ctx, uint64_t seed, double seconds,
                 const std::string& revision) {
  const Workload& w = *ctx.workload;
  const RunFacts& f = ctx.facts;
  const CheckTally& c = ctx.checks;
  std::FILE* out = stdout;
  std::fprintf(
      out,
      "{\"record\":{\"workload\":\"%s\",\"seed\":%llu,\"seconds\":%g,"
      "\"trace\":%d,\"threads\":%u,\"scale\":%g,\"grid_order\":%u,"
      "\"shard_cache_mb\":%zu,\"joins_per_setup\":%u,"
      "\"hardware_concurrency\":%u,\"simd_level\":\"%s\","
      "\"git_revision\":\"%s\",\"build_type\":\"%s\",\"rounds\":%zu,"
      "\"r_objects\":%llu,\"s_objects\":%llu,\"vertices\":%llu,"
      "\"wkt_bytes\":%llu,\"digest\":\"%016llx\","
      "\"check_self_test_fired\":%s,\"st2_checked\":%llu,"
      "\"st2_mismatches\":%llu,\"reference_mismatches\":%llu,"
      "\"repeat_mismatches\":%llu,\"pass_mismatches\":%llu,"
      "\"unanswered\":%llu,\"hwm_resettable\":%s",
      w.name, static_cast<unsigned long long>(seed), seconds,
      ctx.trace ? 1 : 0, w.threads, w.scale, kGridOrder, w.shard_cache_mb,
      w.joins_per_setup, std::thread::hardware_concurrency(),
      stj::ToString(stj::simd::ActiveLevel()), JsonEscape(revision).c_str(),
      STJ_BENCH_BUILD_TYPE, ctx.setups.size(),
      static_cast<unsigned long long>(f.r_objects),
      static_cast<unsigned long long>(f.s_objects),
      static_cast<unsigned long long>(f.vertices),
      static_cast<unsigned long long>(f.wkt_bytes),
      static_cast<unsigned long long>(c.digest),
      c.self_test_fired ? "true" : "false",
      static_cast<unsigned long long>(c.st2_checked),
      static_cast<unsigned long long>(c.st2_mismatches),
      static_cast<unsigned long long>(c.reference_mismatches),
      static_cast<unsigned long long>(c.repeat_mismatches),
      static_cast<unsigned long long>(c.pass_mismatches),
      static_cast<unsigned long long>(c.unanswered),
      ctx.peak.Resettable() ? "true" : "false");
  const auto& s = ctx.setups;
  const auto& j = ctx.joins;
  PrintSeries(out, "setup_s",
              Collect(s, false, [](const SetupSample& x) { return x.setup_s; }));
  PrintSeries(out, "join_s",
              Collect(j, false, [](const JoinSample& x) { return x.join_s; }));
  PrintSeries(out, "join_cpu_s", Collect(j, false, [](const JoinSample& x) {
                return x.join_cpu_s;
              }));
  PrintSeries(out, "join_rss_mb", Collect(j, false, [](const JoinSample& x) {
                return x.join_rss_mb;
              }));
  if (ctx.trace) {
    PrintSeries(out, "traced_setup_s", Collect(s, true, [](const SetupSample& x) {
                  return x.setup_s;
                }));
    PrintSeries(out, "traced_join_s", Collect(j, true, [](const JoinSample& x) {
                  return x.join_s;
                }));
  }
  std::fprintf(out, "}}\n");
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<MetricOut>& metrics) {
  std::FILE* out = stdout;
  std::fprintf(out,
               "{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
               "\"metrics\":{",
               correct ? "true" : "false",
               static_cast<unsigned long long>(attempted),
               static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::fprintf(out, "%s\"%s\":{\"value\":", i == 0 ? "" : ",",
                 metrics[i].name.c_str());
    PrintJsonNumber(out, metrics[i].value);
    std::fprintf(out, ",\"unit\":\"%s\"}", metrics[i].unit);
  }
  std::fprintf(out, "}}\n");
  std::fflush(out);
}

/// Reasons this build must not report numbers, or empty when it may.
std::string BuildRefusal() {
  std::string why;
  if (std::string(STJ_BENCH_BUILD_TYPE) != "Release") {
    why += "build type is '" STJ_BENCH_BUILD_TYPE "', not Release; ";
  }
#ifndef NDEBUG
  why += "assertions are enabled (NDEBUG unset); ";
#endif
#ifdef STJ_BENCH_INVARIANTS
  why += "library built with STJ_ENABLE_INVARIANTS; ";
#endif
  return why;
}

int CmdRun(const std::map<std::string, std::string>& flags) {
  if (const std::string why = BuildRefusal(); !why.empty()) {
    std::fprintf(stderr, "bench_e2e: refusing to report: %s\n", why.c_str());
    return 3;
  }
  RunContext ctx;
  ctx.workload = &WorkloadFlag(flags);
  const uint64_t seed = std::stoull(Flag(flags, "seed"));
  const double seconds = std::stod(Flag(flags, "seconds"));
  ctx.trace = Flag(flags, "trace") == "1";
  const fs::path data = Flag(flags, "data");
  ctx.r_wkt = data / "r.wkt";
  ctx.s_wkt = data / "s.wkt";
  ctx.work = data / "work";
  fs::create_directories(ctx.work);
  const std::string trace_out = FlagOr(flags, "trace-out", "");
  const std::string revision = FlagOr(flags, "revision", "unknown");

  const int64_t start_ns = NowNs();
  for (size_t round = 0;; ++round) {
    RunRound(&ctx, round);
    const double elapsed = static_cast<double>(NowNs() - start_ns) * 1e-9;
    std::fprintf(stderr, "[run] %s round %zu: setup %.3fs, joins", ctx.workload->name,
                 round, ctx.setups.back().setup_s);
    for (size_t i = ctx.joins.size() - ctx.workload->joins_per_setup;
         i < ctx.joins.size(); ++i) {
      std::fprintf(stderr, " %.3fs%s", ctx.joins[i].join_s,
                   ctx.joins[i].traced ? "(traced)" : "");
    }
    std::fprintf(stderr, "\n");
    if (elapsed >= seconds && round + 1 >= kMinRounds) break;
  }
  fs::remove_all(ctx.work);

  if (ctx.trace && !trace_out.empty()) {
    std::vector<const SpanLog*> logs{&ctx.main_log};
    for (const auto& log : ctx.worker_logs) logs.push_back(log.get());
    if (!WriteChromeTrace(trace_out, logs,
                          std::string("bench_e2e ") + ctx.workload->name)) {
      Fail("cannot write trace " + trace_out);
    }
  }

  const CheckTally& c = ctx.checks;
  const uint64_t failed = c.Failed();
  const bool correct = failed == 0 && c.self_test_fired && c.attempted > 0 &&
                       (!ctx.trace || ctx.pass_done);
  PrintRecord(ctx, seed, seconds, revision);
  PrintResult(correct, c.attempted, failed,
              ctx.trace ? PerLayerMetrics(ctx) : EndToEndMetrics(ctx));
  return 0;
}

int Main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: bench_e2e <list|gen|run> [--flags]\n");
    return 2;
  }
  const std::string command = argv[1];
  if (command == "list") {
    for (const Workload& w : kWorkloads) std::printf("%s\n", w.name);
    return 0;
  }
  const auto flags = ParseFlags(argc, argv);
  if (command == "gen") return CmdGen(flags);
  if (command == "run") return CmdRun(flags);
  std::fprintf(stderr, "bench_e2e: unknown command '%s'\n", command.c_str());
  return 2;
}

}  // namespace
}  // namespace bench_e2e

int main(int argc, char** argv) {
  try {
    return bench_e2e::Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_e2e: %s\n", e.what());
    return 1;
  }
}
