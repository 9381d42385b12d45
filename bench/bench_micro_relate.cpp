// Micro-benchmarks for the DE-9IM relate engine: per-pair refinement cost as
// a function of polygon complexity. This is the superlinear cost curve that
// motivates the paper's intermediate filter (Fig. 8(b)), plus the contrast
// with the P+C filter cost on the same pairs.
//
// Two modes:
//  - default: google-benchmark over the BM_* cases.
//  - --json=PATH: the small-building x large-park layer harness. Times the
//    three costs of refining small polygons against one large one — build
//    (PreparedPolygon + Warm, ns per vertex), representative point (ns per
//    vertex) and prepared relate (ns per pair) — and writes them as
//    bench_common JSON records.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <vector>

#include "bench/bench_common.h"
#include "src/datasets/blob.h"
#include "src/de9im/relate_engine.h"
#include "src/geometry/point_on_surface.h"
#include "src/geometry/prepared_polygon.h"
#include "src/raster/april.h"
#include "src/topology/find_relation.h"
#include "src/util/rng.h"

namespace stj {
namespace {

Polygon Blob(Rng* rng, Point center, double radius, size_t vertices) {
  BlobParams params;
  params.center = center;
  params.mean_radius = radius;
  params.vertices = vertices;
  params.irregularity = 0.4;
  return MakeBlob(rng, params);
}

void BM_RelateOverlappingBlobs(benchmark::State& state) {
  Rng rng(11);
  const size_t vertices = static_cast<size_t>(state.range(0));
  const Polygon a = Blob(&rng, Point{50, 50}, 20.0, vertices);
  const Polygon b = Blob(&rng, Point{62, 50}, 20.0, vertices);
  for (auto _ : state) {
    benchmark::DoNotOptimize(de9im::RelateMatrix(a, b));
  }
  state.SetComplexityN(static_cast<int64_t>(vertices));
}
BENCHMARK(BM_RelateOverlappingBlobs)->RangeMultiplier(4)->Range(16, 16384)
    ->Complexity(benchmark::oNLogN);

void BM_RelateNestedBlobs(benchmark::State& state) {
  Rng rng(13);
  const size_t vertices = static_cast<size_t>(state.range(0));
  const Polygon outer = Blob(&rng, Point{50, 50}, 30.0, vertices);
  const Polygon inner = Blob(&rng, Point{50, 50}, 8.0, vertices);
  for (auto _ : state) {
    benchmark::DoNotOptimize(de9im::RelateMatrix(inner, outer));
  }
}
BENCHMARK(BM_RelateNestedBlobs)->RangeMultiplier(4)->Range(16, 16384);

void BM_PCFilterSamePairs(benchmark::State& state) {
  // The filter-side cost on the nested configuration above: linear in the
  // interval list lengths, orders of magnitude below refinement.
  Rng rng(13);
  const size_t vertices = static_cast<size_t>(state.range(0));
  const Polygon outer = Blob(&rng, Point{50, 50}, 30.0, vertices);
  const Polygon inner = Blob(&rng, Point{50, 50}, 8.0, vertices);
  Box space;
  space.Expand(outer.Bounds());
  space.Expand(inner.Bounds());
  const RasterGrid grid(space, 12);
  const AprilBuilder builder(&grid);
  const AprilApproximation inner_april = builder.Build(inner);
  const AprilApproximation outer_april = builder.Build(outer);
  for (auto _ : state) {
    benchmark::DoNotOptimize(FindRelationFilter(
        inner.Bounds(), inner_april, outer.Bounds(), outer_april));
  }
}
BENCHMARK(BM_PCFilterSamePairs)->RangeMultiplier(4)->Range(16, 16384);

void BM_RelatePreparedSinglePair(benchmark::State& state) {
  // The overlapping-blobs pair of BM_RelateOverlappingBlobs, but with both
  // sides prepared and warmed outside the loop: the per-pair cost once all
  // index construction is amortised away. The gap to the cold benchmark is
  // the bound on what the pipeline's prepared cache can save per pair.
  Rng rng(11);
  const size_t vertices = static_cast<size_t>(state.range(0));
  const Polygon a = Blob(&rng, Point{50, 50}, 20.0, vertices);
  const Polygon b = Blob(&rng, Point{62, 50}, 20.0, vertices);
  const PreparedPolygon pa(a);
  const PreparedPolygon pb(b);
  pa.Warm();
  pb.Warm();
  for (auto _ : state) {
    benchmark::DoNotOptimize(de9im::RelateEngine::Relate(pa, pb));
  }
  state.SetComplexityN(static_cast<int64_t>(vertices));
}
BENCHMARK(BM_RelatePreparedSinglePair)->RangeMultiplier(4)->Range(16, 16384)
    ->Complexity(benchmark::oNLogN);

void BM_PreparedBuildOnly(benchmark::State& state) {
  // The cost the cache saves: constructing and warming one side's prepared
  // indexes (locator, edge array, edge slab index) from scratch.
  Rng rng(11);
  const size_t vertices = static_cast<size_t>(state.range(0));
  const Polygon a = Blob(&rng, Point{50, 50}, 20.0, vertices);
  for (auto _ : state) {
    PreparedPolygon prepared(a);
    prepared.Warm();
    benchmark::DoNotOptimize(&prepared.EdgeIndex());
  }
  state.SetComplexityN(static_cast<int64_t>(vertices));
}
BENCHMARK(BM_PreparedBuildOnly)->RangeMultiplier(4)->Range(16, 16384)
    ->Complexity(benchmark::oNLogN);

void BM_RepeatedObjectColdRelate(benchmark::State& state) {
  // One pivot object refined against 8 partners, rebuilding the pivot's
  // indexes for every pair — the pipeline's access pattern without the
  // prepared cache (tessellations put every cell in many candidate pairs).
  Rng rng(19);
  const size_t vertices = static_cast<size_t>(state.range(0));
  const Polygon pivot = Blob(&rng, Point{50, 50}, 20.0, vertices);
  std::vector<Polygon> partners;
  for (int i = 0; i < 8; ++i) {
    partners.push_back(
        Blob(&rng, Point{50 + 3.0 * (i - 4), 50}, 18.0, vertices));
  }
  for (auto _ : state) {
    for (const Polygon& partner : partners) {
      benchmark::DoNotOptimize(de9im::RelateMatrix(pivot, partner));
    }
  }
  state.SetComplexityN(static_cast<int64_t>(vertices));
}
BENCHMARK(BM_RepeatedObjectColdRelate)->RangeMultiplier(4)->Range(64, 4096);

void BM_RepeatedObjectPreparedRelate(benchmark::State& state) {
  // The same pairs with every object prepared once up front — what the
  // pipeline's cache achieves at a 100% hit rate.
  Rng rng(19);
  const size_t vertices = static_cast<size_t>(state.range(0));
  const Polygon pivot = Blob(&rng, Point{50, 50}, 20.0, vertices);
  std::vector<Polygon> partners;
  for (int i = 0; i < 8; ++i) {
    partners.push_back(
        Blob(&rng, Point{50 + 3.0 * (i - 4), 50}, 18.0, vertices));
  }
  const PreparedPolygon prepared_pivot(pivot);
  prepared_pivot.Warm();
  std::vector<PreparedPolygon> prepared_partners;
  for (const Polygon& partner : partners) {
    prepared_partners.emplace_back(partner);
    prepared_partners.back().Warm();
  }
  for (auto _ : state) {
    for (const PreparedPolygon& partner : prepared_partners) {
      benchmark::DoNotOptimize(
          de9im::RelateEngine::Relate(prepared_pivot, partner));
    }
  }
  state.SetComplexityN(static_cast<int64_t>(vertices));
}
BENCHMARK(BM_RepeatedObjectPreparedRelate)->RangeMultiplier(4)->Range(64, 4096);

void BM_RelateSharedBoundary(benchmark::State& state) {
  // Tessellation-style shared boundaries stress the collinear-overlap path
  // of the boundary arrangement.
  Rng rng(17);
  const size_t vertices = static_cast<size_t>(state.range(0));
  const Polygon a = Blob(&rng, Point{50, 50}, 20.0, vertices);
  const Polygon b = FillHoles(a);  // equal outer boundary
  for (auto _ : state) {
    benchmark::DoNotOptimize(de9im::RelateMatrix(a, b));
  }
}
BENCHMARK(BM_RelateSharedBoundary)->RangeMultiplier(4)->Range(16, 4096);

// ---- Small building x large park ----------------------------------------
//
// The shape of the buildings-parks refinement workload: many small polygons
// against one park with thousands of vertices. Buildings sit on a lattice
// over the park's MBR, so the set mixes pairs inside the park, across its
// boundary, and in its MBR but outside it.

struct SmallVsLarge {
  Polygon park;
  std::vector<Polygon> buildings;
};

SmallVsLarge MakeSmallVsLarge(size_t park_vertices) {
  Rng rng(23);
  SmallVsLarge f;
  f.park = Blob(&rng, Point{50, 50}, 40.0, park_vertices);
  const Box& box = f.park.Bounds();
  constexpr int kSide = 8;
  for (int i = 0; i < kSide; ++i) {
    for (int j = 0; j < kSide; ++j) {
      const Point c{box.min.x + box.Width() * (i + 0.5) / kSide,
                    box.min.y + box.Height() * (j + 0.5) / kSide};
      f.buildings.push_back(Blob(&rng, c, 1.5, 8));
    }
  }
  return f;
}

// ---- --json harness --------------------------------------------------------

/// Median seconds per call of fn over 5 timed batches; each batch repeats fn
/// until it has run for at least 50 ms.
template <typename Fn>
double SecondsPerCall(Fn&& fn) {
  using Clock = std::chrono::steady_clock;
  std::vector<double> samples;
  for (int rep = 0; rep < 5; ++rep) {
    uint64_t calls = 0;
    const auto start = Clock::now();
    double elapsed = 0.0;
    do {
      fn();
      ++calls;
      elapsed = std::chrono::duration<double>(Clock::now() - start).count();
    } while (elapsed < 0.05);
    samples.push_back(elapsed / static_cast<double>(calls));
  }
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

int RunJsonHarness(const bench::BenchOptions& options) {
  using bench::JsonRecord;
  bench::JsonReporter reporter(options.json_path);
  for (const size_t vertices : {size_t{1024}, size_t{4096}, size_t{16384}}) {
    const SmallVsLarge f = MakeSmallVsLarge(vertices);
    const double park_vertices = static_cast<double>(f.park.VertexCount());

    const double build_s = SecondsPerCall([&] {
      PreparedPolygon prepared(f.park);
      prepared.Warm();
      benchmark::DoNotOptimize(&prepared.EdgeIndex());
    });
    const PolygonLocator locator(f.park);
    const double interior_s = SecondsPerCall([&] {
      const PreparedPolygon prepared(f.park, &locator);
      benchmark::DoNotOptimize(prepared.InteriorPoint());
    });
    const double surface_s = SecondsPerCall([&] {
      Point p;
      benchmark::DoNotOptimize(PointOnSurface(f.park, &p));
    });

    const PreparedPolygon park(f.park);
    park.Warm();
    std::vector<PreparedPolygon> buildings;
    for (const Polygon& b : f.buildings) {
      buildings.emplace_back(b);
      buildings.back().Warm();
    }
    const double relate_s = SecondsPerCall([&] {
      for (const PreparedPolygon& b : buildings) {
        benchmark::DoNotOptimize(de9im::RelateEngine::Relate(b, park));
      }
    });
    const double pairs = static_cast<double>(buildings.size());

    const auto record = [&](const char* stage, double seconds) {
      return JsonRecord()
          .Set("bench", "micro_relate")
          .Set("stage", stage)
          .Set("fixture", "small_vs_large")
          .Set("park_vertices", static_cast<uint64_t>(f.park.VertexCount()))
          .Set("buildings", static_cast<uint64_t>(buildings.size()))
          .Set("threads", 1u)
          .Set("seconds", seconds);
    };
    reporter.Add(record("prepared_build", build_s)
                     .Set("ns_per_vertex", 1e9 * build_s / park_vertices));
    reporter.Add(record("interior_point", interior_s)
                     .Set("ns_per_vertex", 1e9 * interior_s / park_vertices));
    reporter.Add(record("point_on_surface", surface_s)
                     .Set("ns_per_vertex", 1e9 * surface_s / park_vertices));
    reporter.Add(record("relate", relate_s)
                     .Set("ns_per_pair", 1e9 * relate_s / pairs));
    std::printf(
        "  park %6zu vertices: build %6.1f ns/vertex, interior point %5.1f "
        "ns/vertex (PointOnSurface %5.1f), relate %8.0f ns/pair\n",
        f.park.VertexCount(), 1e9 * build_s / park_vertices,
        1e9 * interior_s / park_vertices, 1e9 * surface_s / park_vertices,
        1e9 * relate_s / pairs);
  }
  return reporter.Write() ? 0 : 1;
}

}  // namespace
}  // namespace stj

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) {
      return stj::RunJsonHarness(stj::bench::BenchOptions::Parse(argc, argv));
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
