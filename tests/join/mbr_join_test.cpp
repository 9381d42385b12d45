#include "src/join/mbr_join.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "src/util/rng.h"

namespace stj {
namespace {

std::vector<Box> RandomBoxes(Rng* rng, size_t n, double max_size,
                             bool clustered = false) {
  std::vector<Box> boxes;
  boxes.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    double cx = rng->Uniform(0, 100);
    double cy = rng->Uniform(0, 100);
    if (clustered && i % 3 != 0) {
      cx = 50 + rng->Normal() * 5;
      cy = 50 + rng->Normal() * 5;
    }
    const double w = rng->LogUniform(0.01, max_size);
    const double h = rng->LogUniform(0.01, max_size);
    boxes.push_back(Box::Of(Point{cx, cy}, Point{cx + w, cy + h}));
  }
  return boxes;
}

void ExpectSameResult(std::vector<CandidatePair> got,
                      std::vector<CandidatePair> want) {
  std::sort(got.begin(), got.end());
  std::sort(want.begin(), want.end());
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].r_idx, want[i].r_idx) << i;
    EXPECT_EQ(got[i].s_idx, want[i].s_idx) << i;
  }
}

TEST(MbrJoin, EmptyInputs) {
  EXPECT_TRUE(MbrJoin::Join({}, {Box::Of(Point{0, 0}, Point{1, 1})}).empty());
  EXPECT_TRUE(MbrJoin::Join({Box::Of(Point{0, 0}, Point{1, 1})}, {}).empty());
}

TEST(MbrJoin, SinglePairSharedEdge) {
  const std::vector<Box> r = {Box::Of(Point{0, 0}, Point{1, 1})};
  const std::vector<Box> s = {Box::Of(Point{1, 0}, Point{2, 1})};
  const auto result = MbrJoin::Join(r, s);
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result[0], (CandidatePair{0, 0}));
}

TEST(MbrJoin, MatchesBruteForceOnRandomData) {
  Rng rng(301);
  for (int round = 0; round < 10; ++round) {
    const auto r = RandomBoxes(&rng, 300, 8.0);
    const auto s = RandomBoxes(&rng, 300, 8.0);
    ExpectSameResult(MbrJoin::Join(r, s), MbrJoin::JoinBruteForce(r, s));
  }
}

TEST(MbrJoin, MatchesBruteForceOnClusteredData) {
  Rng rng(303);
  const auto r = RandomBoxes(&rng, 500, 4.0, /*clustered=*/true);
  const auto s = RandomBoxes(&rng, 500, 4.0, /*clustered=*/true);
  ExpectSameResult(MbrJoin::Join(r, s), MbrJoin::JoinBruteForce(r, s));
}

TEST(MbrJoin, NoDuplicatesForLargeBoxesSpanningManyTiles) {
  Rng rng(305);
  // Large boxes replicate into many tiles; reference-point dedup must keep
  // each pair exactly once.
  const auto r = RandomBoxes(&rng, 100, 60.0);
  const auto s = RandomBoxes(&rng, 100, 60.0);
  MbrJoin::Options options;
  options.tiles_per_side = 16;
  auto result = MbrJoin::Join(r, s, options);
  auto sorted = result;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_TRUE(std::adjacent_find(sorted.begin(), sorted.end()) ==
              sorted.end())
      << "duplicate pair emitted";
  ExpectSameResult(result, MbrJoin::JoinBruteForce(r, s));
}

TEST(MbrJoin, ExplicitTinyTileCount) {
  Rng rng(307);
  const auto r = RandomBoxes(&rng, 200, 10.0);
  const auto s = RandomBoxes(&rng, 200, 10.0);
  MbrJoin::Options options;
  options.tiles_per_side = 1;  // degenerate: single tile = plain sweep
  ExpectSameResult(MbrJoin::Join(r, s, options),
                   MbrJoin::JoinBruteForce(r, s));
}

TEST(MbrJoin, IdenticalDatasets) {
  Rng rng(309);
  const auto r = RandomBoxes(&rng, 150, 6.0);
  ExpectSameResult(MbrJoin::Join(r, r), MbrJoin::JoinBruteForce(r, r));
}

MbrJoin::Options Opt(uint32_t tiles, unsigned threads,
                     bool deterministic = false) {
  MbrJoin::Options options;
  options.tiles_per_side = tiles;
  options.num_threads = threads;
  options.deterministic = deterministic;
  return options;
}

TEST(MbrJoin, MatchesBruteForceAcrossSeedsTilesAndThreads) {
  for (const uint64_t seed : {311u, 313u, 317u}) {
    Rng rng(seed);
    const auto r = RandomBoxes(&rng, 250, 8.0);
    const auto s = RandomBoxes(&rng, 250, 8.0);
    const auto want = MbrJoin::JoinBruteForce(r, s);
    for (const uint32_t tiles : {0u, 1u, 4u, 16u}) {
      for (const unsigned threads : {1u, 2u, 8u}) {
        SCOPED_TRACE(::testing::Message() << "seed=" << seed << " tiles="
                                          << tiles << " threads=" << threads);
        ExpectSameResult(MbrJoin::Join(r, s, Opt(tiles, threads)), want);
      }
    }
  }
}

TEST(MbrJoin, AllIdenticalBoxes) {
  // Every box equals every other: the worst case for both the sweep (all
  // entries tie on xmin) and the reference-point rule (one tile owns all
  // n^2 pairs).
  const std::vector<Box> r(40, Box::Of(Point{10, 10}, Point{12, 12}));
  const std::vector<Box> s(40, Box::Of(Point{10, 10}, Point{12, 12}));
  const auto want = MbrJoin::JoinBruteForce(r, s);
  ASSERT_EQ(want.size(), 1600u);
  for (const unsigned threads : {1u, 8u}) {
    ExpectSameResult(MbrJoin::Join(r, s, Opt(8, threads)), want);
  }
}

TEST(MbrJoin, ZeroAreaBoxesAcrossThreads) {
  Rng rng(319);
  std::vector<Box> r;
  std::vector<Box> s;
  for (int i = 0; i < 120; ++i) {
    const double x = rng.Uniform(0, 50);
    const double y = rng.Uniform(0, 50);
    // Points, horizontal segments, vertical segments.
    r.push_back(Box::Of(Point{x, y}, Point{x, y}));
    s.push_back(i % 2 == 0 ? Box::Of(Point{x - 1, y}, Point{x + 1, y})
                           : Box::Of(Point{x, y - 1}, Point{x, y + 1}));
  }
  const auto want = MbrJoin::JoinBruteForce(r, s);
  for (const unsigned threads : {1u, 2u, 8u}) {
    ExpectSameResult(MbrJoin::Join(r, s, Opt(8, threads)), want);
  }
}

TEST(MbrJoin, EmptyBoxesInInputAreIgnored) {
  Rng rng(321);
  auto r = RandomBoxes(&rng, 60, 6.0);
  auto s = RandomBoxes(&rng, 60, 6.0);
  for (size_t i = 0; i < r.size(); i += 5) r[i] = Box::Empty();
  for (size_t i = 0; i < s.size(); i += 7) s[i] = Box::Empty();
  // Empty boxes intersect nothing in both the grid join and brute force.
  ExpectSameResult(MbrJoin::Join(r, s, Opt(4, 2)),
                   MbrJoin::JoinBruteForce(r, s));
}

TEST(MbrJoin, EmptySidesWithManyThreads) {
  Rng rng(323);
  const auto r = RandomBoxes(&rng, 50, 5.0);
  EXPECT_TRUE(MbrJoin::Join(r, {}, Opt(0, 8)).empty());
  EXPECT_TRUE(MbrJoin::Join({}, r, Opt(0, 8)).empty());
}

TEST(MbrJoin, DeterministicModeIsByteIdenticalAcrossThreadCounts) {
  Rng rng(325);
  const auto r = RandomBoxes(&rng, 400, 10.0, /*clustered=*/true);
  const auto s = RandomBoxes(&rng, 400, 10.0, /*clustered=*/true);
  const auto baseline = MbrJoin::Join(r, s, Opt(16, 1, /*deterministic=*/true));
  ASSERT_FALSE(baseline.empty());
  for (const unsigned threads : {2u, 3u, 8u}) {
    const auto result = MbrJoin::Join(r, s, Opt(16, threads, true));
    // Exact sequence equality, not just the same set.
    ASSERT_EQ(result.size(), baseline.size()) << threads;
    for (size_t i = 0; i < result.size(); ++i) {
      ASSERT_EQ(result[i], baseline[i]) << "threads=" << threads << " i=" << i;
    }
  }
}

// Small inputs get one worker per 2048 boxes, never more than the cap (the
// sharded scheduler sizes each tile's join this way).
TEST(MbrJoin, UsefulThreadsScalesWithWorkUpToTheCap) {
  EXPECT_EQ(MbrJoin::UsefulThreads(0, 4), 1u);
  EXPECT_EQ(MbrJoin::UsefulThreads(900, 4), 1u);
  EXPECT_EQ(MbrJoin::UsefulThreads(2 * 2048, 4), 2u);
  EXPECT_EQ(MbrJoin::UsefulThreads(100000, 4), 4u);
  EXPECT_EQ(MbrJoin::UsefulThreads(100000, 1), 1u);
  EXPECT_GE(MbrJoin::UsefulThreads(100000, 0), 1u);  // 0 = all cores
}

TEST(MbrJoin, RunToRunReproducible) {
  // Tied xmin values used to leave the per-tile order unspecified; the idx
  // tiebreaker makes repeated runs identical, pair by pair.
  Rng rng(327);
  std::vector<Box> r;
  std::vector<Box> s;
  for (int i = 0; i < 200; ++i) {
    const double x = static_cast<double>(i % 10);  // many ties on xmin
    r.push_back(Box::Of(Point{x, 0}, Point{x + 2, 50}));
    s.push_back(Box::Of(Point{x + 1, 0}, Point{x + 3, 50}));
  }
  const auto first = MbrJoin::Join(r, s, Opt(8, 1));
  const auto second = MbrJoin::Join(r, s, Opt(8, 1));
  ASSERT_EQ(first.size(), second.size());
  for (size_t i = 0; i < first.size(); ++i) {
    ASSERT_EQ(first[i], second[i]) << i;
  }
}

TEST(MbrJoin, PointLikeBoxes) {
  // Degenerate zero-area boxes must still join by containment/touch.
  const std::vector<Box> r = {Box::Of(Point{5, 5}, Point{5, 5})};
  const std::vector<Box> s = {Box::Of(Point{0, 0}, Point{10, 10}),
                              Box::Of(Point{5, 5}, Point{5, 5}),
                              Box::Of(Point{6, 6}, Point{7, 7})};
  const auto result = MbrJoin::Join(r, s);
  EXPECT_EQ(result.size(), 2u);
}

}  // namespace
}  // namespace stj
