#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "src/datasets/dataset_io.h"
#include "tests/datasets/load_differential.h"

// The range-parallel WKT loader against its one-worker load: range
// boundaries on, before and after every '\n', several ranges per wave and
// several waves, on comment and blank lines, '\r\n' endings, a missing last
// newline, a line longer than the read buffer, empty and comments-only
// files, strict errors in several ranges and a capped permissive report.

namespace stj {
namespace {

std::string TempPath(const char* name) {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  return std::string(::testing::TempDir()) + "/" +
         (info != nullptr ? info->name() : "unknown") + "_" +
         std::to_string(::getpid()) + "_" + name;
}

std::string WriteFile(const char* name, const std::string& contents) {
  const std::string path = TempPath(name);
  std::ofstream out(path, std::ios::binary);
  out << contents;
  return path;
}

LoadOptions Strict() { return LoadOptions{}; }

LoadOptions Permissive(size_t max_issues = 64) {
  LoadOptions options;
  options.mode = LoadMode::kPermissive;
  options.max_issues = max_issues;
  return options;
}

LoadOptions Validating(LoadMode mode) {
  LoadOptions options;
  options.mode = mode;
  options.validate = true;
  return options;
}

/// Every line start of \p bytes after the first: one range per line.
std::vector<uint64_t> LineStarts(const std::string& bytes) {
  std::vector<uint64_t> cuts;
  for (uint64_t i = 0; i + 1 < bytes.size(); ++i) {
    if (bytes[i] == '\n') cuts.push_back(i + 1);
  }
  return cuts;
}

/// The one-worker outcome of \p path, checked against a load with one range
/// per line, in one wave and in waves of three.
test::LoadOutcome ExpectOneRangePerLineMatches(const std::string& path,
                                               LoadOptions options) {
  const test::LoadOutcome want = test::ExpectLoadMatchesOneWorker(path, options);
  const std::vector<uint64_t> cuts = LineStarts(test::FileBytes(path));
  for (const unsigned wave : {0u, 3u}) {
    options.num_threads = wave;
    test::ExpectSameLoad(want, test::LoadWithCuts(path, options, cuts),
                         "one range per line, wave " + std::to_string(wave));
  }
  return want;
}

const char kMixed[] =
    "# header comment\n"
    "\n"
    "POLYGON ((0 0, 4 0, 4 4, 0 4, 0 0))\n"
    "POLYGON ((10 10, 20 10, 20 20, 10 20), (12 12, 12 14, 14 14, 14 12))\r\n"
    "POLYGON EMPTY\n"
    "#comment between\n"
    "\n"
    "\n"
    "POLYGON ((0 0, 0 1, 1 0))\n"
    "POLYGON ((10 10, 12 10, 12 10, 12 12))\n"
    "polygon((5 5,6 5,6 6))";  // no final newline

TEST(ParallelLoadTest, MixedFileMatchesOneWorkerInEveryMode) {
  const std::string path = WriteFile("mixed.wkt", kMixed);
  const test::LoadOutcome strict = ExpectOneRangePerLineMatches(path, Strict());
  ASSERT_TRUE(strict.status.ok()) << strict.status.ToString();
  EXPECT_EQ(strict.dataset.objects.size(), 6u);
  EXPECT_TRUE(strict.dataset.objects[2].geometry.Empty());  // POLYGON EMPTY
  EXPECT_EQ(strict.dataset.objects[1].geometry.Holes().size(), 1u);
  EXPECT_EQ(strict.report.lines, 6u);

  const test::LoadOutcome permissive =
      ExpectOneRangePerLineMatches(path, Permissive());
  ASSERT_TRUE(permissive.status.ok());
  EXPECT_EQ(permissive.report.repaired, 1u);  // the duplicated vertex
  EXPECT_EQ(permissive.report.skipped, 1u);   // POLYGON EMPTY
  ExpectOneRangePerLineMatches(path, Validating(LoadMode::kPermissive));
  std::remove(path.c_str());
}

TEST(ParallelLoadTest, LastLineWithAndWithoutNewline) {
  for (const std::string tail : {"", "\n", "\n\n", "\r\n"}) {
    const std::string path =
        WriteFile("tail.wkt", "POLYGON ((0 0, 1 0, 1 1))\n"
                              "POLYGON ((2 2, 3 2, 3 3))" + tail);
    const test::LoadOutcome permissive =
        ExpectOneRangePerLineMatches(path, Permissive());
    EXPECT_EQ(permissive.dataset.objects.size(), 2u) << tail.size();
    ExpectOneRangePerLineMatches(path, Strict());
    std::remove(path.c_str());
  }
}

TEST(ParallelLoadTest, EmptyBlankAndCommentsOnlyFiles) {
  for (const std::string contents :
       {"", "\n", "\n\n\n", "# only\n# comments\n", "# no newline"}) {
    const std::string path = WriteFile("empty.wkt", contents);
    const test::LoadOutcome want = ExpectOneRangePerLineMatches(path, Strict());
    EXPECT_TRUE(want.status.ok()) << want.status.ToString();
    EXPECT_TRUE(want.dataset.objects.empty());
    EXPECT_EQ(want.report.lines, 0u);
    for (const unsigned threads : {1u, 4u}) {
      LoadOptions options;
      options.num_threads = threads;
      Dataset loaded;
      EXPECT_TRUE(LoadWktDataset(path, "empty", options, &loaded).ok());
      EXPECT_TRUE(loaded.objects.empty());
    }
    std::remove(path.c_str());
  }
}

TEST(ParallelLoadTest, LineLongerThanAnyReadBuffer) {
  // ~640 KB on one line: more than the reader's block, so its buffer grows.
  std::string line = "POLYGON ((";
  constexpr int kVertices = 40000;
  for (int i = 0; i < kVertices; ++i) {
    const double angle = 6.283185307179586 * i / kVertices;
    if (i != 0) line += ", ";
    line += std::to_string(100.0 * std::cos(angle)) + " " +
            std::to_string(100.0 * std::sin(angle));
  }
  line += "))";
  const std::string contents = "POLYGON ((0 0, 1 0, 1 1))\n" + line +
                               "\n# after\nPOLYGON ((2 2, 3 2, 3 3))\n";
  const std::string path = WriteFile("long.wkt", contents);
  const test::LoadOutcome want = ExpectOneRangePerLineMatches(path, Strict());
  ASSERT_EQ(want.dataset.objects.size(), 3u);
  EXPECT_EQ(want.dataset.objects[1].geometry.Outer().Size(),
            static_cast<size_t>(kVertices));
  // Boundaries inside the long line: its range owns it whole, the next
  // range starts at the line after it.
  const uint64_t start = contents.find('\n') + 1;
  const uint64_t mid = start + line.size() / 2;
  const std::vector<std::vector<uint64_t>> splits = {
      {mid},
      {start + 1, mid, start + line.size()},
      {start, start + 300000, start + 600000}};
  for (const std::vector<uint64_t>& cuts : splits) {
    for (const unsigned wave : {0u, 2u}) {
      LoadOptions options;
      options.num_threads = wave;
      test::ExpectSameLoad(want, test::LoadWithCuts(path, options, cuts),
                           "cut inside the long line");
    }
  }
  std::remove(path.c_str());
}

TEST(ParallelLoadTest, EarliestStrictErrorWinsAcrossRanges) {
  std::string contents;
  for (int i = 1; i <= 12; ++i) {
    if (i == 4) {
      contents += "POLYGON ((0 0, 1 oops, 1 1))\n";
    } else if (i == 7) {
      contents += "POLYGON ((0 0; 1 0, 1 1))\n";
    } else if (i == 10) {
      contents += "LINESTRING (0 0, 1 1)\n";
    } else {
      contents += "POLYGON ((0 0, " + std::to_string(i) + " 0, 1 1))\n";
    }
  }
  const std::string path = WriteFile("errors.wkt", contents);
  const test::LoadOutcome want = ExpectOneRangePerLineMatches(path, Strict());
  ASSERT_FALSE(want.status.ok());
  EXPECT_EQ(want.status.line(), 4u);
  EXPECT_EQ(want.status.file(), path);
  EXPECT_TRUE(want.status.has_offset());
  EXPECT_TRUE(want.dataset.objects.empty());
  EXPECT_EQ(want.report.lines, 4u);
  EXPECT_EQ(want.report.accepted, 3u);
  ASSERT_EQ(want.report.issues.size(), 1u);
  EXPECT_EQ(want.report.issues[0].action, LineIssue::Action::kRejected);

  // With the three bad lines in three ranges, the first in file order wins
  // whichever worker finishes first.
  const uint64_t line7 = contents.find("POLYGON ((0 0; 1");
  const uint64_t line10 = contents.find("LINESTRING");
  test::ExpectSameLoad(want, test::LoadWithCuts(path, Strict(), {line7, line10}),
                       "errors in three ranges");

  // Validation failures stop a strict load the same way.
  const std::string bowtie =
      WriteFile("bowtie.wkt",
                "POLYGON ((0 0, 1 0, 1 1))\n"
                "POLYGON ((0 0, 2 2, 2 0, 0 2))\n"
                "POLYGON ((0 0, 1 0, 1 1))\n"
                "POLYGON ((0 0, 2 2, 2 0, 0 2))\n");
  const test::LoadOutcome invalid =
      ExpectOneRangePerLineMatches(bowtie, Validating(LoadMode::kStrict));
  ASSERT_FALSE(invalid.status.ok());
  EXPECT_EQ(invalid.status.line(), 2u);
  std::remove(path.c_str());
  std::remove(bowtie.c_str());
}

TEST(ParallelLoadTest, PermissiveReportSpansRangesWithCapHit) {
  std::string contents = "# header\n";
  for (int i = 0; i < 20; ++i) {
    contents += i % 2 == 0 ? "POLYGON ((0 0, 1 0, 1 1))\n"
                           : "POLYGON ((0 0, 1 0 1 1))\n";
  }
  const std::string path = WriteFile("capped.wkt", contents);
  for (const size_t cap : {size_t{0}, size_t{3}, size_t{64}}) {
    const test::LoadOutcome want =
        ExpectOneRangePerLineMatches(path, Permissive(cap));
    ASSERT_TRUE(want.status.ok());
    EXPECT_EQ(want.report.skipped, 10u);
    EXPECT_EQ(want.report.issues.size(), std::min<size_t>(cap, 10));
    EXPECT_EQ(want.report.issues_dropped, 10 - std::min<size_t>(cap, 10));
    if (cap != 0) {
      EXPECT_EQ(want.report.issues[0].line, 3u);
    }
    EXPECT_EQ(want.dataset.objects.size(), 10u);
  }
  std::remove(path.c_str());
}

TEST(ParallelLoadTest, PublicLoadSplitsLargeFilesAndMatchesOneThread) {
  // ~4.7 MB: four workers' worth at kMinLoadBytesPerWorker.
  std::string contents = "# generated\n";
  for (int i = 0; i < 52000; ++i) {
    const std::string x = std::to_string(i % 1000);
    const std::string y = std::to_string(i / 1000);
    contents += "POLYGON ((" + x + " " + y + ", " + x + ".75 " + y + ", " + x +
                ".75 " + y + ".5, " + x + " " + y + ".5), (" + x + ".25 " + y +
                ".1, " + x + ".25 " + y + ".4, " + x + ".5 " + y + ".4))\n";
  }
  ASSERT_GE(contents.size(), 4 * kMinLoadBytesPerWorker);
  const std::string path = WriteFile("large.wkt", contents);
  ASSERT_EQ(UsefulLoadThreads(contents.size(), 4), 4u);

  LoadOptions options;
  options.num_threads = 1;
  test::LoadOutcome want;
  want.status = LoadWktDataset(path, "large", options, &want.dataset,
                               &want.report);
  ASSERT_TRUE(want.status.ok());
  ASSERT_EQ(want.dataset.objects.size(), 52000u);
  for (const unsigned threads : {2u, 3u, 4u, 0u}) {
    options.num_threads = threads;
    test::LoadOutcome got;
    got.status = LoadWktDataset(path, "large", options, &got.dataset,
                                &got.report);
    test::ExpectSameLoad(want, got, "threads " + std::to_string(threads));
  }
  std::remove(path.c_str());
}

TEST(ParallelLoadTest, UsefulLoadThreadsKeepsSmallFilesOnOneThread) {
  EXPECT_EQ(UsefulLoadThreads(0, 4), 1u);
  EXPECT_EQ(UsefulLoadThreads(kMinLoadBytesPerWorker - 1, 4), 1u);
  EXPECT_EQ(UsefulLoadThreads(3 * kMinLoadBytesPerWorker, 4), 3u);
  EXPECT_EQ(UsefulLoadThreads(100 * kMinLoadBytesPerWorker, 4), 4u);
  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
  EXPECT_EQ(UsefulLoadThreads(1000 * kMinLoadBytesPerWorker, 0),
            std::min(cores, 1000u));
}

TEST(ParallelLoadTest, MissingFileIsNotFoundAtEveryThreadCount) {
  for (const unsigned threads : {1u, 4u}) {
    LoadOptions options;
    options.num_threads = threads;
    Dataset loaded;
    const Status status =
        LoadWktDataset(TempPath("absent.wkt"), "absent", options, &loaded);
    EXPECT_EQ(status.code(), StatusCode::kNotFound);
  }
}

}  // namespace
}  // namespace stj
