#pragma once

// Differential check of the range-parallel WKT loader: a load split into
// several byte ranges must give exactly what a one-worker load gives — the
// objects and ids, the Status (code, message, file, line, offset) and the
// LoadReport (counters, issues, cap) — wherever the range boundaries fall.

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/datasets/dataset_io.h"

namespace stj::test {

struct LoadOutcome {
  Status status;
  Dataset dataset;
  LoadReport report;
};

/// Loads \p path split at \p cuts, in waves of options.num_threads ranges.
inline LoadOutcome LoadWithCuts(const std::string& path,
                                const LoadOptions& options,
                                const std::vector<uint64_t>& cuts) {
  LoadOutcome out;
  out.status = internal::LoadWktDatasetRanges(path, "diff", options, cuts,
                                              &out.dataset, &out.report);
  return out;
}

inline void ExpectSameRing(const Ring& want, const Ring& got,
                           const std::string& label) {
  EXPECT_EQ(got.Vertices(), want.Vertices()) << label;
  EXPECT_EQ(got.Bounds(), want.Bounds()) << label;
}

inline void ExpectSameLoad(const LoadOutcome& want, const LoadOutcome& got,
                           const std::string& label) {
  // ToString renders the code, file, line, offset and message.
  EXPECT_EQ(got.status.ToString(), want.status.ToString()) << label;
  EXPECT_EQ(got.status.line(), want.status.line()) << label;
  EXPECT_EQ(got.status.has_offset(), want.status.has_offset()) << label;

  const std::vector<SpatialObject>& a = want.dataset.objects;
  const std::vector<SpatialObject>& b = got.dataset.objects;
  ASSERT_EQ(b.size(), a.size()) << label;
  for (size_t i = 0; i < a.size(); ++i) {
    const std::string at = label + " object " + std::to_string(i);
    EXPECT_EQ(b[i].id, a[i].id) << at;
    ExpectSameRing(a[i].geometry.Outer(), b[i].geometry.Outer(), at);
    ASSERT_EQ(b[i].geometry.Holes().size(), a[i].geometry.Holes().size())
        << at;
    for (size_t h = 0; h < a[i].geometry.Holes().size(); ++h) {
      ExpectSameRing(a[i].geometry.Holes()[h], b[i].geometry.Holes()[h], at);
    }
  }

  const LoadReport& x = want.report;
  const LoadReport& y = got.report;
  EXPECT_EQ(y.lines, x.lines) << label;
  EXPECT_EQ(y.accepted, x.accepted) << label;
  EXPECT_EQ(y.repaired, x.repaired) << label;
  EXPECT_EQ(y.skipped, x.skipped) << label;
  EXPECT_EQ(y.issues_dropped, x.issues_dropped) << label;
  ASSERT_EQ(y.issues.size(), x.issues.size()) << label;
  for (size_t i = 0; i < x.issues.size(); ++i) {
    EXPECT_EQ(y.issues[i].line, x.issues[i].line) << label;
    EXPECT_EQ(y.issues[i].action, x.issues[i].action) << label;
    EXPECT_EQ(y.issues[i].reason, x.issues[i].reason) << label;
  }
}

/// Splits that put a range boundary on, just before and just after every
/// '\n' of \p bytes: each position alone (two ranges), and the three
/// together (four ranges, the middle two of one byte).
inline std::vector<std::vector<uint64_t>> CutsAroundNewlines(
    const std::string& bytes) {
  std::vector<std::vector<uint64_t>> splits;
  for (uint64_t i = 0; i < bytes.size(); ++i) {
    if (bytes[i] != '\n') continue;
    const uint64_t before = i == 0 ? 0 : i - 1;
    for (const uint64_t cut : {before, i, i + 1}) splits.push_back({cut});
    splits.push_back({before, i, i + 1});
  }
  return splits;
}

inline std::string FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream contents;
  contents << in.rdbuf();
  return contents.str();
}

/// Loads \p path with one worker, then at every CutsAroundNewlines split,
/// all ranges in one wave and in waves of two workers, and expects the
/// same outcome every time. Returns the one-worker outcome.
inline LoadOutcome ExpectLoadMatchesOneWorker(const std::string& path,
                                              LoadOptions options) {
  options.num_threads = 1;
  const LoadOutcome want = LoadWithCuts(path, options, {});
  for (const std::vector<uint64_t>& cuts :
       CutsAroundNewlines(FileBytes(path))) {
    for (const unsigned wave : {0u, 2u}) {
      options.num_threads = wave;
      std::string label = path + " wave " + std::to_string(wave) + " cuts";
      for (const uint64_t cut : cuts) {
        label += ' ';
        label += std::to_string(cut);
      }
      ExpectSameLoad(want, LoadWithCuts(path, options, cuts), label);
    }
  }
  return want;
}

}  // namespace stj::test
