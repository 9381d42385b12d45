#include "src/raster/shard_io.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "src/datasets/scenarios.h"
#include "src/join/partitioner.h"
#include "src/topology/pipeline.h"
#include "src/util/mmap_file.h"

namespace stj {
namespace {

// Encode a flat approximation set into the blocked codec (corrupt entries
// stay placeholders) — the form the shard writer persists.
CompressedAprilStore Compress(const std::vector<AprilApproximation>& april) {
  CompressedAprilStore cstore;
  for (const AprilApproximation& a : april) {
    if (!a.usable) {
      cstore.AppendCorruptPlaceholder();
      continue;
    }
    const AprilView view(a);
    cstore.AppendEncoded(view.conservative, view.progressive);
  }
  return cstore;
}

std::vector<uint8_t> ReadFile(const std::string& path) {
  std::vector<uint8_t> data;
  FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return data;
  std::fseek(f, 0, SEEK_END);
  data.resize(static_cast<size_t>(std::ftell(f)));
  std::fseek(f, 0, SEEK_SET);
  if (!data.empty() && std::fread(data.data(), 1, data.size(), f) == 0) {
    data.clear();
  }
  std::fclose(f);
  return data;
}

void WriteFile(const std::string& path, const std::vector<uint8_t>& data) {
  FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr) << path;
  if (!data.empty()) {
    ASSERT_EQ(std::fwrite(data.data(), 1, data.size(), f), data.size());
  }
  std::fclose(f);
}

// Locates the segment-table entry of `kind` in a raw shard file image.
// Layout per shard_io.h: 40-byte header, then 32-byte entries of
// { u32 kind | u32 pad | u64 offset | u64 bytes | u64 fnv }.
bool FindSegment(const std::vector<uint8_t>& file, uint32_t kind,
                 uint64_t* offset, uint64_t* bytes) {
  constexpr size_t kHeader = 40, kEntry = 32;
  for (size_t e = 0; e < shard::kNumSegments; ++e) {
    const size_t at = kHeader + e * kEntry;
    uint32_t k;
    std::memcpy(&k, file.data() + at, sizeof(k));
    if (k != kind) continue;
    std::memcpy(offset, file.data() + at + 8, sizeof(*offset));
    std::memcpy(bytes, file.data() + at + 16, sizeof(*bytes));
    return true;
  }
  return false;
}

class ShardIoTest : public ::testing::Test {
 protected:
  ShardIoTest() {
    ScenarioOptions options;
    options.scale = 0.05;
    options.grid_order = 10;
    options.run_join = false;
    scenario_ = BuildScenario("OLE-OPE", options);
    cstore_ = Compress(scenario_.r_april);

    const std::vector<Box> mbrs = scenario_.r.Mbrs();
    std::vector<uint64_t> units(mbrs.size());
    for (size_t i = 0; i < units.size(); ++i) {
      units[i] = scenario_.r.objects[i].geometry.VertexCount();
    }
    PartitionOptions poptions;
    poptions.target_tiles = 4;
    partition_ = BuildCostBalancedPartition(mbrs, units, poptions);
  }

  // Each test writes into its own directory under the shared TempDir (tests
  // may run as separate ctest processes against the same TempDir).
  std::string Dir(const std::string& name) const {
    return std::string(::testing::TempDir()) + "/shard_io_" + name;
  }

  Status Write(const std::string& dir, ShardWriteStats* stats = nullptr) {
    return WriteShardSet(dir, partition_.grid, partition_.tile_begin,
                         partition_.entries, partition_.tile_units,
                         scenario_.r.objects, cstore_, stats);
  }

  ScenarioData scenario_;
  CompressedAprilStore cstore_;
  TilePartition partition_;
};

TEST_F(ShardIoTest, RoundTripPreservesEveryTileSlice) {
  const std::string dir = Dir("roundtrip");
  ShardWriteStats wstats;
  ASSERT_TRUE(Write(dir, &wstats).ok());
  EXPECT_EQ(wstats.tiles, partition_.Tiles());
  EXPECT_GT(wstats.bytes_written, 0u);

  ShardSet set;
  ASSERT_TRUE(ShardSet::Open(dir, &set).ok());
  ASSERT_EQ(set.Tiles(), partition_.Tiles());
  EXPECT_TRUE(set.Grid() == partition_.grid);
  EXPECT_EQ(set.TotalObjects(), scenario_.r.objects.size());

  for (uint32_t t = 0; t < set.Tiles(); ++t) {
    LoadedShard shard;
    ASSERT_TRUE(set.LoadTile(t, &shard).ok()) << "tile " << t;
    EXPECT_EQ(shard.tile, t);

    // Ids reproduce the partitioner's CSR slice exactly.
    const std::vector<uint32_t> expected_ids(
        partition_.entries.begin() + partition_.tile_begin[t],
        partition_.entries.begin() + partition_.tile_begin[t + 1]);
    ASSERT_EQ(shard.ids, expected_ids);

    // Geometry round-trips through the view accessors: ids, ring
    // structure, vertices, bounds; the MBR column equals Bounds().
    ASSERT_EQ(shard.geometry.Size(), expected_ids.size());
    ASSERT_EQ(shard.geometry.Mbrs().size(), expected_ids.size());
    DatasetView view;
    view.shard = &shard.geometry;
    ASSERT_EQ(view.Size(), expected_ids.size());
    CompressedAprilStore expected_slice;
    for (uint32_t k = 0; k < expected_ids.size(); ++k) {
      const SpatialObject& orig = scenario_.r.objects[expected_ids[k]];
      const Polygon& got = view.Geometry(k);
      ASSERT_EQ(shard.geometry.Object(k).id, orig.id);
      ASSERT_EQ(got.RingCount(), orig.geometry.RingCount());
      ASSERT_EQ(got.VertexCount(), orig.geometry.VertexCount());
      EXPECT_TRUE(got.Outer() == orig.geometry.Outer());
      EXPECT_TRUE(got.Holes() == orig.geometry.Holes());
      EXPECT_EQ(got.Bounds(), orig.geometry.Bounds());
      EXPECT_EQ(view.Bounds(k), got.Bounds());
      EXPECT_EQ(shard.geometry.Mbrs()[k], got.Bounds());
      expected_slice.AppendRecordFrom(cstore_, expected_ids[k]);
    }
    EXPECT_EQ(shard.geometry.ObjectsDecoded(), expected_ids.size());

    // The mapped APRIL slice is byte-identical to the writer's input
    // (records are copied verbatim, never re-encoded).
    EXPECT_TRUE(shard.cstore == expected_slice) << "tile " << t;
  }
}

TEST_F(ShardIoTest, LoadedAprilIsZeroCopyOffTheMapping) {
  const std::string dir = Dir("zerocopy");
  ASSERT_TRUE(Write(dir).ok());
  ShardSet set;
  ASSERT_TRUE(ShardSet::Open(dir, &set).ok());
  LoadedShard shard;
  ASSERT_TRUE(set.LoadTile(0, &shard).ok());
  ASSERT_TRUE(shard.cstore.IsMapped());

  const uint8_t* base = shard.map.Data();
  const uint8_t* end = base + shard.map.Size();
  const CompressedStoreSpans& spans = shard.cstore.Spans();
  const auto inside = [&](const void* p) {
    return reinterpret_cast<const uint8_t*>(p) >= base &&
           reinterpret_cast<const uint8_t*>(p) < end;
  };
  ASSERT_GT(spans.count, 0u);
  EXPECT_TRUE(inside(spans.headers));
  EXPECT_TRUE(inside(spans.hdr_begin));
  EXPECT_TRUE(inside(spans.byte_begin));
  EXPECT_TRUE(inside(spans.usable));
  if (spans.byte_begin[spans.count] > 0) {
    EXPECT_TRUE(inside(spans.bytes));
  }

  // Accounting sanity: the mapping dominates resident_bytes, and the eager
  // part never exceeds the file.
  EXPECT_GE(shard.resident_bytes, shard.map.Size());
  EXPECT_GT(shard.eager_bytes, 0u);
  EXPECT_LE(shard.eager_bytes, shard.map.Size());
}

TEST_F(ShardIoTest, LoadDecodesNoGeometryUntilAsked) {
  const std::string dir = Dir("lazy");
  ASSERT_TRUE(Write(dir).ok());
  ShardSet set;
  ASSERT_TRUE(ShardSet::Open(dir, &set).ok());
  LoadedShard shard;
  ASSERT_TRUE(set.LoadTile(0, &shard).ok());
  ASSERT_GT(shard.geometry.Size(), 1u);
  EXPECT_EQ(shard.geometry.ObjectsDecoded(), 0u);
  EXPECT_EQ(shard.geometry.VerticesDecoded(), 0u);

  // One decode per object, however often it is asked for.
  const SpatialObject& first = shard.geometry.Object(1);
  EXPECT_EQ(&shard.geometry.Object(1), &first);
  EXPECT_EQ(shard.geometry.ObjectsDecoded(), 1u);
  EXPECT_EQ(shard.geometry.VerticesDecoded(), first.geometry.VertexCount());
}

// Four threads decode the same shard at once, each walking the objects from
// a different start. Every object is decoded exactly once: all threads see
// the same instance, equal to the original polygon.
TEST_F(ShardIoTest, ParallelGeometryDecodesEachObjectOnce) {
  const std::string dir = Dir("parallel_decode");
  ASSERT_TRUE(Write(dir).ok());
  ShardSet set;
  ASSERT_TRUE(ShardSet::Open(dir, &set).ok());
  uint32_t largest = 0;
  for (uint32_t t = 1; t < set.Tiles(); ++t) {
    if (set.Tile(t).object_count > set.Tile(largest).object_count) {
      largest = t;
    }
  }
  LoadedShard shard;
  ASSERT_TRUE(set.LoadTile(largest, &shard).ok());
  DatasetView view;
  view.shard = &shard.geometry;
  const size_t n = view.Size();
  ASSERT_GT(n, 0u);

  constexpr size_t kThreads = 4;
  std::vector<std::vector<const Polygon*>> seen(
      kThreads, std::vector<const Polygon*>(n, nullptr));
  std::vector<std::thread> threads;
  for (size_t w = 0; w < kThreads; ++w) {
    threads.emplace_back([&view, &seen, n, w] {
      for (size_t k = 0; k < n; ++k) {
        const uint32_t i = static_cast<uint32_t>((k + w * n / kThreads) % n);
        seen[w][i] = &view.Geometry(i);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  uint64_t vertices = 0;
  for (uint32_t i = 0; i < n; ++i) {
    for (size_t w = 1; w < kThreads; ++w) ASSERT_EQ(seen[w][i], seen[0][i]);
    const Polygon& orig = scenario_.r.objects[shard.ids[i]].geometry;
    EXPECT_TRUE(seen[0][i]->Outer() == orig.Outer()) << "object " << i;
    EXPECT_TRUE(seen[0][i]->Holes() == orig.Holes()) << "object " << i;
    vertices += orig.VertexCount();
  }
  EXPECT_EQ(shard.geometry.ObjectsDecoded(), n);
  EXPECT_EQ(shard.geometry.VerticesDecoded(), vertices);
}

TEST_F(ShardIoTest, ValidateCleanSetReportsEverySegment) {
  const std::string dir = Dir("validate_clean");
  ASSERT_TRUE(Write(dir).ok());
  ShardCheckReport report;
  ASSERT_TRUE(ValidateShardSet(dir, &report).ok());
  EXPECT_FALSE(report.Corrupt());
  EXPECT_EQ(report.tiles, partition_.Tiles());
  EXPECT_EQ(report.tiles_corrupt, 0u);
  EXPECT_EQ(report.segments_checked,
            uint64_t{shard::kNumSegments} * partition_.Tiles());
  EXPECT_TRUE(report.issues.empty());
}

TEST_F(ShardIoTest, PayloadCorruptionCaughtByValidateNotByLoad) {
  const std::string dir = Dir("payload_corrupt");
  ASSERT_TRUE(Write(dir).ok());
  ShardSet set;
  ASSERT_TRUE(ShardSet::Open(dir, &set).ok());

  // Flip one byte inside the APRIL payload arena of tile 0. The structural
  // layer (header, table, CSR offsets) is untouched, so the lazy join path
  // must still load the tile — checksumming payloads at load would fault
  // every page in — while the full audit must flag it.
  const std::string path = set.TilePath(0);
  std::vector<uint8_t> file = ReadFile(path);
  ASSERT_FALSE(file.empty());
  uint64_t offset = 0, bytes = 0;
  ASSERT_TRUE(FindSegment(file, shard::kAprilBytes, &offset, &bytes));
  ASSERT_GT(bytes, 0u) << "tile 0 has an empty codec arena; pick a bigger "
                          "scenario scale";
  file[offset] ^= 0xFF;
  WriteFile(path, file);

  LoadedShard shard;
  EXPECT_TRUE(set.LoadTile(0, &shard).ok());

  ShardCheckReport report;
  ASSERT_TRUE(ValidateShardSet(dir, &report).ok());
  EXPECT_TRUE(report.Corrupt());
  EXPECT_EQ(report.tiles_corrupt, 1u);
  ASSERT_FALSE(report.issues.empty());
}

TEST_F(ShardIoTest, TableCorruptionFailsLoadAndValidate) {
  const std::string dir = Dir("table_corrupt");
  ASSERT_TRUE(Write(dir).ok());
  ShardSet set;
  ASSERT_TRUE(ShardSet::Open(dir, &set).ok());

  const std::string path = set.TilePath(0);
  std::vector<uint8_t> file = ReadFile(path);
  ASSERT_GT(file.size(), 48u);
  file[44] ^= 0x01;  // inside the first segment-table entry
  WriteFile(path, file);

  LoadedShard shard;
  const Status status = set.LoadTile(0, &shard);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kDataLoss);

  ShardCheckReport report;
  ASSERT_TRUE(ValidateShardSet(dir, &report).ok());
  EXPECT_TRUE(report.Corrupt());
}

TEST_F(ShardIoTest, TruncatedShardFailsLoad) {
  const std::string dir = Dir("truncated");
  ASSERT_TRUE(Write(dir).ok());
  ShardSet set;
  ASSERT_TRUE(ShardSet::Open(dir, &set).ok());

  const std::string path = set.TilePath(0);
  std::vector<uint8_t> file = ReadFile(path);
  ASSERT_GT(file.size(), 4096u);
  file.resize(file.size() / 2);
  WriteFile(path, file);

  LoadedShard shard;
  const Status status = set.LoadTile(0, &shard);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kDataLoss);
}

TEST_F(ShardIoTest, ManifestCorruptionRejectsOpen) {
  const std::string dir = Dir("manifest_corrupt");
  ASSERT_TRUE(Write(dir).ok());
  const std::string manifest = dir + "/manifest.stj";
  std::vector<uint8_t> file = ReadFile(manifest);
  ASSERT_GT(file.size(), 32u);
  file[file.size() - 1] ^= 0x80;  // payload byte — frame checksum must trip
  WriteFile(manifest, file);

  ShardSet set;
  const Status status = ShardSet::Open(dir, &set);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kDataLoss);
}

TEST_F(ShardIoTest, MissingShardSetIsNotFound) {
  ShardSet set;
  const Status status = ShardSet::Open(Dir("does_not_exist"), &set);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
}

TEST_F(ShardIoTest, ResolveShardSetDirAcceptsDirAndManifestPath) {
  const std::string dir = Dir("resolve");
  ASSERT_TRUE(Write(dir).ok());
  std::string resolved;
  EXPECT_TRUE(ResolveShardSetDir(dir, &resolved));
  EXPECT_EQ(resolved, dir);
  EXPECT_TRUE(ResolveShardSetDir(dir + "/manifest.stj", &resolved));
  EXPECT_EQ(resolved, dir);
  EXPECT_FALSE(ResolveShardSetDir(Dir("resolve_missing"), &resolved));
}

// The parallel writer: every file byte-identical to the one-thread
// writer's, at more threads than tiles too.
TEST_F(ShardIoTest, ParallelWriterFilesAreByteIdenticalAtEveryThreadCount) {
  const std::vector<Box> mbrs = scenario_.r.Mbrs();
  std::vector<uint64_t> units(mbrs.size());
  for (size_t i = 0; i < units.size(); ++i) {
    units[i] = scenario_.r.objects[i].geometry.VertexCount();
  }
  PartitionOptions poptions;
  poptions.target_tiles = 6;
  const TilePartition partition =
      BuildCostBalancedPartition(mbrs, units, poptions);
  ASSERT_GE(partition.Tiles(), 4u);

  const auto write = [&](unsigned threads, ShardWriteStats* stats) {
    const std::string dir = Dir("parallel_" + std::to_string(threads));
    std::filesystem::remove_all(dir);
    EXPECT_TRUE(WriteShardSet(dir, partition.grid, partition.tile_begin,
                              partition.entries, partition.tile_units,
                              scenario_.r.objects, cstore_, stats, threads)
                    .ok());
    return dir;
  };
  ShardWriteStats serial_stats;
  const std::string serial = write(1, &serial_stats);
  EXPECT_EQ(serial_stats.tiles, partition.Tiles());
  for (const unsigned threads : {2u, 4u, 8u}) {
    ShardWriteStats stats;
    const std::string dir = write(threads, &stats);
    EXPECT_EQ(stats.tiles, serial_stats.tiles) << threads;
    EXPECT_EQ(stats.bytes_written, serial_stats.bytes_written) << threads;
    EXPECT_EQ(ReadFile(dir + "/manifest.stj"),
              ReadFile(serial + "/manifest.stj"))
        << threads;
    for (uint32_t t = 0; t < partition.Tiles(); ++t) {
      char name[32];
      std::snprintf(name, sizeof name, "/tile_%06u.shard", t);
      const std::vector<uint8_t> bytes = ReadFile(dir + name);
      EXPECT_FALSE(bytes.empty()) << name;
      EXPECT_EQ(bytes, ReadFile(serial + name)) << threads << name;
    }
  }
}

// A directory squatting two tiles' file names: the Status names the lower
// tile at every thread count, and no manifest marks the set complete.
TEST_F(ShardIoTest, ParallelWriterFailureNamesLowestTileAndWritesNoManifest) {
  ASSERT_GE(partition_.Tiles(), 4u);
  for (const unsigned threads : {1u, 4u}) {
    const std::string dir = Dir("squatted_" + std::to_string(threads));
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir + "/tile_000003.shard");
    std::filesystem::create_directories(dir + "/tile_000001.shard");
    ShardWriteStats stats;
    stats.tiles = 99;
    const Status status =
        WriteShardSet(dir, partition_.grid, partition_.tile_begin,
                      partition_.entries, partition_.tile_units,
                      scenario_.r.objects, cstore_, &stats, threads);
    ASSERT_FALSE(status.ok()) << threads;
    EXPECT_EQ(status.code(), StatusCode::kIoError) << threads;
    EXPECT_EQ(status.file(), dir + "/tile_000001.shard") << threads;
    EXPECT_FALSE(std::filesystem::exists(dir + "/manifest.stj")) << threads;
    EXPECT_EQ(stats.tiles, 99u) << "stats are written only on success";
    ShardSet set;
    EXPECT_EQ(ShardSet::Open(dir, &set).code(), StatusCode::kNotFound);
  }
}

TEST(MappedFileTest, MissingFileIsNotFound) {
  MappedFile map;
  const Status status =
      MappedFile::Open(std::string(::testing::TempDir()) + "/no_such_file",
                       &map);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace stj
