#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "src/join/partitioner.h"
#include "src/raster/april.h"
#include "src/raster/april_compressed.h"
#include "src/raster/shard_io.h"
#include "src/util/rng.h"
#include "tests/robustness/corrupter.h"
#include "tests/test_support.h"

// Corrupted shard tiles and manifests. LoadTile verifies only the structural
// layer (payload checksums are the audit's job), so the geometry walk must
// bound every count it reads by the bytes left in the record, and the shape
// checks must hold every typed segment to its exact size: a corrupt count,
// segment or version is a DataLoss status, never an abort or an allocation
// out of proportion to the file. Payload damage the load cannot see (a
// flipped MBR) is the audit's to flag.

namespace stj {
namespace {

// Layout per shard_io.h: 40-byte header (the u32 version at byte 4, the
// table checksum at byte 32), then 32-byte segment-table entries of
// { u32 kind | u32 pad | u64 offset | u64 bytes | u64 fnv }.
constexpr size_t kHeader = 40, kEntry = 32, kTableFnvAt = 32;

// Byte position of the table entry of segment `kind`.
size_t SegmentEntryAt(const std::string& file, uint32_t kind) {
  for (size_t e = 0; e < shard::kNumSegments; ++e) {
    const size_t at = kHeader + e * kEntry;
    uint32_t k = 0;
    std::memcpy(&k, file.data() + at, sizeof(k));
    if (k == kind) return at;
  }
  ADD_FAILURE() << "segment kind " << kind << " missing";
  return kHeader;
}

uint64_t SegmentOffset(const std::string& file, uint32_t kind) {
  uint64_t offset = 0;
  std::memcpy(&offset, file.data() + SegmentEntryAt(file, kind) + 8,
              sizeof(offset));
  return offset;
}

uint64_t SegmentBytes(const std::string& file, uint32_t kind) {
  uint64_t bytes = 0;
  std::memcpy(&bytes, file.data() + SegmentEntryAt(file, kind) + 16,
              sizeof(bytes));
  return bytes;
}

// Re-seals the segment table after an edit (FNV-1a64, as the format uses),
// so the damage reaches the checks behind the table checksum.
void ResealTable(std::string* file) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (size_t i = kHeader; i < kHeader + shard::kNumSegments * kEntry; ++i) {
    h ^= static_cast<uint8_t>((*file)[i]);
    h *= 0x100000001b3ULL;
  }
  std::memcpy(&(*file)[kTableFnvAt], &h, sizeof(h));
}

class ShardFaultInjectionTest : public ::testing::Test {
 protected:
  ShardFaultInjectionTest() {
    Rng rng(17);
    const RasterGrid grid(Box::Of(Point{0, 0}, Point{64, 64}), 6);
    const AprilBuilder builder(&grid);
    for (uint32_t i = 0; i < 4; ++i) {
      SpatialObject o;
      o.id = i;
      o.geometry = test::RandomBlob(
          &rng, Point{10.0 + 12.0 * i, 20.0 + 6.0 * i}, 5.0, 24);
      const AprilApproximation a = builder.Build(o.geometry);
      const AprilView view(a);
      store_.AppendEncoded(view.conservative, view.progressive);
      objects_.push_back(std::move(o));
    }
    std::vector<Box> mbrs;
    std::vector<uint64_t> units;
    for (const SpatialObject& o : objects_) {
      mbrs.push_back(o.geometry.Bounds());
      units.push_back(o.geometry.VertexCount());
    }
    PartitionOptions options;
    options.target_tiles = 1;
    partition_ = BuildCostBalancedPartition(mbrs, units, options);
  }

  std::string Dir() const {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    return std::string(::testing::TempDir()) + "/shard_fault_" +
           (info != nullptr ? info->name() : "unknown") + "_" +
           std::to_string(::getpid());
  }

  Status Write(const std::string& dir) {
    return WriteShardSet(dir, partition_.grid, partition_.tile_begin,
                         partition_.entries, partition_.tile_units, objects_,
                         store_);
  }

  // Writes the set, then overwrites tile 0 with `edit` applied to it.
  void WriteDamaged(const std::string& dir,
                    const std::function<void(std::string*)>& edit) {
    ASSERT_TRUE(Write(dir).ok());
    ShardSet set;
    ASSERT_TRUE(ShardSet::Open(dir, &set).ok());
    ASSERT_EQ(set.Tiles(), 1u);
    std::string file = test::ReadFileBytes(set.TilePath(0));
    edit(&file);
    test::WriteFileBytes(set.TilePath(0), file);
  }

  // Status of loading tile 0 of the set under `dir`.
  static Status LoadTile0(const std::string& dir) {
    ShardSet set;
    const Status open = ShardSet::Open(dir, &set);
    if (!open.ok()) return open;
    LoadedShard shard;
    return set.LoadTile(0, &shard);
  }

  std::vector<SpatialObject> objects_;
  CompressedAprilStore store_;
  TilePartition partition_;
};

// Regression: ParseObjectGeometry reserved `ring_count` rings before any
// bounds check, so an overwritten count aborted LoadTile with bad_alloc.
TEST_F(ShardFaultInjectionTest, CorruptRingCountIsDataLossNotAbort) {
  const std::string dir = Dir();
  ASSERT_TRUE(Write(dir).ok());
  ShardSet set;
  ASSERT_TRUE(ShardSet::Open(dir, &set).ok());
  ASSERT_EQ(set.Tiles(), 1u);

  const std::string path = set.TilePath(0);
  const std::string original = test::ReadFileBytes(path);
  const uint64_t blob = SegmentOffset(original, shard::kGeometryBlob);
  ASSERT_GT(blob, 0u);
  // The first record starts the blob: u32 id, then the u32 ring count.
  const size_t ring_count_at = static_cast<size_t>(blob) + 4;
  ASSERT_LE(ring_count_at + 4, original.size());
  uint32_t ring_count = 0;
  std::memcpy(&ring_count, original.data() + ring_count_at, 4);
  ASSERT_EQ(ring_count, objects_[0].geometry.RingCount());

  for (const uint32_t corrupt : {0xFFFFFFFFu, 0x40000000u, 1000000u}) {
    std::string damaged = original;
    std::memcpy(&damaged[ring_count_at], &corrupt, 4);
    test::WriteFileBytes(path, damaged);
    ShardSet reopened;
    ASSERT_TRUE(ShardSet::Open(dir, &reopened).ok());
    LoadedShard shard;
    const Status status = reopened.LoadTile(0, &shard);
    ASSERT_FALSE(status.ok()) << "ring count " << corrupt;
    EXPECT_EQ(status.code(), StatusCode::kDataLoss) << "ring count " << corrupt;
  }

  // The undamaged file still loads.
  test::WriteFileBytes(path, original);
  ShardSet reopened;
  ASSERT_TRUE(ShardSet::Open(dir, &reopened).ok());
  LoadedShard shard;
  EXPECT_TRUE(reopened.LoadTile(0, &shard).ok());
}

// The MBR column must be exactly one Box per object: a table entry claiming
// one Box less (re-sealed, so only the shape check can catch it) is
// DataLoss at load.
TEST_F(ShardFaultInjectionTest, ResizedMbrSegmentIsDataLoss) {
  const std::string dir = Dir();
  WriteDamaged(dir, [](std::string* file) {
    const size_t at = SegmentEntryAt(*file, shard::kObjectMbrs);
    const uint64_t bytes = SegmentBytes(*file, shard::kObjectMbrs) -
                           sizeof(Box);
    std::memcpy(&(*file)[at + 16], &bytes, sizeof(bytes));
    ResealTable(file);
  });
  const Status status = LoadTile0(dir);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kDataLoss);
  EXPECT_NE(status.message().find("expected"), std::string::npos)
      << status.message();
}

// A file cut inside the MBR segment fails the segment bounds check.
TEST_F(ShardFaultInjectionTest, TruncatedMbrSegmentIsDataLoss) {
  const std::string dir = Dir();
  WriteDamaged(dir, [](std::string* file) {
    const uint64_t offset = SegmentOffset(*file, shard::kObjectMbrs);
    const uint64_t bytes = SegmentBytes(*file, shard::kObjectMbrs);
    ASSERT_GT(bytes, sizeof(Box));
    file->resize(static_cast<size_t>(offset + bytes / 2));
  });
  const Status status = LoadTile0(dir);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kDataLoss);
}

// A flipped byte inside the MBR payload is invisible to the structural load
// (payloads are not checksummed there), but the audit flags the tile: the
// segment checksum and the MBR-versus-geometry check both trip.
TEST_F(ShardFaultInjectionTest, FlippedMbrByteLoadsButFailsValidation) {
  const std::string dir = Dir();
  WriteDamaged(dir, [](std::string* file) {
    const uint64_t offset = SegmentOffset(*file, shard::kObjectMbrs);
    (*file)[static_cast<size_t>(offset) + 3] ^= 0x10;  // min.x mantissa
  });
  EXPECT_TRUE(LoadTile0(dir).ok());

  ShardCheckReport report;
  ASSERT_TRUE(ValidateShardSet(dir, &report).ok());
  EXPECT_TRUE(report.Corrupt());
  EXPECT_EQ(report.tiles_corrupt, 1u);
  bool mbr_issue = false;
  for (const std::string& issue : report.issues) {
    mbr_issue = mbr_issue ||
                issue.find("differs from its geometry") != std::string::npos;
  }
  EXPECT_TRUE(mbr_issue) << "no MBR issue among " << report.issues.size();
}

// Version 1 files (no MBR segment) are refused with DataLoss, never read
// with the version 2 layout or aborted on.
TEST_F(ShardFaultInjectionTest, Version1FilesAreDataLossNotAbort) {
  const uint32_t v1 = 1;
  const std::string tile_dir = Dir() + "_tile";
  WriteDamaged(tile_dir, [v1](std::string* file) {
    std::memcpy(&(*file)[4], &v1, sizeof(v1));
  });
  Status status = LoadTile0(tile_dir);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kDataLoss);
  EXPECT_NE(status.message().find("unsupported shard version 1"),
            std::string::npos)
      << status.message();
  ShardCheckReport report;
  ASSERT_TRUE(ValidateShardSet(tile_dir, &report).ok());
  EXPECT_EQ(report.tiles_corrupt, 1u);

  // The manifest's version sits outside its payload checksum.
  const std::string manifest_dir = Dir() + "_manifest";
  ASSERT_TRUE(Write(manifest_dir).ok());
  const std::string manifest = manifest_dir + "/manifest.stj";
  std::string bytes = test::ReadFileBytes(manifest);
  std::memcpy(&bytes[4], &v1, sizeof(v1));
  test::WriteFileBytes(manifest, bytes);
  ShardSet set;
  status = ShardSet::Open(manifest_dir, &set);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kDataLoss);
  EXPECT_NE(status.message().find("unsupported manifest version 1"),
            std::string::npos)
      << status.message();
}

}  // namespace
}  // namespace stj
