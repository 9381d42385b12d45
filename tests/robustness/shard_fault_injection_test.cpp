#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "src/join/partitioner.h"
#include "src/raster/april.h"
#include "src/raster/april_compressed.h"
#include "src/raster/shard_io.h"
#include "src/util/rng.h"
#include "tests/robustness/corrupter.h"
#include "tests/test_support.h"

// Corrupted count fields inside a shard tile's geometry blob. LoadTile
// verifies only the structural layer (payload checksums are the audit's
// job), so the geometry parser itself must bound every count it reads by the
// bytes left in the record: a corrupt count is a DataLoss status, never an
// abort or an allocation out of proportion to the file.

namespace stj {
namespace {

// Layout per shard_io.h: 40-byte header, then 32-byte segment-table entries
// of { u32 kind | u32 pad | u64 offset | u64 bytes | u64 fnv }.
uint64_t SegmentOffset(const std::string& file, uint32_t kind) {
  constexpr size_t kHeader = 40, kEntry = 32;
  for (size_t e = 0; e < shard::kNumSegments; ++e) {
    const size_t at = kHeader + e * kEntry;
    uint32_t k = 0;
    std::memcpy(&k, file.data() + at, sizeof(k));
    if (k != kind) continue;
    uint64_t offset = 0;
    std::memcpy(&offset, file.data() + at + 8, sizeof(offset));
    return offset;
  }
  ADD_FAILURE() << "segment kind " << kind << " missing";
  return 0;
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

}  // namespace
}  // namespace stj
