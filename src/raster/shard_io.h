#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/geometry/polygon.h"
#include "src/geometry/tile_grid.h"
#include "src/raster/april_compressed.h"
#include "src/util/mmap_file.h"
#include "src/util/status.h"
#include "src/util/thread_annotations.h"

namespace stj {

/// Tile-sharded, mmap-backed persistence of one dataset — the out-of-core
/// storage layer (ROADMAP item 2). A *shard set* is a directory holding one
/// manifest plus one shard file per tile of a TileGrid partition
/// (src/join/partitioner.h computes the grid; this layer only persists it).
///
/// Layout (all integers native-endian, like the APRIL v2/v3 formats):
///
///   <dir>/manifest.stj
///     "SHDM" magic | u32 version | u64 payload_bytes | u64 fnv1a64(payload)
///     | payload — the v2/v3 framed+checksummed convention. The payload
///     carries the dataset object count, the TileGrid (domain, columns,
///     rows, boundary runs) and per tile: object count, computational
///     units, shard file byte size.
///
///   <dir>/tile_NNNNNN.shard      (one per tile, NNNNNN = tile id)
///     header   "SHRD" | u32 version | u64 tile_id | u64 object_count
///              | u32 segment_count | u32 reserved | u64 table_fnv
///     table    segment_count x { u32 kind | u32 reserved | u64 offset
///              | u64 bytes | u64 fnv1a64(payload) }
///     payload  one span per segment, each offset page-aligned (4096)
///
/// Segments persist the tile's slice of the dataset: the global object
/// indices, the per-object MBRs, the serialised geometry (an offset index
/// plus a ring/vertex blob), and the nine CSR arrays of the tile's
/// CompressedAprilStore written verbatim. Page alignment makes every typed
/// array directly addressable in the mapping, so LoadTile serves the APRIL
/// arenas *zero-copy*: the tile's CompressedAprilStore is
/// CompressedAprilStore::FromSpans over pointers into the mapping, pages
/// fault in only when the filter actually touches a block, and evicting the
/// shard is munmap — no deserialisation on either side of the cache.
/// Geometry is lazy too: LoadTile copies the ids and MBRs, walks each
/// geometry record's counts, and leaves every polygon encoded until
/// refinement asks for it (ShardGeometry below).
///
/// Integrity: the manifest payload and each segment carry fnv1a64
/// checksums, and the shard header checksums its own segment table. The
/// join path verifies only the structural layer it must trust (header,
/// table, array bounds/CSR tails) — checksumming segment payloads at load
/// would fault every page in and defeat laziness. ValidateShardSet (the
/// aprilcheck path) does read and verify every payload checksum.
namespace shard {

/// Version 2 added kObjectMbrs; version 1 files fail with kDataLoss.
inline constexpr uint32_t kVersion = 2;
inline constexpr size_t kPageAlign = 4096;

/// Segment kinds of a shard file, in table order.
enum SegmentKind : uint32_t {
  kObjectIds = 1,      ///< u32[object_count] global dataset indices.
  kGeometryIndex = 2,  ///< u64[object_count+1] offsets into kGeometryBlob.
  kGeometryBlob = 3,   ///< Per object: u32 id, u32 rings, per ring u32
                       ///< vertex count + (f64 x, f64 y) run.
  kAprilHeaders = 4,   ///< IntervalBlockHeader[hdr_begin[n]].
  kAprilBytes = 5,     ///< uint8[byte_begin[n]] codec payload.
  kAprilHdrBegin = 6,  ///< u64[n+1].
  kAprilPHdrBegin = 7, ///< u64[n].
  kAprilByteBegin = 8, ///< u64[n+1].
  kAprilPByteBegin = 9,///< u64[n].
  kAprilCIntervals = 10,  ///< u64[n].
  kAprilPIntervals = 11,  ///< u64[n].
  kAprilUsable = 12,      ///< u8[n].
  kObjectMbrs = 13,       ///< Box[n], each equal to the record's Bounds().
};
inline constexpr uint32_t kNumSegments = 13;

}  // namespace shard

/// Per-tile accounting carried by the manifest.
struct ShardTileInfo {
  uint64_t object_count = 0;
  uint64_t units = 0;       ///< Computational units (partitioner weights).
  uint64_t file_bytes = 0;  ///< Size of the tile's shard file.
};

/// Writer telemetry.
struct ShardWriteStats {
  uint32_t tiles = 0;
  uint64_t bytes_written = 0;  ///< Shard files + manifest.
};

/// Persists one dataset as a shard set under \p dir (created if needed;
/// existing manifest/shard files are overwritten). \p tile_begin/\p entries
/// are the partitioner's CSR assignment over \p grid (entries hold dataset
/// indices; an object appears under every tile its MBR overlaps), \p
/// tile_units the per-tile unit totals, and \p store the dataset's
/// compressed APRIL storage, index-aligned with \p objects. Per-tile APRIL
/// slices are copied verbatim (never re-encoded), so a loaded tile record
/// is byte-identical to the dataset record it came from.
///
/// Tiles are serialised and written on \p num_threads workers
/// (0 = hardware concurrency), each tile streamed to its file without an
/// assembled copy. Every file is byte-identical at every thread count. On
/// failure the Status is that of the lowest-index failing tile, and the
/// manifest, written last and only once every tile succeeded, is absent.
[[nodiscard]] Status WriteShardSet(const std::string& dir, const TileGrid& grid,
                     const std::vector<uint32_t>& tile_begin,
                     const std::vector<uint32_t>& entries,
                     const std::vector<uint64_t>& tile_units,
                     const std::vector<SpatialObject>& objects,
                     const CompressedAprilStore& store,
                     ShardWriteStats* stats = nullptr,
                     unsigned num_threads = 0);

/// The geometry column of one resident shard, in local order. The MBRs are
/// copied at load (the MBR filter reads every one); each polygon stays
/// encoded in the mapping until Object(i) first asks for it, and is then
/// decoded once and kept for the rest of the load. Refinement reaches only
/// the few pairs the filters cannot decide, so most polygons of a tile are
/// never decoded at all.
///
/// Thread safety: Object() may be called concurrently (the refinement
/// workers of one task share the shard). One std::once_flag per object
/// makes the first caller decode while the others wait, and all of them get
/// the same instance, whose address is stable until the shard is destroyed.
/// Decoded objects are never modified afterwards, so readers need no lock.
///
/// LoadTile walked every record with the decoder's own bounds checks, so a
/// decode of an unchanged mapping cannot fail; one that does is an
/// invariant violation (checked), not input handling.
class ShardGeometry {
 public:
  size_t Size() const { return mbrs_.size(); }
  /// The MBR column (the record's Bounds(), read from kObjectMbrs).
  const std::vector<Box>& Mbrs() const { return mbrs_; }
  const Box& Bounds(size_t i) const { return mbrs_[i]; }
  /// Object \p i (id and polygon), decoded on first use.
  const SpatialObject& Object(size_t i) const;
  /// Objects decoded so far, and their total vertex count.
  uint64_t ObjectsDecoded() const;
  uint64_t VerticesDecoded() const;

 private:
  friend class ShardSet;

  struct Slot {
    std::once_flag once;
    SpatialObject object;
  };
  /// Heap-held so LoadedShard stays movable (once_flag and atomics are not).
  struct Decoded {
    explicit Decoded(size_t n) : slots(std::make_unique<Slot[]>(n)) {}
    std::unique_ptr<Slot[]> slots;
    STJ_ATOMIC_DOC(
        "decode telemetry; the decoding thread adds inside call_once, the "
        "scheduler reads after the task's workers joined (default order; "
        "one add per decoded object, so the ordering costs nothing)");
    std::atomic<uint64_t> objects{0};
    STJ_ATOMIC_DOC("as `objects`: one add per decode, read after the join");
    std::atomic<uint64_t> vertices{0};
  };

  const uint8_t* blob_ = nullptr;     ///< kGeometryBlob, in the mapping.
  const uint64_t* index_ = nullptr;   ///< kGeometryIndex, in the mapping.
  std::vector<Box> mbrs_;
  std::unique_ptr<Decoded> decoded_;
};

/// One tile, resident: the mapping plus the columns read off it. The cstore
/// and the geometry column reference the mapping (zero-copy) — LoadedShard
/// must be kept alive as one unit, which the scheduler's shard cache does.
struct LoadedShard {
  uint32_t tile = 0;
  MappedFile map;
  std::vector<uint32_t> ids;     ///< Global dataset indices, ascending.
  ShardGeometry geometry;        ///< MBRs plus decode-on-first-use polygons.
  CompressedAprilStore cstore;   ///< Mapped (FromSpans) APRIL slice.
  /// Cache/budget footprint: mapped bytes plus the heap a fully decoded
  /// tile would hold (ids, MBRs, and the geometry blob's size standing for
  /// its decoded polygons). Charged in full at load, whatever refinement
  /// later decodes, so cache admission and eviction do not depend on which
  /// pairs reached refinement. What the scheduler charges against
  /// ExecContext::TryCharge.
  size_t resident_bytes = 0;
  /// Bytes a load copies or reads outright: header, table, ids, MBRs, the
  /// geometry index and the APRIL offset tables. The geometry blob is not
  /// copied — the load reads only each record's ring and vertex counts —
  /// and the APRIL payload is not read at all; both fault in per touched
  /// page.
  uint64_t eager_bytes = 0;
};

/// Read access to a shard set: the manifest is parsed once, tiles are
/// mapped on demand. Open() trusts only what it verifies (magic, version,
/// manifest frame checksum, grid/tile-table shape).
class ShardSet {
 public:
  /// Parses and verifies <dir>/manifest.stj.
  [[nodiscard]] static Status Open(const std::string& dir, ShardSet* out);

  const std::string& Dir() const { return dir_; }
  const TileGrid& Grid() const { return grid_; }
  uint32_t Tiles() const { return static_cast<uint32_t>(tiles_.size()); }
  uint64_t TotalObjects() const { return total_objects_; }
  const ShardTileInfo& Tile(uint32_t t) const { return tiles_[t]; }

  /// Sum of all shard file sizes — the "all resident" byte figure cache
  /// budgets are expressed against.
  [[nodiscard]] uint64_t TotalShardBytes() const;

  std::string TilePath(uint32_t tile) const;

  /// Maps tile \p t, copies its ids and MBRs, and walks every geometry
  /// record's counts (no vertex is copied). Structural verification only
  /// (see file comment); kDataLoss on any mismatch, malformed geometry
  /// records included.
  [[nodiscard]] Status LoadTile(uint32_t t, LoadedShard* out) const;

 private:
  std::string dir_;
  TileGrid grid_;
  std::vector<ShardTileInfo> tiles_;
  uint64_t total_objects_ = 0;
};

/// aprilcheck's view of a shard set audit.
struct ShardCheckReport {
  uint32_t tiles = 0;          ///< Tiles the manifest declares.
  uint32_t tiles_corrupt = 0;  ///< Tiles with any failed check.
  uint64_t segments_checked = 0;
  uint64_t bytes_checked = 0;
  /// Human-readable findings, capped (further findings only count).
  std::vector<std::string> issues;
  uint64_t issues_dropped = 0;

  bool Corrupt() const { return tiles_corrupt != 0; }
};

/// Full integrity audit of a shard set: manifest frame, every tile's
/// header + segment table, every segment's payload checksum, cross-checks
/// against the manifest (object counts, file sizes), and a decode of every
/// geometry record whose bounds must equal its stored MBR. Unlike
/// the join path this reads every byte. A non-ok Status means the manifest
/// itself was unreadable (structural failure); per-tile corruption is
/// reported through \p report, mirroring the v2/v3 record-isolation
/// behaviour at tile granularity.
[[nodiscard]] Status ValidateShardSet(const std::string& dir, ShardCheckReport* report);

/// True when \p path names a shard set the aprilcheck command should route
/// to ValidateShardSet: a directory containing manifest.stj (detected by
/// opening it — no platform directory APIs), or the manifest file itself.
/// \p dir receives the shard-set directory.
[[nodiscard]] bool ResolveShardSetDir(const std::string& path, std::string* dir);

}  // namespace stj
