#include "src/datasets/dataset_io.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <string_view>
#include <thread>
#include <utility>

#include "src/geometry/validate.h"
#include "src/geometry/wkt.h"
#include "src/util/check.h"
#include "src/util/parallel_for.h"

namespace stj {

namespace {

/// Read granularity of a range reader; a line longer than this grows the
/// reader's buffer to hold it.
constexpr size_t kReadBlock = size_t{1} << 18;

/// Largest byte range LoadWktDataset gives one worker at a time. It bounds
/// the staging buffers: a wave of ranges holds at most this many WKT bytes
/// per worker, about 40% of that as flat vertices.
constexpr uint64_t kMaxLoadRangeBytes = uint64_t{16} << 20;

/// A vertex takes at least this many bytes of WKT ("x y,"). Each worker's
/// vertex buffer is reserved once for the worst case of the largest range,
/// kMaxLoadRangeBytes / kMinWktBytesPerVertex vertices (64 MiB of address
/// space, the part a range does not fill never touched), whatever the
/// file's size: it never reallocates, and every load leaves the allocator
/// in the same state. Buffers grown by doubling, or sized to small ranges,
/// moved glibc's dynamic mmap threshold when freed, and with it the join's
/// memory: buildings-parks join_rss_mb read 77–78 MB, or 8–27 MB, against
/// the serial loader's 61–66 (DESIGN.md §7).
constexpr uint64_t kMinWktBytesPerVertex = 4;

void RecordIssue(const LoadOptions& options, LoadReport* report, uint64_t line,
                 LineIssue::Action action, std::string reason) {
  if (report == nullptr) return;
  if (report->issues.size() < options.max_issues) {
    report->issues.push_back(LineIssue{line, action, std::move(reason)});
  } else {
    ++report->issues_dropped;
  }
}

/// Streams the lines one byte range [begin, end) of a file owns: those whose
/// first byte lies in the range. A line is what std::getline yields — the
/// bytes before a '\n' — so a last line without '\n' counts and the empty
/// tail after a final '\n' does not. The last owned line may run past
/// `end`; it is read to its '\n'.
class RangeLineReader {
 public:
  RangeLineReader(const std::string& path, uint64_t begin, uint64_t end)
      : in_(path, std::ios::binary), buf_(kReadBlock), end_(end) {
    if (!in_.is_open()) {
      bad_ = true;
      return;
    }
    if (begin == 0) return;
    // A line starts at `begin` exactly when byte begin-1 is a '\n', so in
    // every case the first owned line starts after the first '\n' at or
    // after begin-1.
    in_.seekg(static_cast<std::streamoff>(begin - 1));
    offset_ = begin - 1;
    SkipPastNewline();
  }

  /// The next owned line, valid until the following call. False at the end
  /// of the range or on a read error (bad()).
  bool Next(std::string_view* line) {
    if (bad_ || offset_ + pos_ >= end_) return false;
    size_t scanned = pos_;
    for (;;) {
      const void* nl = std::memchr(buf_.data() + scanned, '\n', len_ - scanned);
      if (nl != nullptr) {
        const size_t at = static_cast<size_t>(static_cast<const char*>(nl) -
                                              buf_.data());
        *line = std::string_view(buf_.data() + pos_, at - pos_);
        pos_ = at + 1;
        return true;
      }
      if (eof_) {
        if (pos_ == len_) return false;
        *line = std::string_view(buf_.data() + pos_, len_ - pos_);
        pos_ = len_;
        return true;
      }
      Compact();
      scanned = len_;
      if (!Fill()) return false;
    }
  }

  bool opened() const { return in_.is_open(); }
  bool bad() const { return bad_; }

 private:
  /// Appends the next block to the buffer; false on a read error.
  bool Fill() {
    const size_t want = buf_.size() - len_;
    in_.read(buf_.data() + len_, static_cast<std::streamsize>(want));
    const auto got = static_cast<size_t>(in_.gcount());
    len_ += got;
    if (in_.bad()) {
      bad_ = true;
      return false;
    }
    if (got < want) eof_ = true;
    return true;
  }

  /// Moves the unconsumed bytes to the front, doubling the buffer when a
  /// single line already fills it.
  void Compact() {
    if (pos_ != 0) {
      std::memmove(buf_.data(), buf_.data() + pos_, len_ - pos_);
      offset_ += pos_;
      len_ -= pos_;
      pos_ = 0;
    }
    if (len_ == buf_.size()) buf_.resize(buf_.size() * 2);
  }

  void SkipPastNewline() {
    while (Fill()) {
      const void* nl = std::memchr(buf_.data(), '\n', len_);
      if (nl != nullptr) {
        pos_ = static_cast<size_t>(static_cast<const char*>(nl) -
                                   buf_.data()) +
               1;
        return;
      }
      offset_ += len_;
      len_ = 0;
      if (eof_) return;
    }
  }

  std::ifstream in_;
  std::vector<char> buf_;
  uint64_t end_;
  uint64_t offset_ = 0;  ///< File offset of buf_[0].
  size_t pos_ = 0;       ///< Start of the next line in buf_.
  size_t len_ = 0;       ///< Bytes held in buf_.
  bool eof_ = false;
  bool bad_ = false;
};

/// What one worker made of its byte range. Line numbers in `report` and
/// `error_line` are local: 1 is the range's first line.
struct RangeResult {
  PolygonBuffer polygons;
  uint64_t lines = 0;  ///< Owned lines seen, comments and blank lines too.
  LoadReport report;   ///< Issues capped at LoadOptions::max_issues.
  Status error;        ///< The range's first failure; parsing stopped there.
  uint64_t error_line = 0;

  /// Empties the result for the next range, keeping the buffer's capacity.
  void Reset() {
    polygons.Truncate(PolygonBuffer::Cursor{});
    lines = 0;
    report = LoadReport{};
    error = Status::Ok();
    error_line = 0;
  }
};

/// Parses, repairs and validates one line into \p out — the loader's per-line
/// contract, run by each worker over its own lines. Returns false when the
/// line stops the load (strict mode).
bool LoadLine(std::string_view line, const LoadOptions& options,
              bool keep_issues, RangeResult* out) {
  const uint64_t line_number = out->lines;
  if (line.empty() || line[0] == '#') return true;
  const bool permissive = options.mode == LoadMode::kPermissive;
  LoadReport* report = &out->report;
  LoadReport* issues = keep_issues ? report : nullptr;
  ++report->lines;

  const PolygonBuffer::Cursor mark = out->polygons.End();
  if (Status st = ParseWktPolygon(line, &out->polygons); !st.ok()) {
    if (!permissive) {
      RecordIssue(options, issues, line_number, LineIssue::Action::kRejected,
                  st.message());
      out->error = std::move(st);
      out->error_line = line_number;
      return false;
    }
    ++report->skipped;
    RecordIssue(options, issues, line_number, LineIssue::Action::kSkipped,
                st.message());
    return true;
  }
  if (!permissive && !options.validate) {
    ++report->accepted;
    return true;
  }

  // Structural soundness: strict mode accepts whatever parses (validation
  // is opt-in below); permissive mode repairs what it can and skips the
  // rest so one mangled row never discards the dataset. Both need the
  // polygon as an object; it is a temporary, the buffer keeps the result.
  PolygonBuffer::Cursor at = mark;
  Polygon polygon = out->polygons.Extract(&at);
  bool was_repaired = false;
  std::string repairs;
  if (permissive) {
    Polygon repaired;
    switch (RepairPolygon(polygon, &repaired, &repairs)) {
      case RepairOutcome::kUnchanged:
        break;
      case RepairOutcome::kRepaired:
        polygon = std::move(repaired);
        was_repaired = true;
        break;
      case RepairOutcome::kUnrepairable:
        out->polygons.Truncate(mark);
        ++report->skipped;
        RecordIssue(options, issues, line_number, LineIssue::Action::kSkipped,
                    "degenerate outer ring (fewer than 3 distinct vertices "
                    "or zero area)");
        return true;
    }
  }

  if (options.validate) {
    const ValidationResult validity = ValidatePolygon(polygon);
    if (!validity.valid) {
      out->polygons.Truncate(mark);
      Status error = Status::InvalidArgument("invalid polygon: " +
                                             validity.reason);
      if (!permissive) {
        out->error = std::move(error);
        out->error_line = line_number;
        return false;
      }
      ++report->skipped;
      RecordIssue(options, issues, line_number, LineIssue::Action::kSkipped,
                  error.message());
      return true;
    }
  }

  if (was_repaired) {
    out->polygons.Truncate(mark);
    out->polygons.Append(polygon);
    ++report->repaired;
    RecordIssue(options, issues, line_number, LineIssue::Action::kRepaired,
                repairs);
  } else {
    ++report->accepted;
  }
  return true;
}

/// Stands for the size of a file that is not regular (a pipe, a device, a
/// directory): it has no byte ranges to split, so one worker reads it front
/// to back, as std::getline would.
constexpr uint64_t kUnknownSize = UINT64_MAX;

/// The size of \p path in \p bytes (kUnknownSize when the file is not
/// regular); NotFound when there is no such file. It is not opened here: a
/// pipe must be opened once only, by the worker that reads it.
Status FileSize(const std::string& path, uint64_t* bytes) {
  std::error_code ec;
  const std::filesystem::file_status status =
      std::filesystem::status(path, ec);
  if (ec || !std::filesystem::exists(status)) {
    return Status::NotFound("cannot open dataset file").WithFile(path);
  }
  *bytes = kUnknownSize;
  if (std::filesystem::is_regular_file(status)) {
    const uintmax_t size = std::filesystem::file_size(path, ec);
    if (!ec) *bytes = size;
  }
  return Status::Ok();
}

/// Parses ranges [bounds[first], bounds[first + slots->size()]) of \p path,
/// one worker each, range first + k into (*slots)[k].
void ParseWave(const std::string& path, const LoadOptions& options,
               bool keep_issues, const std::vector<uint64_t>& bounds,
               size_t first, std::vector<RangeResult>* slots) {
  const auto parse_range = [&](size_t k) {
    RangeResult* part = &(*slots)[k];
    part->polygons.ReserveVertices(kMaxLoadRangeBytes / kMinWktBytesPerVertex);
    RangeLineReader reader(path, bounds[first + k], bounds[first + k + 1]);
    if (!reader.opened()) {
      part->error = Status::NotFound("cannot open dataset file");
      return;
    }
    std::string_view line;
    while (reader.Next(&line)) {
      ++part->lines;
      if (!LoadLine(line, options, keep_issues, part)) return;
    }
    if (reader.bad()) {
      part->error = Status::IoError("read error");
      part->error_line = part->lines;
    }
  };
  const size_t count = slots->size();
  internal::RunChunks(static_cast<unsigned>(count), count,
                      [&](unsigned, size_t begin, size_t end) {
                        for (size_t k = begin; k < end; ++k) parse_range(k);
                      });
}

/// The loader proper: the ranges [bounds[r], bounds[r+1]) are parsed in
/// waves of \p wave_width workers, and each wave is merged on the calling
/// thread, in file order, before the next starts. The workers' staging
/// buffers are reused from wave to wave, so they hold at most one wave of
/// the file at any time.
Status LoadRanges(const std::string& path, const LoadOptions& options,
                  const std::vector<uint64_t>& bounds, size_t wave_width,
                  Dataset* out, LoadReport* report) {
  const size_t ranges = bounds.size() - 1;
  LoadReport merged;
  uint64_t line_base = 0;
  uint32_t id = 0;
  std::vector<RangeResult> slots;
  for (size_t first = 0; first < ranges; first += wave_width) {
    slots.resize(std::min(wave_width, ranges - first));
    for (RangeResult& slot : slots) slot.Reset();
    ParseWave(path, options, report != nullptr, bounds, first, &slots);

    // Counters and issues up to the first failure, whose local line number
    // becomes a file line number here.
    for (RangeResult& part : slots) {
      merged.lines += part.report.lines;
      merged.accepted += part.report.accepted;
      merged.repaired += part.report.repaired;
      merged.skipped += part.report.skipped;
      for (LineIssue& issue : part.report.issues) {
        RecordIssue(options, &merged, line_base + issue.line, issue.action,
                    std::move(issue.reason));
      }
      merged.issues_dropped += part.report.issues_dropped;
      if (!part.error.ok()) {
        out->objects.clear();
        if (report != nullptr) *report = std::move(merged);
        Status error = std::move(part.error);
        error.WithFile(path).WithLine(line_base + part.error_line);
        return error;
      }
      line_base += part.lines;
    }

    // Every polygon is allocated here, on the calling thread, each ring
    // once at its exact size.
    for (const RangeResult& part : slots) {
      PolygonBuffer::Cursor at;
      for (size_t i = 0; i < part.polygons.Size(); ++i) {
        out->objects.push_back(SpatialObject{id++, part.polygons.Extract(&at)});
      }
    }
  }
  if (report != nullptr) *report = std::move(merged);
  return Status::Ok();
}

/// Resets the outputs, sizes the file and runs LoadRanges over it: split at
/// \p cuts (clamped to the file size) in waves of LoadOptions::num_threads
/// ranges (0: one wave), or, with \p cuts null, into equal ranges of at
/// most kMaxLoadRangeBytes in waves of UsefulLoadThreads. A file that is
/// not regular is one range.
Status LoadSplit(const std::string& path, const std::string& name,
                 const LoadOptions& options, const std::vector<uint64_t>* cuts,
                 Dataset* out, LoadReport* report) {
  out->objects.clear();
  out->name = name;
  if (report != nullptr) *report = LoadReport{};
  uint64_t size = 0;
  if (Status st = FileSize(path, &size); !st.ok()) return st;
  std::vector<uint64_t> bounds = {0};
  size_t wave_width = options.num_threads;
  if (size == kUnknownSize) {
    wave_width = 1;
  } else if (cuts == nullptr) {
    wave_width = UsefulLoadThreads(size, options.num_threads);
    const uint64_t wave_bytes = wave_width * kMaxLoadRangeBytes;
    const uint64_t ranges = wave_width * ((size + wave_bytes - 1) / wave_bytes);
    for (uint64_t r = 1; r < ranges; ++r) bounds.push_back(size * r / ranges);
  } else {
    STJ_CHECK_MSG(std::is_sorted(cuts->begin(), cuts->end()),
                  "load range cuts must be ascending");
    for (const uint64_t cut : *cuts) bounds.push_back(std::min(cut, size));
    if (wave_width == 0) wave_width = bounds.size();
  }
  bounds.push_back(size);
  return LoadRanges(path, options, bounds, wave_width, out, report);
}

}  // namespace

unsigned UsefulLoadThreads(uint64_t file_bytes, unsigned cap) {
  if (cap == 0) cap = std::max(1u, std::thread::hardware_concurrency());
  return static_cast<unsigned>(std::min<uint64_t>(
      cap, std::max<uint64_t>(1, file_bytes / kMinLoadBytesPerWorker)));
}

bool SaveWktDataset(const std::string& path, const Dataset& dataset) {
  std::ofstream out(path);
  if (!out.is_open()) return false;
  out << "# stjoin dataset: " << dataset.name << " — " << dataset.description
      << "\n";
  for (const SpatialObject& object : dataset.objects) {
    out << ToWkt(object.geometry) << "\n";
  }
  out.flush();
  return out.good();
}

Status LoadWktDataset(const std::string& path, const std::string& name,
                      const LoadOptions& options, Dataset* out,
                      LoadReport* report) {
  return LoadSplit(path, name, options, nullptr, out, report);
}

bool LoadWktDataset(const std::string& path, const std::string& name,
                    Dataset* out) {
  return LoadWktDataset(path, name, LoadOptions{}, out).ok();
}

namespace internal {

Status LoadWktDatasetRanges(const std::string& path, const std::string& name,
                            const LoadOptions& options,
                            const std::vector<uint64_t>& cuts, Dataset* out,
                            LoadReport* report) {
  return LoadSplit(path, name, options, &cuts, out, report);
}

}  // namespace internal

}  // namespace stj
