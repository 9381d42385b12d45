// Span recording for the end-to-end benchmark: in-memory spans around the
// benchmark's calls into the library, exported as Chrome trace-event JSON
// (viewable in Perfetto or chrome://tracing) when the run ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace bench_e2e {

/// Nanoseconds on the steady clock since the first call in this process.
inline int64_t NowNs() {
  static const auto kOrigin = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - kOrigin)
      .count();
}

/// One closed span. `name` is "<layer>.<call>"; the layer (the src/ module
/// the call enters) becomes the Chrome trace category.
struct Span {
  const char* name = "";
  uint32_t tid = 0;
  int32_t id = 0;      ///< Index within its log.
  int32_t parent = -1; ///< Id of the span that caused it, -1 for roots.
  uint32_t parent_tid = 0;  ///< Thread whose log holds the parent.
  int64_t start_ns = 0;
  int64_t dur_ns = 0;
};

/// Spans of one thread. Not thread-safe: each worker owns one log.
class SpanLog {
 public:
  explicit SpanLog(uint32_t tid) : tid_(tid) {}

  /// Opens a span whose parent is the innermost open span of this log, or
  /// span \p parent of thread \p parent_tid when nothing is open (a
  /// worker's spans caused by a span of another thread). Returns its id.
  int32_t Open(const char* name, int32_t parent = -1,
               uint32_t parent_tid = 0) {
    const auto id = static_cast<int32_t>(spans_.size());
    Span span;
    span.name = name;
    span.tid = tid_;
    span.id = id;
    span.parent = open_.empty() ? parent : open_.back();
    span.parent_tid = open_.empty() ? parent_tid : tid_;
    span.start_ns = NowNs();
    spans_.push_back(span);
    open_.push_back(id);
    return id;
  }

  /// Closes span \p id (the innermost open one) and returns its duration.
  int64_t Close(int32_t id) {
    Span& span = spans_[static_cast<size_t>(id)];
    span.dur_ns = NowNs() - span.start_ns;
    open_.pop_back();
    return span.dur_ns;
  }

  const std::vector<Span>& Spans() const { return spans_; }
  void Reserve(size_t n) { spans_.reserve(n); }

 private:
  uint32_t tid_;
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
};

/// Times one call. With a null log it only reads the clock, so untraced
/// iterations pay two clock reads per call and record nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name)
      : log_(log), start_ns_(NowNs()) {
    if (log_ != nullptr) id_ = log_->Open(name);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ~ScopedSpan() { End(); }

  /// Closes the span (idempotent) and returns its duration in seconds.
  double End() {
    if (!open_) return seconds_;
    open_ = false;
    const int64_t dur =
        log_ != nullptr ? log_->Close(id_) : NowNs() - start_ns_;
    seconds_ = static_cast<double>(dur) * 1e-9;
    return seconds_;
  }

 private:
  SpanLog* log_;
  int64_t start_ns_;
  int32_t id_ = -1;
  bool open_ = true;
  double seconds_ = 0.0;
};

/// Writes every span of \p logs as Chrome trace-event JSON ("X" complete
/// events, microsecond timestamps). Span ids are made global by prefixing
/// the thread id, so parent links survive the merge. Returns false on I/O
/// error.
inline bool WriteChromeTrace(const std::string& path,
                             const std::vector<const SpanLog*>& logs,
                             const std::string& process_name) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out,
               "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"
               "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
               "\"args\":{\"name\":\"%s\"}}",
               process_name.c_str());
  for (const SpanLog* log : logs) {
    for (const Span& span : log->Spans()) {
      const std::string name(span.name);
      const size_t dot = name.find('.');
      const std::string layer =
          dot == std::string::npos ? name : name.substr(0, dot);
      std::fprintf(out,
                   ",\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                   "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,"
                   "\"args\":{\"id\":\"%u:%d\",\"parent\":\"%s\"}}",
                   name.c_str(), layer.c_str(), span.tid,
                   static_cast<double>(span.start_ns) * 1e-3,
                   static_cast<double>(span.dur_ns) * 1e-3, span.tid, span.id,
                   span.parent < 0 ? ""
                                   : (std::to_string(span.parent_tid) + ":" +
                                      std::to_string(span.parent))
                                         .c_str());
    }
  }
  std::fprintf(out, "\n]}\n");
  return std::fclose(out) == 0;
}

}  // namespace bench_e2e
