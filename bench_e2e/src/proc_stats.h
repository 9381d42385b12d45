// Process-level measurements read from the Linux /proc interface: CPU time,
// the resident-set high-water mark, and its reset.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

namespace bench_e2e {

/// User + system CPU seconds of the whole process (all threads).
inline double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// The /proc/self/status field \p key (e.g. "VmHWM:", a size in kB) in
/// MiB, or a negative value when it cannot be read.
inline double ReadStatusMb(const char* key) {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return -1.0;
  char line[256];
  double kb = -1.0;
  const size_t key_len = std::strlen(key);
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, key, key_len) == 0) {
      kb = std::strtod(line + key_len, nullptr);
      break;
    }
  }
  std::fclose(f);
  return kb < 0 ? -1.0 : kb / 1024.0;
}

/// Peak resident set (VmHWM) in MiB; negative when unreadable.
inline double ReadVmHwmMb() { return ReadStatusMb("VmHWM:"); }

/// Current resident set (VmRSS) in MiB; negative when unreadable.
inline double ReadVmRssMb() { return ReadStatusMb("VmRSS:"); }

/// Resets VmHWM to the current resident set by writing 5 to
/// /proc/self/clear_refs. Returns false when the file is not writable, in
/// which case a phase high-water mark cannot be measured.
inline bool ResetVmHwm() {
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  const bool wrote = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && wrote;
}

/// Returns freed heap pages to the kernel, so a phase high-water mark that
/// follows starts from what is actually live.
inline void TrimHeap() {
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
}

}  // namespace bench_e2e
