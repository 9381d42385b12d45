#!/usr/bin/env bash
# Builds and runs the test suite under the sanitizer presets defined in
# CMakePresets.json. Usage:
#
#   tools/sanitize.sh              # asan-ubsan, tsan, then invariants
#   tools/sanitize.sh asan-ubsan   # just one preset
#   tools/sanitize.sh tsan
#   tools/sanitize.sh invariants
#
# asan-ubsan runs the full suite; the tsan test preset restricts itself to
# the thread-heavy tests (parallel fan-out, degraded pipelines, progressive,
# the sharded join, the shard writer and the range-parallel WKT loader)
# where data races could actually hide — TSan slows everything ~10x and the
# single-threaded geometry tests cannot race. The invariants preset turns on
# the contract macros (STJ_DCHECK*) and the deep ValidateInvariants()
# structure validators inside the library, catching broken data-structure
# state that sanitizers cannot see (they check memory, not meaning).

set -euo pipefail
cd "$(dirname "$0")/.."

presets=("$@")
if [ ${#presets[@]} -eq 0 ]; then
  presets=(asan-ubsan tsan invariants)
fi

for preset in "${presets[@]}"; do
  echo "==== [$preset] configure ===="
  cmake --preset "$preset"
  echo "==== [$preset] build ===="
  cmake --build --preset "$preset" -j "$(nproc)"
  echo "==== [$preset] test ===="
  ctest --preset "$preset" -j "$(nproc)"
done

echo "sanitize: all presets clean"
