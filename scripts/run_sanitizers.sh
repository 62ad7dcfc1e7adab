#!/usr/bin/env bash
# Sanitizer matrix for local runs and CI: builds and tests the repo under
# ASan+UBSan and TSan (plus the plain release build), failing on any
# sanitizer report. Mirrors .github/workflows/ci.yml so the matrix can be
# reproduced on a laptop with one command:
#
#   scripts/run_sanitizers.sh            # release + asan + tsan
#   scripts/run_sanitizers.sh asan       # one preset only
#
# The TSan leg narrows ctest to the concurrency and differential suites:
# they are the tests that actually exercise threads, and TSan's ~10x
# slowdown makes the full suite needlessly slow on small CI machines.
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="${JOBS:-$(nproc)}"
PRESETS=("${@:-release}")
if [[ $# -eq 0 ]]; then
  PRESETS=(release asan tsan)
fi

for preset in "${PRESETS[@]}"; do
  echo "=== [$preset] configure + build ==="
  cmake --preset "$preset"
  cmake --build --preset "$preset" -j "$JOBS"
  echo "=== [$preset] ctest ==="
  case "$preset" in
    tsan)
      ctest --preset "$preset" -j "$JOBS" \
        -R 'ConcurrencyTest|DifferentialTest|ChaosTest|NetServingTest.HandlerThreadsAreReapedAcrossQueries' ;;
    *)
      ctest --preset "$preset" -j "$JOBS" ;;
  esac
done
echo "sanitizer matrix passed: ${PRESETS[*]}"
