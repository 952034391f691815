#!/usr/bin/env bash
# Runs the tier-1 test suite under sanitizers, one separate build tree per
# sanitizer (build-address, build-thread, ...), so the regular build/ stays
# untouched. By default runs AddressSanitizer then ThreadSanitizer; pick a
# subset with e.g.
#   SNAPPER_SANITIZE=thread scripts/check.sh
#   SNAPPER_SANITIZE="address undefined" scripts/check.sh
# (CMakePresets.json exposes the same trees as asan/tsan/ubsan presets.)
#
# SNAPPER_SANITIZE=tidy runs clang-tidy (config: .clang-tidy) over every
# translation unit in compile_commands.json instead of a sanitizer pass.
# Requires clang-tidy on PATH — available in CI's clang leg; locally the
# command fails fast with a clear message if the tool is missing.
#
# SNAPPER_SANITIZE=analyze builds a Debug tree, where the runtime lock-order
# tracker (SNAPPER_LOCK_TRACKER) is armed by default, and runs its
# `analyze`-labelled ctest subset: the whole-program lock-order/determinism
# analyzer (scripts/snapper_analyze.py: fixture self-test and src/ pass, as
# the snapper_analyze_selftest / snapper_analyze_src tests) plus the runtime
# lock-tracker tests.
set -euo pipefail

cd "$(dirname "$0")/.."

SANITIZERS="${SNAPPER_SANITIZE:-address thread}"

run_tidy() {
  if ! command -v clang-tidy > /dev/null 2>&1; then
    echo "error: SNAPPER_SANITIZE=tidy needs clang-tidy on PATH" >&2
    exit 1
  fi
  # A plain build tree is enough: tidy only needs compile_commands.json.
  cmake -B build -S . > /dev/null
  local run_parallel
  run_parallel="$(command -v run-clang-tidy || true)"
  if [[ -n "${run_parallel}" ]]; then
    "${run_parallel}" -p build -quiet "src/.*\.(cc|cpp)$"
  else
    git ls-files 'src/**/*.cc' | xargs -P "$(nproc)" -n 1 \
      clang-tidy -p build --quiet
  fi
  echo "=== tidy: OK ==="
}

run_analyze() {
  # The cycle/rank death tests and the FaultInjectionEnv lock-order
  # regression only bite with the tracker armed, i.e. in a Debug tree.
  cmake -B build-analyze -S . -DCMAKE_BUILD_TYPE=Debug
  cmake --build build-analyze -j "$(nproc)"
  ctest --test-dir build-analyze -L analyze --output-on-failure
  echo "=== analyze: OK ==="
}

# Crash-simulation tests abandon in-flight coroutine frames by design; see
# scripts/lsan.supp for the (tightly scoped) suppression list.
export LSAN_OPTIONS="suppressions=$(pwd)/scripts/lsan.supp:${LSAN_OPTIONS:-}"
# Deeper per-thread history: the coroutine-heavy call graphs here overflow
# TSan's default ring buffer, which turns race reports into "[failed to
# restore the stack]". scripts/tsan.supp silences the uninstrumented
# libstdc++ exception_ptr refcount (see comments there).
export TSAN_OPTIONS="history_size=7:suppressions=$(pwd)/scripts/tsan.supp:${TSAN_OPTIONS:-}"

for SANITIZER in ${SANITIZERS}; do
  if [[ "${SANITIZER}" == "tidy" ]]; then
    run_tidy
    continue
  fi
  if [[ "${SANITIZER}" == "analyze" ]]; then
    run_analyze
    continue
  fi
  BUILD_DIR="build-${SANITIZER}"
  echo "=== ${SANITIZER}: ${BUILD_DIR} ==="
  cmake -B "${BUILD_DIR}" -S . -DSNAPPER_SANITIZE="${SANITIZER}"
  cmake --build "${BUILD_DIR}" -j "$(nproc)"
  ctest --test-dir "${BUILD_DIR}" --output-on-failure -j "$(nproc)"
done
