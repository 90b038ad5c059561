#!/usr/bin/env bash
# Builds the whole tree under one sanitizer and runs the full ctest suite
# against it. Each mode halts at the first report, so any finding fails
# its test and the script.
#
#   thread     ThreadSanitizer at SAGDFN_NUM_THREADS=8: the fork-join pool,
#              the parallel kernels, the engine's workers, the hot-swap
#              registry and the lock-free forecast cache all run with more
#              threads than most hosts have cores.
#   address    AddressSanitizer with leak detection: the injected-fault
#              matrix's recovery paths, moved gradient buffers, arena slabs
#              and mapped weight files.
#   undefined  UndefinedBehaviorSanitizer, built with -fno-sanitize-recover
#              (see CMakeLists.txt): misaligned loads in the mapped-file
#              reader, CSR and gather index arithmetic, SIMD column tails.
#
# Usage: tools/check_sanitizer.sh <thread|address|undefined> [build-dir]
#        (default build-dir: build-tsan, build-asan or build-ubsan)
set -euo pipefail

MODE="${1:-}"
case "${MODE}" in
  thread)
    DEFAULT_DIR=build-tsan
    export TSAN_OPTIONS="halt_on_error=1 ${TSAN_OPTIONS:-}"
    export SAGDFN_NUM_THREADS=8
    ;;
  address)
    DEFAULT_DIR=build-asan
    export ASAN_OPTIONS="halt_on_error=1 detect_leaks=1 ${ASAN_OPTIONS:-}"
    ;;
  undefined)
    DEFAULT_DIR=build-ubsan
    export UBSAN_OPTIONS="print_stacktrace=1 ${UBSAN_OPTIONS:-}"
    ;;
  *)
    echo "usage: $0 <thread|address|undefined> [build-dir]" >&2
    exit 2
    ;;
esac

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
BUILD_DIR="${2:-${REPO_ROOT}/${DEFAULT_DIR}}"

# ccache makes the from-scratch sanitizer configure cheap on CI reruns;
# harmless locally when ccache is absent.
LAUNCHER_ARGS=()
if command -v ccache >/dev/null 2>&1; then
  LAUNCHER_ARGS+=(-DCMAKE_C_COMPILER_LAUNCHER=ccache
                  -DCMAKE_CXX_COMPILER_LAUNCHER=ccache)
fi

cmake -B "${BUILD_DIR}" -S "${REPO_ROOT}" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DSAGDFN_SANITIZE="${MODE}" \
  ${LAUNCHER_ARGS[@]+"${LAUNCHER_ARGS[@]}"}
cmake --build "${BUILD_DIR}" -j "$(nproc)"

echo "== full ctest suite (SAGDFN_SANITIZE=${MODE}) =="
ctest --test-dir "${BUILD_DIR}" -j "$(nproc)" --output-on-failure \
  --no-tests=error

echo "Sanitizer check passed (${MODE}): the full suite is clean."
