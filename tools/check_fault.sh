#!/usr/bin/env bash
# Builds the fault-tolerance suites under AddressSanitizer and runs every
# ctest target labeled `fault`, plus the checkpoint serialization and
# trainer resume suites. Exercises the whole injected-fault matrix —
# trainer sites (nan_loss / nan_grad / crash / io_fail / truncate_ckpt)
# and serve sites (bad_candidate / nan_forecast / slow_batch / swap_race)
# — with ASan watching the recovery paths: any leak, use-after-free, or
# buffer overflow on a rollback/restore/rollback-swap path fails the
# script. The SIMD kernel and tensor-op suites ride along so the
# matmul/diffusion macro-kernels' column tails and staged row pointers run
# under ASan too.
#
# Usage: tools/check_fault.sh [build-dir]   (default: build-asan)
set -euo pipefail

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
BUILD_DIR="${1:-${REPO_ROOT}/build-asan}"

# ccache makes the from-scratch sanitizer configure cheap on CI reruns;
# harmless locally when ccache is absent.
LAUNCHER_ARGS=()
if command -v ccache >/dev/null 2>&1; then
  LAUNCHER_ARGS+=(-DCMAKE_C_COMPILER_LAUNCHER=ccache
                  -DCMAKE_CXX_COMPILER_LAUNCHER=ccache)
fi

cmake -B "${BUILD_DIR}" -S "${REPO_ROOT}" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DSAGDFN_SANITIZE=address \
  ${LAUNCHER_ARGS[@]+"${LAUNCHER_ARGS[@]}"}
cmake --build "${BUILD_DIR}" -j "$(nproc)" \
  --target fault_injection_test serialization_test trainer_test \
  serve_engine_test rollout_plan_test registry_test tick_stream_test \
  tenant_router_test simd_test tensor_ops_test

export ASAN_OPTIONS="halt_on_error=1 detect_leaks=1 ${ASAN_OPTIONS:-}"

echo "== fault-labeled ctest targets (injected fault matrix, ASan) =="
ctest --test-dir "${BUILD_DIR}" -L fault --output-on-failure

echo "== checkpoint serialization robustness (ASan) =="
"${BUILD_DIR}/tests/serialization_test"

echo "== inference engine lifecycle (ASan: shutdown, destroy-under-load) =="
"${BUILD_DIR}/tests/serve_engine_test"

echo "== registry serve-side fault sites (ASan: bad_candidate, nan_forecast, slow_batch, swap_race) =="
"${BUILD_DIR}/tests/registry_test"

echo "== tenant router isolation suite (ASan: tenant-qualified faults, deregister-with-in-flight drain, online-trainer kill/resume) =="
ctest --test-dir "${BUILD_DIR}" -L tenant --output-on-failure

echo "== registry corrupt-candidate fuzz corpus (ASan) =="
"${BUILD_DIR}/tests/serialization_test" \
  --gtest_filter='SerializationFuzzTest.RegistryGateRejectsCorruptCandidates'

echo "== rollout-plan replay (ASan: arena slab reuse, pinned weights) =="
ctest --test-dir "${BUILD_DIR}" -L plan --output-on-failure

echo "== streaming tick loop (ASan: cache slot churn, carried-state slabs, swap-observer lifetime) =="
ctest --test-dir "${BUILD_DIR}" -L stream --output-on-failure

echo "== SIMD kernel table + tensor-op macro-kernels (ASan) =="
"${BUILD_DIR}/tests/simd_test"
"${BUILD_DIR}/tests/tensor_ops_test"

echo "== trainer checkpoint/resume suites (ASan) =="
"${BUILD_DIR}/tests/trainer_test" \
  --gtest_filter='TrainerTest.KillAndResume*:TrainerTest.Resume*:TrainerTest.Checkpoint*:TrainerTest.Latest*'

echo "Fault check passed: every injected fault was recovered or reported."
