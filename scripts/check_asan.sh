#!/bin/sh
# Builds the library and tests with AddressSanitizer + UndefinedBehavior-
# Sanitizer (-DVBR_SANITIZE=address) and runs the suites that exercise the
# new ownership-heavy machinery: query fingerprints, the sharded plan
# cache, batched planning, and the planner facade. Any report fails the
# run (halt_on_error).
#
# Usage: scripts/check_asan.sh [extra ctest -R regex]
# The build tree is build-asan/ (kept separate from the regular build/).
set -eu
cd "$(dirname "$0")/.."

BUILD_DIR=${BUILD_DIR:-build-asan}
# ctest names gtest cases "<Suite>.<Test>".  FrameTest covers the wire
# codec (bounds-checked reads over hostile payloads), HttpTest the HTTP
# parser, PlanServerTest the full server over real sockets.
FILTER=${1:-'Fingerprint|PlanCache|PlanMany|Planner|BudgetGovernance|FaultMatrix|FuzzSmoke|FrameTest|HttpTest|PlanServer'}

cmake -B "$BUILD_DIR" -S . \
  -DVBR_SANITIZE=address \
  -DVBR_BUILD_BENCHMARKS=OFF \
  -DVBR_BUILD_EXAMPLES=OFF
cmake --build "$BUILD_DIR" -j "$(nproc)" \
  --target fingerprint_test plan_cache_test plan_many_test \
  planner_test planner_options_test \
  budget_governance_test fault_matrix_test parser_fuzz json_fuzz \
  fuzz_vbin_decode vbin_corpus_gen \
  frame_test http_test server_integration_test request_options_test

ASAN_OPTIONS="halt_on_error=1 detect_leaks=1" \
UBSAN_OPTIONS="halt_on_error=1 print_stacktrace=1" \
  ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)" \
    -R "$FILTER"

echo "check_asan: all fingerprint/cache/planner tests passed under ASan+UBSan"
