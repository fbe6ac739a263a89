#!/bin/sh
# Builds the library and tests with ThreadSanitizer (-DVBR_SANITIZE=thread)
# and runs the suites that share state across threads. One CoreCover run is
# single-threaded; concurrency lives across requests, which share the
# SymbolTable, the ContainmentMemo, the plan cache and the metrics registry.
# Any reported race fails the run (TSAN_OPTIONS halt_on_error).
#
# Usage: scripts/check_tsan.sh [extra ctest -R regex]
# The build tree is build-tsan/ (kept separate from the regular build/).
set -eu
cd "$(dirname "$0")/.."

BUILD_DIR=${BUILD_DIR:-build-tsan}
# ctest names gtest cases "<Suite>.<Test>"; this matches the SymbolTable
# stress suite, the determinism suites (concurrent CoreCover callers and
# budget determinism), the sharded plan cache / batched planning suites,
# the resource-governance fault-injection suites, the containment-memo
# determinism suite, the PlanningService stress harness (worker pool,
# breaker ladder, concurrent ReplaceViews), the PlanServer integration
# suite (IO thread vs worker completions vs client threads over real
# sockets), and the view-delta suite (AddViews/RemoveViews racing PlanMany).
# The plan-cache suites include concurrent first hits racing to store one
# entry's costed choice.
FILTER=${1:-'SymbolConcurrency|Determinism|PlanCache|PlanMany|BudgetGovernance|FaultMatrix|FaultInjection|StressHarness|CircuitBreaker|PlanServer|ViewDelta'}

cmake -B "$BUILD_DIR" -S . \
  -DVBR_SANITIZE=thread \
  -DVBR_BUILD_BENCHMARKS=OFF \
  -DVBR_BUILD_EXAMPLES=OFF
cmake --build "$BUILD_DIR" -j "$(nproc)" \
  --target symbol_concurrency_test threading_determinism_test \
  determinism_test plan_cache_test plan_cache_metamorphic_test \
  plan_many_test view_delta_test \
  budget_determinism_test budget_governance_test fault_matrix_test \
  fault_injection_test stress_harness_test circuit_breaker_test \
  signature_prefilter_test server_integration_test

TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1" \
  ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)" \
    -R "$FILTER"

echo "check_tsan: all concurrency tests passed under ThreadSanitizer"
