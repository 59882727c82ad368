#!/usr/bin/env bash
# The static-analysis / checked-build CI gate (ISSUE: hostnet-check).
#
# One entry point, exit 0 = the tree is clean:
#   1. format      scripts/format_check.sh (clang-format or python fallback)
#   2. lint        tools/hostnet_lint.py --stale over src/ bench/ tests/
#                  examples/ (determinism/allocation/handler-purity rules +
#                  dead-suppression sweep)
#   3. clang-tidy  full build with -DHOSTNET_LINT=ON (.clang-tidy,
#                  warnings-as-errors); SKIPPED with a notice when
#                  clang-tidy is not installed (this container ships none)
#   4. checked     warning-free (-Werror) build and full tier-1 suite under
#                  -DHOSTNET_CHECKED=ON: every HOSTNET_INVARIANT live,
#                  death tests and the CreditPool registration walk included
#                  (component member tables are checked by every build),
#                  and the golden gate, so every figure window also runs
#                  with live invariants
#   5. sanitizers  full suite under ASan+UBSan and TSan
#   6. perf        release bench_sim_perf vs bench/baselines/: checked
#                  instrumentation must compile out of release builds, so a
#                  >10% BM_HostSimulation regression fails the gate
#   7. golden      one release hostnet_figures run: each figure's output
#                  vs bench/goldens/, byte-for-byte, with no orphan on
#                  either side (scripts/check_golden.sh)
#
# Usage: scripts/ci_static_analysis.sh [--quick]
#   --quick   steps 1-4 only (no sanitizer rebuilds, no benchmark, no
#             release goldens): the fast pre-push loop.
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
cd "${repo_root}"
quick=0
[[ "${1:-}" == "--quick" ]] && quick=1
jobs="$(nproc)"

step() { printf '\n=== ci_static_analysis: %s ===\n' "$1"; }

step "1/7 format check"
scripts/format_check.sh

step "2/7 hostnet-lint (with stale-suppression sweep)"
python3 tools/hostnet_lint.py --stale

step "3/7 clang-tidy build"
if command -v clang-tidy >/dev/null 2>&1; then
  cmake -B build-tidy -S . -DHOSTNET_LINT=ON >/dev/null
  cmake --build build-tidy -j "${jobs}"
else
  echo "SKIP: clang-tidy not installed; .clang-tidy is exercised where the" \
       "toolchain provides it (tools/hostnet_lint.py covered the" \
       "project-specific rules in step 2)"
fi

step "4/7 checked-invariant build + full tier-1 suite"
cmake -B build-checked -S . -DHOSTNET_CHECKED=ON -DCMAKE_CXX_FLAGS=-Werror >/dev/null
cmake --build build-checked -j "${jobs}"
# The suite includes the golden gate (label golden): the checked build must
# write every figure byte for byte as the release build does.
ctest --test-dir build-checked -LE perf -j "${jobs}" --output-on-failure
# Checkpoint/fork engine under live invariants, gated explicitly: restore()
# audits the restored event queue event-by-event only in this build mode
# (label wired in tests/CMakeLists.txt).
ctest --test-dir build-checked -L checkpoint --output-on-failure
# Fleet engine determinism (serial-vs-parallel and fork-vs-cold aggregates)
# under the same live invariants.
ctest --test-dir build-checked -L fleet --output-on-failure
# Pluggable TCP stacks: per-stack snapshot round-trips, fork-vs-cold
# bit-identity and the DCTCP differential vs the pre-refactor formula.
ctest --test-dir build-checked -L tcp --output-on-failure

if [[ ${quick} -eq 1 ]]; then
  step "quick mode: skipping sanitizers + perf gate + release goldens"
  echo "ci_static_analysis: OK (quick)"
  exit 0
fi

step "5/7 sanitizers (ASan+UBSan, then TSan) over the full suite"
scripts/run_asan_ubsan_tests.sh build-asan
scripts/run_tsan_pool_tests.sh build-tsan

step "6/7 release perf gate (checked instrumentation must compile out)"
cmake -B build -S . >/dev/null
cmake --build build -j "${jobs}"
ctest --test-dir build -R bench_sim_perf_json --output-on-failure
python3 scripts/bench_compare.py \
  bench/baselines/BENCH_sim_perf.main.json build/BENCH_sim_perf.json \
  --threshold 0.10

step "7/7 golden figure outputs (byte-for-byte vs bench/goldens/)"
scripts/check_golden.sh build/bench

echo
echo "ci_static_analysis: OK"
