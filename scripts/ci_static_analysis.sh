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
#                  death tests included (component member tables are
#                  checked by every build), and the golden gate, so every
#                  figure window also runs with live invariants
#   5. perfbench   the host-time benchmark package (perfbench/, Release)
#                  configured and built against this tree's src/, and its
#                  perfbench_selftest run: a src/ API change that breaks the
#                  benchmark's compile fails here
#   6. sanitizers  full suite under ASan+UBSan and TSan
#   7. perf        Release bench_sim_perf of this tree vs the same benchmark
#                  built from its parent commit (HEAD^, checked out in a
#                  temporary git worktree) on this machine: a >10%
#                  regression on any benchmark fails the gate, and checked
#                  instrumentation must compile out of Release builds
#   8. golden      one Release hostnet_figures run: each figure's output
#                  vs bench/goldens/, byte-for-byte, with no orphan on
#                  either side (scripts/check_golden.sh)
#
# Usage: scripts/ci_static_analysis.sh [--quick]
#   --quick   steps 1-4 only (no perfbench build, no sanitizer rebuilds,
#             no benchmark, no release goldens): the fast pre-push loop.
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
cd "${repo_root}"
quick=0
[[ "${1:-}" == "--quick" ]] && quick=1
jobs="$(nproc)"

step() { printf '\n=== ci_static_analysis: %s ===\n' "$1"; }

step "1/8 format check"
scripts/format_check.sh

step "2/8 hostnet-lint (with stale-suppression sweep)"
python3 tools/hostnet_lint.py --stale

step "3/8 clang-tidy build"
if command -v clang-tidy >/dev/null 2>&1; then
  cmake -B build-tidy -S . -DHOSTNET_LINT=ON >/dev/null
  cmake --build build-tidy -j "${jobs}"
else
  echo "SKIP: clang-tidy not installed; .clang-tidy is exercised where the" \
       "toolchain provides it (tools/hostnet_lint.py covered the" \
       "project-specific rules in step 2)"
fi

step "4/8 checked-invariant build + full tier-1 suite"
cmake -B build-checked -S . -DHOSTNET_CHECKED=ON -DCMAKE_CXX_FLAGS=-Werror >/dev/null
cmake --build build-checked -j "${jobs}"
# The suite includes the golden gate (label golden): the checked build must
# write every figure byte for byte as the release build does. It also holds
# the checkpoint, fleet and tcp labels, whose restores are audited event by
# event only in this build mode.
ctest --test-dir build-checked -LE perf -j "${jobs}" --output-on-failure

if [[ ${quick} -eq 1 ]]; then
  step "quick mode: skipping perfbench + sanitizers + perf gate + release goldens"
  echo "ci_static_analysis: OK (quick)"
  exit 0
fi

step "5/8 perfbench package: Release build from this tree + its selftest"
# The same build directory perfbench/run.py uses. The benchmark's sources
# are frozen, so this is where a library change that breaks them shows.
cmake -S perfbench -B .bench_build/perfbench -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build .bench_build/perfbench -j "${jobs}"
ctest --test-dir .bench_build/perfbench --output-on-failure --no-tests=error

step "6/8 sanitizers (ASan+UBSan, then TSan) over the full suite"
scripts/run_asan_ubsan_tests.sh build-asan
scripts/run_tsan_pool_tests.sh build-tsan

step "7/8 release perf gate (this tree vs its parent commit, same machine)"
# Both sides are built in Release (the build type that links the library
# with IPO) and run back to back here, so the ratio measures the change and
# not the machine.
parent="$(git rev-parse --verify HEAD^)"
parent_dir="$(mktemp -d)"
cleanup_parent() {
  git worktree remove --force "${parent_dir}/tree" >/dev/null 2>&1 || true
  rm -rf "${parent_dir}"
}
trap cleanup_parent EXIT
git worktree add --detach "${parent_dir}/tree" "${parent}" >/dev/null
cmake -B "${parent_dir}/build" -S "${parent_dir}/tree" -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build "${parent_dir}/build" -j "${jobs}" --target bench_sim_perf
cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build build-release -j "${jobs}" --target bench_sim_perf hostnet_figures
ctest --test-dir "${parent_dir}/build" -R bench_sim_perf_json --output-on-failure
ctest --test-dir build-release -R bench_sim_perf_json --output-on-failure
python3 scripts/bench_compare.py \
  "${parent_dir}/build/BENCH_sim_perf.json" build-release/BENCH_sim_perf.json \
  --threshold 0.10
cleanup_parent
trap - EXIT

step "8/8 golden figure outputs (byte-for-byte vs bench/goldens/)"
scripts/check_golden.sh build-release/bench

echo
echo "ci_static_analysis: OK"
