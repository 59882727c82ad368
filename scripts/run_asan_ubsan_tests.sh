#!/usr/bin/env bash
# Builds the test suite with AddressSanitizer + UndefinedBehaviorSanitizer
# (via the HOSTNET_SANITIZE CMake option) and runs the full tier-1 suite
# (perf-labeled benchmark jobs excluded). The MC slot-arena queues schedule
# through raw slot indices and intrusive lists, and sim::Event type-erases
# closures through a reinterpret_cast seam -- the classic habitat for
# off-by-one, use-after-release and object-lifetime bugs that plain asserts
# miss; ASan/UBSan turns them into hard failures.
#
# Usage: scripts/run_asan_ubsan_tests.sh [build-dir]   (default: build-asan)
# Also runnable as a CTest job: configure the main build with
# -DHOSTNET_SANITIZER_JOBS=ON and `ctest -R sanitize_asan_ubsan`.
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-"${repo_root}/build-asan"}"

cmake -B "${build_dir}" -S "${repo_root}" -DHOSTNET_SANITIZE=address,undefined \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo
# Every test binary ctest runs below: a target left unbuilt would show up
# as a *_NOT_BUILT failure instead of being exercised.
cmake --build "${build_dir}" --target hostnet_tests hostnet_checkpoint_tests \
  hostnet_fleet_tests hostnet_tcp_tests hostnet_fleet_cli example_quickstart \
  -j "$(nproc)"

ASAN_OPTIONS="halt_on_error=1:detect_leaks=0" \
UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" \
  ctest --test-dir "${build_dir}" --output-on-failure -LE "perf|golden" \
    -j "$(nproc)"
