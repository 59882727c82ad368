#!/usr/bin/env bash
# Builds the test suite with ThreadSanitizer and runs the full tier-1 suite
# (perf-labeled benchmark jobs excluded) -- most importantly the worker pool
# and the experiment executor's jobs (core tests), the fleet runner's plan
# (fleet tests and the hostnet_fleet driver) and transport-placing windows
# (tcp tests), since the slot-arena scheduler and ring-buffer queues run
# inside every pool worker.
# Guards the threading model documented in DESIGN.md: one HostSystem per
# job, no shared mutable state between workers.
#
# Usage: scripts/run_tsan_pool_tests.sh [build-dir]   (default: build-tsan)
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-"${repo_root}/build-tsan"}"

cmake -B "${build_dir}" -S "${repo_root}" -DHOSTNET_SANITIZE=thread \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo
# Every test binary ctest runs below: a target left unbuilt would show up
# as a *_NOT_BUILT failure instead of being exercised.
cmake --build "${build_dir}" --target hostnet_tests hostnet_checkpoint_tests \
  hostnet_fleet_tests hostnet_tcp_tests hostnet_fleet_cli example_quickstart \
  -j "$(nproc)"

# TSan halts on the first data race so a regression fails the run loudly.
TSAN_OPTIONS="halt_on_error=1" \
  ctest --test-dir "${build_dir}" --output-on-failure -LE "perf|golden" \
    -j "$(nproc)"
