#!/usr/bin/env bash
# Golden-output gate: the figure benches must be byte-identical to the
# committed goldens in bench/goldens/.
#
# The flow-layer refactor (and any future one touching the credit pools)
# claims to be behavior-preserving; this harness is the enforcement: every
# bench_fig* binary is run with the measurement-window environment overrides
# cleared (the simulation is fully deterministic, so the outputs are
# machine-independent) and diffed against its golden.
#
# The benches run concurrently. Each bench gets HOSTNET_THREADS worker
# threads (default 1; results never depend on it), and at most
# nproc / HOSTNET_THREADS benches run at once, so jobs x threads never
# exceeds the CPU count. Each bench's output is captured and diffed on its
# own; the report lists benches in a fixed (name) order.
#
# Usage:
#   scripts/check_golden.sh [--update] [bench_build_dir]
#     bench_build_dir   defaults to build/bench
#     --update          re-capture the goldens from the current binaries
#                       (do this only when an output change is intended,
#                       and say why in the commit message)
#
# Exit status: 0 = all outputs byte-identical (or updated), 1 = divergence,
# a failing bench or a bench without a golden, 77 = nothing to check (no
# bench binaries -- e.g. a tests-only sanitizer build; CTest's
# SKIP_RETURN_CODE).
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
golden_dir="${repo_root}/bench/goldens"

mode=check
if [[ "${1:-}" == "--update" ]]; then
  mode=update
  shift
fi
bench_dir="${1:-${repo_root}/build/bench}"

if [[ ! -d "${bench_dir}" ]]; then
  echo "check_golden: bench build dir not found: ${bench_dir}" >&2
  echo "  build first: cmake -B build -S . && cmake --build build" >&2
  exit 77
fi

benches=()
for bin in "${bench_dir}"/bench_fig*; do
  [[ -x "${bin}" && ! -d "${bin}" ]] && benches+=("${bin}")
done
if [[ ${#benches[@]} -eq 0 ]]; then
  echo "check_golden: no bench_fig* binaries in ${bench_dir} (skipping)" >&2
  exit 77
fi

threads="${HOSTNET_THREADS:-1}"
if ! [[ "${threads}" =~ ^[1-9][0-9]*$ ]]; then
  echo "check_golden: HOSTNET_THREADS='${threads}' is not a positive integer" >&2
  exit 1
fi
jobs=$(( $(nproc) / threads ))
(( jobs >= 1 )) || jobs=1

mkdir -p "${golden_dir}"
out_dir="$(mktemp -d)"
trap 'rm -rf "${out_dir}"' EXIT

# The env overrides shorten CI measurement windows; goldens are captured
# at the default windows so they are comparable across environments.
# The benches run core::execute in its default kFork mode. Their plans hold
# one distinct window per config fingerprint (measured: 532 windows, 421
# jobs, 0 checkpoint restores, 111 identical-window copies), so the goldens
# check the kFork job path without restores; the restore path is checked
# against kCold by the `checkpoint`-labelled tests and the fleet tests.
run_bench() {
  local name
  name="$(basename "$1")"
  local rc=0 start=${EPOCHREALTIME}
  env -u HOSTNET_MEASURE_US -u HOSTNET_WARMUP_US HOSTNET_THREADS="${threads}" \
      "$1" > "${out_dir}/${name}.out" 2> "${out_dir}/${name}.err" || rc=$?
  echo "${rc}" > "${out_dir}/${name}.rc"
  awk -v a="${start}" -v b="${EPOCHREALTIME}" 'BEGIN { printf "%.1f s", b - a }' \
      > "${out_dir}/${name}.time"
}

running=0
for bin in "${benches[@]}"; do
  if (( running >= jobs )); then
    wait -n
    running=$((running - 1))
  fi
  run_bench "${bin}" &
  running=$((running + 1))
done
wait

failures=0
for bin in "${benches[@]}"; do
  name="$(basename "${bin}")"
  out="${out_dir}/${name}.out"
  golden="${golden_dir}/${name}.txt"
  rc="$(cat "${out_dir}/${name}.rc")"
  took="$(cat "${out_dir}/${name}.time")"
  if [[ "${rc}" != 0 ]]; then
    echo "FAILED   ${name}: exit status ${rc} (${took})"
    head -20 "${out_dir}/${name}.err" || true
    failures=$((failures + 1))
    continue
  fi
  if [[ "${mode}" == "update" ]]; then
    cp "${out}" "${golden}"
    echo "updated  ${name} (${took})"
    continue
  fi
  if [[ ! -f "${golden}" ]]; then
    echo "MISSING  ${name}: no golden at bench/goldens/${name}.txt" \
         "(capture with scripts/check_golden.sh --update)"
    failures=$((failures + 1))
    continue
  fi
  if diff -u "${golden}" "${out}" > /dev/null; then
    echo "ok       ${name} (${took})"
  else
    echo "DIFFERS  ${name} (${took}):"
    diff -u "${golden}" "${out}" | head -40 || true
    failures=$((failures + 1))
  fi
done

if [[ ${failures} -gt 0 ]]; then
  echo "check_golden: ${failures} bench(es) failed or diverged from bench/goldens/" >&2
  exit 1
fi
if [[ "${mode}" == "update" ]]; then
  echo "check_golden: goldens updated (${#benches[@]} bench(es))"
  exit 0
fi
echo "check_golden: OK (${#benches[@]} bench(es) byte-identical, ${jobs} at a time x ${threads} thread(s))"
