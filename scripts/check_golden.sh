#!/usr/bin/env bash
# Golden-output gate: every figure -- the paper's figures and Table 1, the
# ablations, the section-7 extensions and the worked studies -- must be
# byte-identical to its committed golden in bench/goldens/.
#
# hostnet_figures runs the union plan of all 32 figures in one process (one
# core::execute, kFork by default, at HOSTNET_THREADS / nproc workers) with
# the measurement-window overrides cleared, so the outputs are machine-
# independent, and writes <name>.txt per figure. Each is diffed against
# bench/goldens/<name>.txt. A golden no figure writes, and a figure with no
# golden, both fail the gate: deleting a figure cannot drop its check
# silently. The kFork union run reports (stderr, echoed below)
#   figures: 907 windows, 415 jobs, 5 checkpoint hits, 487 outcome hits
# so the goldens check the kFork job path, 5 windows of it read on the way
# to a longer one, without restores. `--mode cold` checks the same goldens
# against the kCold reference, every distinct window built and warmed on
# its own (CI runs both; tier-1 runs kFork).
#
# Usage:
#   scripts/check_golden.sh [--update] [--mode fork|cold] [bench_build_dir]
#     bench_build_dir   defaults to build/bench
#     --update          re-capture the goldens from the current driver
#                       (do this only when an output change is intended,
#                       and say why in the commit message)
#     --mode M          hostnet_figures' sweep mode (default fork)
#
# Exit status: 0 = all outputs byte-identical (or updated), 1 = divergence,
# a failing run, a figure without a golden or a golden without a figure,
# 77 = nothing to check (hostnet_figures not built -- e.g. a tests-only
# sanitizer build; CTest's SKIP_RETURN_CODE).
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
golden_dir="${repo_root}/bench/goldens"

mode=check
if [[ "${1:-}" == "--update" ]]; then
  mode=update
  shift
fi
sweep=fork
if [[ "${1:-}" == "--mode" ]]; then
  sweep="${2:-}"
  shift 2 || true
fi
if [[ "${sweep}" != fork && "${sweep}" != cold ]]; then
  echo "check_golden: --mode must be fork or cold" >&2
  exit 2
fi
bench_dir="${1:-${repo_root}/build/bench}"
driver="${bench_dir}/hostnet_figures"

if [[ ! -x "${driver}" ]]; then
  echo "check_golden: ${driver} not built (skipping)" >&2
  echo "  build first: cmake -B build -S . && cmake --build build" >&2
  exit 77
fi

out_dir="$(mktemp -d)"
trap 'rm -rf "${out_dir}"' EXIT

start=${EPOCHREALTIME}
rc=0
env -u HOSTNET_MEASURE_US -u HOSTNET_WARMUP_US "${driver}" --mode "${sweep}" "${out_dir}" \
  2> "${out_dir}/stderr.log" || rc=$?
took="$(awk -v a="${start}" -v b="${EPOCHREALTIME}" 'BEGIN { printf "%.1f s", b - a }')"
if [[ "${rc}" != 0 ]]; then
  echo "FAILED   hostnet_figures: exit status ${rc} (${took})"
  head -20 "${out_dir}/stderr.log" || true
  exit 1
fi
cat "${out_dir}/stderr.log"

# Every name that has an output or a golden, in name order.
names="$(for f in "${out_dir}"/*.txt "${golden_dir}"/*.txt; do
           [[ -f "${f}" ]] && basename "${f}" .txt
         done | sort -u)"

failures=0
count=0
for name in ${names}; do
  out="${out_dir}/${name}.txt"
  golden="${golden_dir}/${name}.txt"
  count=$((count + 1))
  if [[ ! -f "${out}" ]]; then
    echo "ORPHAN   ${name}: bench/goldens/${name}.txt has no figure" \
         "(remove it, or register the figure in bench/figures/hostnet_figures.cpp)"
    failures=$((failures + 1))
  elif [[ "${mode}" == "update" ]]; then
    cp "${out}" "${golden}"
    echo "updated  ${name}"
  elif [[ ! -f "${golden}" ]]; then
    echo "MISSING  ${name}: no golden at bench/goldens/${name}.txt" \
         "(capture with scripts/check_golden.sh --update)"
    failures=$((failures + 1))
  elif diff -u "${golden}" "${out}" > /dev/null; then
    echo "ok       ${name}"
  else
    echo "DIFFERS  ${name}:"
    diff -u "${golden}" "${out}" | head -40 || true
    failures=$((failures + 1))
  fi
done

if [[ ${failures} -gt 0 ]]; then
  echo "check_golden: ${failures} figure(s) diverged from bench/goldens/ or lack a pair" >&2
  exit 1
fi
if [[ "${mode}" == "update" ]]; then
  echo "check_golden: goldens updated (${count} figure(s), ${took})"
  exit 0
fi
echo "check_golden: OK (${count} figure(s) byte-identical, one ${sweep} run, ${took})"
