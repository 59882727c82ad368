#!/usr/bin/env bash
# End-to-end checks of the hostnet_fleet driver (ctest label `fleet`).
#
#   fleet_cli_check.sh reports <hostnet_fleet> <scenario.fleet>...
#     Runs each scenario with --threads 2 in fork and in cold mode; the two
#     reports must be identical apart from the `sweep-cache:` line (the
#     fork-reuse counters, zero when cold).
#   fleet_cli_check.sh bad-threads <hostnet_fleet> <scenario.fleet>
#     A --threads or HOSTNET_THREADS value that is not a positive integer
#     must be a usage error: exit status 2, nothing on stdout.
set -euo pipefail

mode="$1"
bin="$2"
shift 2
tmp="$(mktemp -d)"
trap 'rm -rf "${tmp}"' EXIT

fail() {
  echo "FAIL: $*" >&2
  exit 1
}

case "${mode}" in
  reports)
    for scenario in "$@"; do
      "${bin}" "${scenario}" --threads 2 --mode fork >"${tmp}/fork.txt"
      "${bin}" "${scenario}" --threads 2 --mode cold >"${tmp}/cold.txt"
      grep -q '^sweep-cache:' "${tmp}/fork.txt" || fail "${scenario}: no sweep-cache line"
      grep -v '^sweep-cache:' "${tmp}/fork.txt" >"${tmp}/fork.cmp"
      grep -v '^sweep-cache:' "${tmp}/cold.txt" >"${tmp}/cold.cmp"
      diff -u "${tmp}/cold.cmp" "${tmp}/fork.cmp" ||
        fail "${scenario}: fork and cold reports differ"
      echo "ok: ${scenario} (fork == cold)"
    done
    ;;
  bad-threads)
    scenario="$1"
    expect_usage_error() {
      local status=0
      "$@" >"${tmp}/out.txt" 2>"${tmp}/err.txt" || status=$?
      [[ ${status} -eq 2 ]] || fail "'$*' exited ${status}, expected 2"
      [[ ! -s "${tmp}/out.txt" ]] || fail "'$*' printed a report"
      echo "ok: '$*' -> $(head -n 1 "${tmp}/err.txt")"
    }
    for bad in -1 0 abc 2x "" " 2" +2 99999999999; do
      expect_usage_error "${bin}" "${scenario}" --threads "${bad}"
      expect_usage_error env HOSTNET_THREADS="${bad}" "${bin}" "${scenario}"
    done
    ;;
  *)
    fail "unknown mode '${mode}' (reports | bad-threads)"
    ;;
esac
