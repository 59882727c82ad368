#!/usr/bin/env bash
# End-to-end checks of the hostnet_fleet driver (ctest label `fleet`).
#
#   fleet_cli_check.sh reports <hostnet_fleet> <scenario.fleet>...
#     Runs each scenario with --threads 2 in fork and in cold mode; the two
#     reports must be identical apart from the `sweep-cache:` line (the
#     reuse counters; the checkpoint counts are zero when cold). The fork
#     report at --threads 1 and 4 must equal the --threads 2 one in full.
#   fleet_cli_check.sh bad-threads <hostnet_fleet> <scenario.fleet>
#     A --threads or HOSTNET_THREADS value that is not a positive integer
#     must be a usage error: exit status 2, nothing on stdout.
#   fleet_cli_check.sh bad-scenario <hostnet_fleet>
#     Malformed scenarios (bad window lengths, signed or out-of-range
#     integers, host configs validate() refuses) must fail to parse: exit
#     status 2, nothing on stdout, and the offending line number on stderr.
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
      for threads in 1 4; do
        "${bin}" "${scenario}" --threads "${threads}" --mode fork >"${tmp}/fork-${threads}.txt"
        diff -u "${tmp}/fork.txt" "${tmp}/fork-${threads}.txt" ||
          fail "${scenario}: fork report at --threads ${threads} differs from --threads 2"
      done
      echo "ok: ${scenario} (fork == cold; fork at 1, 2 and 4 threads identical)"
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
  bad-scenario)
    expect_parse_error() {
      local name="$1" line="$2" status=0
      printf '%b' "$3" >"${tmp}/${name}.fleet"
      "${bin}" "${tmp}/${name}.fleet" >"${tmp}/out.txt" 2>"${tmp}/err.txt" || status=$?
      [[ ${status} -eq 2 ]] || fail "${name}: exited ${status}, expected 2"
      [[ ! -s "${tmp}/out.txt" ]] || fail "${name}: printed a report"
      grep -q "scenario line ${line}:" "${tmp}/err.txt" ||
        fail "${name}: stderr does not name line ${line}: $(cat "${tmp}/err.txt")"
      echo "ok: ${name} -> $(head -n 1 "${tmp}/err.txt")"
    }
    placed='fleet f\ntemplate t\n  c2m a c2m_read\nend\n'
    expect_parse_error measure-negative 2 'fleet f\nmeasure_us -50\n'
    expect_parse_error measure-zero 2 'fleet f\nmeasure_us 0\n'
    expect_parse_error measure-nan 2 'fleet f\nmeasure_us nan\n'
    expect_parse_error warmup-negative 2 'fleet f\nwarmup_us -1\n'
    expect_parse_error lfb-past-u32 3 'fleet f\ntemplate t\n  set core.lfb_entries 4294967297\n'
    expect_parse_error credits-negative 3 'fleet f\ntemplate t\n  set iio.write_credits -4294967200\n'
    expect_parse_error cores-negative 3 'fleet f\ntemplate t\n  c2m a c2m_read cores=-1\n'
    expect_parse_error hosts-negative 5 "${placed}hosts -1 t\n"
    expect_parse_error hosts-past-u64 5 "${placed}hosts 18446744073709551616 t\n"
    # Configs that used to crash or stall the simulation are refused at `end`.
    mixed='  c2m a c2m_read_write cores=2\n  p2m b fio_write\nend\nhosts 1 t\n'
    expect_parse_error prep-window-zero 6 "fleet f\ntemplate t\n  set mc.prep_window 0\n${mixed}"
    expect_parse_error read-fwd-window-zero 6 \
      "fleet f\ntemplate t\n  set cha.read_fwd_window 0\n${mixed}"
    expect_parse_error write-fwd-window-zero 6 \
      "fleet f\ntemplate t\n  set cha.write_fwd_window 0\n${mixed}"
    expect_parse_error t-trans-past-1s 6 \
      "fleet f\ntemplate t\n  set mc.timing.t_trans 9223372036854775807\n${mixed}"
    expect_parse_error ddio-ways-zero 7 \
      "fleet f\ntemplate t\n  set cha.ddio 1\n  set cha.ddio_ways 0\n${mixed}"
    expect_parse_error ddio-capacity-below-ways 7 \
      "fleet f\ntemplate t\n  set cha.ddio 1\n  set cha.ddio_capacity_bytes 64\n${mixed}"
    ;;
  *)
    fail "unknown mode '${mode}' (reports | bad-threads | bad-scenario)"
    ;;
esac
