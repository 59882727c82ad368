#!/usr/bin/env python3
"""Build and run the hostnet host-time benchmark.

    python3 perfbench/run.py --workload q1_sweep|q4_sweep|fleet_fork \
        --seed <n> --seconds <s> --trace 0|1

Run it from the repository root. It configures and builds perfbench/ (which
builds the simulator library from src/) into .bench_build/perfbench, runs the
benchmark binary, checks that the binary's result line reports exactly the
metrics BENCHMARK.json declares for the mode (end_to_end for --trace 0,
per_layer for --trace 1), and prints that line last. With --trace 1 the spans
go to .bench_build/spans/. If the build or the run fails it exits non-zero and
prints no result line.
"""
import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def die(msg):
    print("perfbench/run.py: " + msg, file=sys.stderr)
    sys.exit(1)


def run(cmd, timeout):
    """Run `cmd`, sending its output to stderr; True when it exits with 0."""
    try:
        return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout).returncode == 0
    except (OSError, subprocess.TimeoutExpired) as e:
        print(e, file=sys.stderr)
        return False


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        if not run(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
                    "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S):
            die("configure failed")
    if not run(["cmake", "--build", BUILD, "--target", "hostnet_perfbench", "-j", jobs],
               BUILD_TIMEOUT_S):
        die("build failed")


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["q1_sweep", "q4_sweep", "fleet_fork"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    a = ap.parse_args()
    if a.seed < 0 or not 1 <= a.seconds <= 60:
        die("--seed must be >= 0 and --seconds in [1, 60]")

    build()
    cmd = [os.path.join(BUILD, "hostnet_perfbench"), "--workload", a.workload,
           "--seed", str(a.seed), "--seconds", str(a.seconds), "--trace", str(a.trace)]
    if a.trace:
        spans_dir = os.path.join(ROOT, ".bench_build", "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans-out", os.path.join(spans_dir, "%s-seed%d.jsonl" % (a.workload, a.seed))]
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        die("benchmark did not finish: %s" % e)
    lines = p.stdout.rstrip("\n").split("\n")
    if p.returncode != 0:
        sys.stderr.write(p.stdout)
        die("benchmark exited with %d" % p.returncode)

    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stderr.write(p.stdout)
        die("last line is not a JSON result")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        die("result keys are %s" % sorted(result))
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    want = declared_metrics(a.trace)
    if got != want:
        die("metrics differ from BENCHMARK.json: missing %s, extra or wrong unit %s" % (
            sorted(set(want.items()) - set(got.items())),
            sorted(set(got.items()) - set(want.items()))))
    print("\n".join(lines[:-1]))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
