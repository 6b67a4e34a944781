#!/usr/bin/env python3
"""Self-test of the repo benchmark at tiny sizes.

    python3 perfbench/smoke_test.py

Builds the benchmark if needed, then runs every workload (route_parallel
included) in --smoke mode, untraced and traced, and checks that:
  - each run passes its answer checks and bypass invariants;
  - the JSON result carries exactly the metrics BENCHMARK.json lists for the
    mode, each with its unit;
  - the report prints every metric of the mode and every report-only
    figure (write CPU time, qps, latency, write and set-up wall time,
    failed_frac), with its unit, plus the seed, the host and requests
    sent/succeeded/failed;
  - a run whose expected sets are deliberately corrupted counts failures,
    is not correct and exits non-zero.
Exits non-zero on the first failed check.
"""
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402  (perfbench/run.py: build() and the binary path)

# Printed in the report, not in the JSON.
REPORT_ONLY = {"consult_cpu_ms": "ms", "qps": "1/s", "latency_p50_ms": "ms",
               "latency_tail_ms": "ms", "consult_p50_ms": "ms",
               "setup_wall_s": "s", "failed_frac": "frac"}


def spec():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in bench["per_layer"]}
    return e2e, layers


def drive(workload, trace, *extra):
    cmd = [run.BINARY, "--workload", workload, "--seed", "7", "--seconds",
           "1", "--trace", str(trace), "--smoke"] + list(extra)
    done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=120, cwd=run.ROOT)
    lines = done.stdout.strip().splitlines()
    return done.returncode, lines, json.loads(lines[-1]), done.stderr


def check(cond, what):
    if not cond:
        print("FAIL: " + what)
        sys.exit(1)


def reported(lines):
    """metric name -> unit, from the report's `metric` lines."""
    out = {}
    for line in lines:
        m = re.match(r"metric (\S+)\s+(-?[0-9.]+) (\S+)", line)
        if m:
            out[m.group(1)] = m.group(3)
    return out


def main():
    if not run.build():
        print("FAIL: cannot build the benchmark")
        return 1
    e2e, layers = spec()
    for w in run.WORKLOADS:
        for trace, wanted in ((0, e2e), (1, layers)):
            rc, lines, result, err = drive(w, trace)
            tag = "%s trace=%d" % (w, trace)
            check(rc == 0 and result["correct"] and result["failed"] == 0,
                  "%s: not correct (rc %d)\n%s" % (tag, rc, err))
            check(result["attempted"] >= 1, tag + ": nothing attempted")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == wanted, "%s: JSON metrics differ from BENCHMARK.json:"
                  " %s" % (tag, sorted(set(got) ^ set(wanted))))
            rep = reported(lines)
            for name, unit in list(wanted.items()) + list(REPORT_ONLY.items()):
                check(rep.get(name) == unit,
                      "%s: report lacks %s [%s]" % (tag, name, unit))
            text = "\n".join(lines)
            for needle in ("seed=7", "# host nproc=", "cpu=",
                           "# requests sent="):
                check(needle in text, "%s: report lacks %r" % (tag, needle))
            print("ok   %s: %d metrics, %d requests" %
                  (tag, len(got), result["attempted"]))

        rc, _, result, _ = drive(w, 0, "--corrupt-expected")
        check(rc != 0 and not result["correct"] and result["failed"] > 0,
              w + ": a corrupted expected set was not counted as failed")
        print("ok   %s: corrupted expected sets -> %d failed" %
              (w, result["failed"]))

    print("smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
