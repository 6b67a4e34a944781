#!/usr/bin/env python3
"""Entry point of the repo benchmark.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. On first use it configures and builds the
benchmark package (perfbench/CMakeLists.txt: the B-LOG library compiled from
src/ plus the harness in perfbench/src/) into .bench_build/perfbench, then
runs one workload and passes the harness's report through. The last line of
stdout is the harness's JSON result. Other flags (--smoke,
--corrupt-expected) go to the harness unchanged.
"""
import argparse
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "blog_perfbench")
WORKLOADS = ["lookup_mix", "route_bnb", "route_parallel", "andor_join"]
RUN_TIMEOUT_S = 170


def build():
    """Configure once, then build incrementally. False when impossible."""
    if not (os.path.isdir(os.path.join(ROOT, "src"))
            and os.path.isdir(os.path.join(ROOT, "include", "blog"))):
        print("perfbench: no B-LOG sources (src/, include/blog/) in " + ROOT,
              file=sys.stderr)
        return False
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = subprocess.run(
            ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
             "-DCMAKE_BUILD_TYPE=Release"] + generator,
            stdout=sys.stderr, stderr=sys.stderr)
        if configure.returncode != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    made = subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                          stdout=sys.stderr, stderr=sys.stderr)
    return made.returncode == 0 and os.path.exists(BINARY)


def run_one(workload, args, extra):
    cmd = [BINARY, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)] + extra
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        # subprocess.run has killed and reaped the harness.
        print("perfbench: %s exceeded %d s" % (workload, RUN_TIMEOUT_S),
              file=sys.stderr)
        return 1
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    return done.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args, extra = parser.parse_known_args()
    if not build():
        return 1
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    status = 0
    for w in workloads:
        status = max(status, run_one(w, args, extra))
    return status


if __name__ == "__main__":
    sys.exit(main())
