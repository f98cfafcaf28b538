#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of WORKLOADS, or "all" to run each in turn.  Run
from the root of a checkout.  Builds perfbench/perfbench.exe from
source with dune into .bench_build/ (no shared dune cache), then runs it;
the last line of standard output is the JSON result.  Scratch files (the
serve workload's stores, the traced run's span dump) stay under
.bench_build/.  Exits non-zero without a result if the build or the run
fails.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "perfbench.exe")
RUN_TIMEOUT_S = 170
WORKLOADS = ["synth_sweep", "sim_mix", "rtl_exec", "serve_mix"]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", choices=["0", "1"], required=True)
    args = ap.parse_args()

    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
         "--profile", "release", "./perfbench/perfbench.exe"],
        cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    work = os.path.join(BUILD_DIR, "perfbench-work")
    os.makedirs(work, exist_ok=True)
    names = WORKLOADS if args.workload == "all" else [args.workload]
    return max(run_one(name, args, work, env) for name in names)


def run_one(workload, args, work, env):
    cmd = [EXE, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--work-dir", work]
    if args.trace == "1":
        cmd += ["--trace-out",
                os.path.join(work, "trace-%s-%d.json" % (workload, args.seed))]
    try:
        run = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    out = run.stdout.decode()
    if run.returncode != 0:
        # Keep the report readable but never let a failed run's result
        # line be taken for a result.
        sys.stderr.write(out)
        print("perfbench: exit code %d" % run.returncode, file=sys.stderr)
        return 1
    sys.stdout.write(out)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
