#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark from the repository root.

    python3 e2ebench/run.py --workload cold-mixed --seed 1 --seconds 25 --trace 0

builds e2ebench (Release, into .bench_build/e2ebench) from the library
sources and runs one workload; the last stdout line is the JSON result.

    python3 e2ebench/run.py --report [--seed N] [--seconds S]

runs every workload untraced and traced and prints every metric by name
with its unit (see e2ebench/README.md).
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["cold-mixed", "redundant-ladders", "edit-mix"]


def build():
    """Configures once, then builds incrementally; False on failure."""
    build_dir = os.path.join(".bench_build", "e2ebench")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs,
                  "--target", "e2ebench"])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        except OSError as e:
            print(f"run.py: {e}", file=sys.stderr)
            return None
        if done.returncode != 0:
            return None
    return os.path.join(build_dir, "e2ebench")


def run_one(binary, workload, seed, seconds, trace):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    return subprocess.run(cmd, stdout=subprocess.PIPE, text=True)


def report(binary, seed, seconds):
    """Every metric of every workload, untraced and traced."""
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            done = run_one(binary, workload, seed, seconds, trace)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                print(f"{workload} trace={trace}: FAILED (exit {done.returncode})")
                print(done.stdout)
                ok = False
                continue
            result = json.loads(lines[-1])
            print(f"== {workload} (trace {trace}): correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            for name, m in result["metrics"].items():
                print(f"   {name:32s} {m['value']:14.6g} {m['unit']}")
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--report", action="store_true")
    args = p.parse_args()
    if not args.report and not args.workload:
        p.error("--workload or --report is required")
    binary = build()
    if binary is None:
        print("run.py: build failed", file=sys.stderr)
        return 2
    if args.report:
        return report(binary, args.seed, args.seconds)
    done = run_one(binary, args.workload, args.seed, args.seconds, args.trace)
    sys.stdout.write(done.stdout)
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
