#!/usr/bin/env python3
"""The benchmark's own test: its inputs are a pure function of the seed.

For every workload it hashes the first requests of the stream (every
client's, plus the edit-mix models registered in set-up) twice for each
of two seeds. The same seed must give a byte-identical stream; the two
seeds must differ. Run from the repository root:

    python3 e2ebench/test_stream.py
"""
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

SEEDS = (11, 12)
REQUESTS = 24


def stream_hash(binary, workload, seed):
    done = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed),
         "--dump-stream", str(REQUESTS)],
        stdout=subprocess.PIPE, text=True, check=True)
    return done.stdout.strip()


def main():
    binary = run.build()
    if binary is None:
        print("build failed", file=sys.stderr)
        return 2
    failures = 0
    for workload in run.WORKLOADS:
        hashes = {}
        for seed in SEEDS:
            first = stream_hash(binary, workload, seed)
            again = stream_hash(binary, workload, seed)
            if first != again:
                print(f"FAIL {workload} seed {seed}: {first} != {again}")
                failures += 1
            hashes[seed] = first
        if hashes[SEEDS[0]] == hashes[SEEDS[1]]:
            print(f"FAIL {workload}: seeds {SEEDS} give the same stream")
            failures += 1
        print(f"{workload}: " +
              ", ".join(f"seed {s} -> {h}" for s, h in hashes.items()))
    print("ok" if failures == 0 else f"{failures} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
