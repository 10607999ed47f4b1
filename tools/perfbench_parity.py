#!/usr/bin/env python3
"""Benchmark replay-parity gate (ctest: perfbench_replay_parity).

The traced replay of perfbench (perfbench/src/Replay.cpp) copies the
pipeline's stages and PassManager::run by hand. This gate runs every
benchmark workload traced for a short while and fails unless each run
exits cleanly and prints `parity ok`, i.e. the replay still reproduces
the pipeline's deterministic counters exactly.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    with open(os.path.join(ROOT, "perfbench", "workloads.json")) as f:
        workloads = [w["name"] for w in json.load(f)["workloads"]]
    failed = []
    for w in workloads:
        proc = subprocess.run(
            [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
             "--workload", w, "--seconds", "2", "--trace", "1"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0 or "parity ok" not in proc.stdout:
            failed.append(w)
    if failed:
        print("replay parity failed on: " + ", ".join(failed))
        return 1
    print("replay parity ok on %d workloads" % len(workloads))
    return 0


if __name__ == "__main__":
    sys.exit(main())
