#!/usr/bin/env python3
"""Pipeline benchmark for the srp compiler.

Run one workload (from the repository root):

    python3 perfbench/run.py --workload paper-oneshot --seed 1 --seconds 20 --trace 0

builds perfbench/ (Release, into .bench_build/ or $CARGO_TARGET_DIR) and
runs the named workload as a closed loop. The last stdout line is one JSON
object with the keys correct, attempted, failed and metrics: the end-to-end
metrics with --trace 0 (times scaled to a reference host speed, raw times
printed beside them), the per-layer metrics of the traced replay with
--trace 1. Workloads, seeds and metrics are described in
perfbench/workloads.json.

Steadiness report (runs one workload N times on seeds S, S+1, ...):

    python3 perfbench/run.py --steadiness 5 --workload large-full

prints each end-to-end metric's median, quartiles and spread (interquartile
range over median) beside its bound from BENCHMARK.json, and exits 1 when a
spread exceeds its bound. setup_s is reported but not gated.

Layer shares (runs every workload traced once and records, per workload,
each layer's share of job wall time in perfbench/workloads.json):

    python3 perfbench/run.py --record-shares

The benchmark refuses to run (exit 2) when an environment variable that
swaps the program under test is set.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
META_PATH = os.path.join(BENCH_DIR, "workloads.json")

# Each of these silently changes what the pipeline runs: the engine, the
# JIT tiering, the analysis cache, or tracing inside the compiler.
GUARDED_ENV = ("SRP_INTERP", "SRP_JIT_THRESHOLD", "SRP_DISABLE_ANALYSIS_CACHE",
               "SRP_TRACE", "SRP_TRACE_DETERMINISTIC")

RUN_TIMEOUT_S = 170


def fail(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def load_json(path):
    with open(path) as f:
        return json.load(f)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    """Configures and builds the benchmark; returns the binary's path."""
    cmake_dir = os.path.join(build_dir(), "perfbench")
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", cmake_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(["ninja", "--version"], capture_output=True).returncode == 0:
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", cmake_dir, "--target", "perfbench",
                       "-j", jobs], stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(cmake_dir, "perfbench")


def commit_id():
    """The git commit when there is one, plus a digest of the compiler
    sources and workloads (checkouts without git still get an identity)."""
    digest = hashlib.sha256()
    for top in ("src", "workloads"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    git = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                         capture_output=True, text=True)
    head = git.stdout.strip() if git.returncode == 0 else "nogit"
    return head + "+src." + digest.hexdigest()[:12]


def run_once(binary, workload, seed, seconds, trace, capture):
    out_dir = os.path.join(build_dir(), "perfbench-out")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--root", ".", "--out-dir", os.path.relpath(out_dir, ROOT),
           "--commit", commit_id()]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S,
                              stdout=subprocess.PIPE if capture else None,
                              text=True)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    if not capture:
        return proc.returncode, None
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    return proc.returncode, result


def steadiness(binary, workload, runs, seed, seconds):
    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    values = {m["name"]: [] for m in bench["end_to_end"]}
    for i in range(runs):
        code, result = run_once(binary, workload, seed + i, seconds, 0, True)
        if code != 0 or not result or not result["correct"]:
            fail("run %d (seed %d) failed" % (i, seed + i))
        for name in values:
            values[name].append(result["metrics"][name]["value"])
    unsteady = []
    print("%-22s %14s %14s %14s %8s %7s" %
          ("metric", "median", "q1", "q3", "spread", "bound"))
    for m in bench["end_to_end"]:
        vals = values[m["name"]]
        q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else vals * 3
        spread = (q3 - q1) / med if med else float("inf")
        gated = m["name"] != "setup_s"
        flag = "" if spread <= m["bound"] else (" UNSTEADY" if gated else " (not gated)")
        if gated and spread > m["bound"]:
            unsteady.append(m["name"])
        print("%-22s %14.6g %14.6g %14.6g %8.4f %7.3f%s" %
              (m["name"], med, q1, q3, spread, m["bound"], flag))
    print("workload %s, %d runs, seeds %d..%d" % (workload, runs, seed, seed + runs - 1))
    return 1 if unsteady else 0


def record_shares(binary, seed, seconds):
    meta = load_json(META_PATH)
    for w in meta["workloads"]:
        code, result = run_once(binary, w["name"], seed, seconds, 1, True)
        if code != 0 or not result:
            fail("traced run of %s failed" % w["name"])
        times = {k: v["value"] for k, v in result["metrics"].items()
                 if v["unit"] == "ms" and not k.startswith("server.")}
        total = sum(times.values())
        w["layer_shares"] = {k: round(v / total, 4) for k, v in
                             sorted(times.items(), key=lambda kv: -kv[1])
                             if v / total >= 0.001}
    with open(META_PATH, "w") as f:
        json.dump(meta, f, indent=2)
        f.write("\n")
    return 0


def main():
    guarded = [v for v in GUARDED_ENV if v in os.environ]
    if guarded:
        fail("refusing to run with %s set: it changes the program under test"
             % ", ".join(guarded), code=2)
    meta = load_json(META_PATH)
    names = [w["name"] for w in meta["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=names)
    p.add_argument("--seed", type=int, default=meta["default_seed"])
    p.add_argument("--seconds", type=float,
                   default=load_json(os.path.join(ROOT, "BENCHMARK.json"))["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--steadiness", type=int, metavar="N")
    p.add_argument("--record-shares", action="store_true")
    a = p.parse_args()
    if not a.record_shares and not a.workload:
        p.error("--workload is required")
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no compiler sources under %s/src" % ROOT)

    binary = build()
    if a.record_shares:
        return record_shares(binary, a.seed, a.seconds)
    if a.steadiness:
        return steadiness(binary, a.workload, a.steadiness, a.seed, a.seconds)
    code, _ = run_once(binary, a.workload, a.seed, a.seconds, a.trace, False)
    return code


if __name__ == "__main__":
    sys.exit(main())
