#!/usr/bin/env python3
"""Translation-validation gate (ctest: srp_semantic_gate).

Runs `srpc -verify-each=semantic --stats-json` over the golden corpus
and every oracle workload, across all six promotion modes, and requires
every pass of every run to be *proven* semantically equivalent to its
pre-pass snapshot (docs/TRANSLATION_VALIDATION.md):

  - the run must succeed (ok == true, no errors),
  - the `validation` stats section must be present and well-formed,
  - zero failed proof obligations,
  - every web the promoters reported must be proven
    (webs_proven == webs_checked),
  - the validation work summed over the matrix must equal
    EXPECTED_TOTALS exactly,
  - the SHA-256 digests of every run's remarks (`--remarks-json`) and
    printed IR (`-print-ir-after`, which carries the mu/chi operands and
    memory version numbers) must equal the committed digest table
    (--digests). A change that must not move promotion output proves it
    by leaving the table as it is; a deliberate change re-records it with
    SRP_UPDATE_GOLDEN=1, the golden corpus's convention.

This is the end-to-end slice of tests/TransValidateTest.cpp: the exact
CLI a user types, over the same programs the differential oracle and
golden-corpus suites pin down.
"""

import argparse
import concurrent.futures
import glob
import hashlib
import json
import os
import subprocess
import sys
import tempfile

MODES = ["none", "paper", "noprofile", "baseline", "superblock", "memopt"]

VALIDATION_FIELDS = [
    "passes_validated",
    "functions_validated",
    "functions_skipped_identical",
    "effect_pairs_matched",
    "obligations_proven",
    "obligations_failed",
    "webs_checked",
    "webs_proven",
    "wall_seconds",
]

# Validation work over the 192-run matrix (12 workloads + 20 golden-corpus
# programs, x 6 modes). The counts are deterministic, so they are gated
# exactly: a drift means the validator, or the snapshots and changed-function
# sets the pass manager hands it, changed. Re-record them only for a
# deliberate change to the validator, the passes or the program set.
EXPECTED_TOTALS = {
    "passes_validated": 526,
    "functions_validated": 2220,
    "functions_skipped_identical": 5693,
    "effect_pairs_matched": 12786,
    "obligations_proven": 228306,
    "webs_checked": 4223,
    "webs_proven": 4223,
}


def run_key(path, mode):
    """The digest-table key of one run: "<dir>/<file>\t<mode>"."""
    parent = os.path.basename(os.path.dirname(os.path.abspath(path)))
    return f"{parent}/{os.path.basename(path)}\t{mode}"


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def check_one(srpc, path, mode, work_dir):
    """Returns (failures, validation-stats, digests) for one (program,
    mode) run; digests is "<remarks sha256>\t<printed-IR sha256>"."""
    name = f"{os.path.basename(path)} mode={mode}"
    remarks_path = os.path.join(
        work_dir, run_key(path, mode).replace("/", "_").replace("\t", "_")
        + ".remarks.json")
    # With --stats-json, stdout carries only the report and the printed IR
    # goes to stderr.
    proc = subprocess.run(
        [srpc, f"--mode={mode}", "--verify-each=semantic", "--stats-json",
         "--quiet", "-print-ir-after", f"--remarks-json={remarks_path}",
         path],
        capture_output=True)
    stderr = proc.stderr.decode(errors="replace")
    if proc.returncode != 0:
        return [f"{name}: srpc exited {proc.returncode}:\n{stderr}"], {}, None
    try:
        report = json.loads(proc.stdout)
    except json.JSONDecodeError as e:
        return [f"{name}: bad report JSON: {e}"], {}, None
    try:
        with open(remarks_path, "rb") as f:
            remarks = f.read()
    except OSError as e:
        return [f"{name}: no remarks file: {e}"], {}, None
    digests = f"{sha256(remarks)}\t{sha256(proc.stderr)}"

    failures = []
    if not report.get("ok", False):
        failures.append(f"{name}: ok=false, errors={report.get('errors')}")
    v = report.get("validation")
    if v is None:
        return failures + [f"{name}: no `validation` section"], {}
    for field in VALIDATION_FIELDS:
        if field not in v:
            failures.append(f"{name}: validation section lacks `{field}`")
    # A run may legitimately validate zero passes (every pass left the
    # module textually unchanged); main() requires the aggregate over the
    # whole matrix to be substantial instead.
    if v.get("obligations_failed", 0) != 0:
        failures.append(
            f"{name}: {v['obligations_failed']} failed proof obligation(s)")
    if v.get("webs_proven", -1) != v.get("webs_checked", -2):
        failures.append(
            f"{name}: {v.get('webs_checked')} webs checked but only "
            f"{v.get('webs_proven')} proven")
    return failures, v, digests


DIGESTS_HEADER = (
    "# <dir>/<program>\t<mode>\t<sha256 of --remarks-json>\t"
    "<sha256 of -print-ir-after>\n"
    "# srpc --verify-each=semantic --stats-json; regenerate with "
    "SRP_UPDATE_GOLDEN=1 ctest -R srp_semantic_gate\n")


def read_digests(path):
    table = {}
    with open(path) as f:
        for line in f:
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            prog, mode, remarks, ir = line.split("\t")
            table[f"{prog}\t{mode}"] = f"{remarks}\t{ir}"
    return table


def compare_digests(got, path):
    """Failures for every run whose digests differ from the table."""
    try:
        want = read_digests(path)
    except (OSError, ValueError) as e:
        return [f"digest table {path}: {e} "
                "(record it with SRP_UPDATE_GOLDEN=1)"]
    failures = []
    for key in sorted(set(want) | set(got)):
        label = key.replace("\t", " mode=")
        if key not in got:
            failures.append(f"{label}: in the digest table but not run")
        elif key not in want:
            failures.append(f"{label}: run but not in the digest table")
        elif got[key] != want[key]:
            g_rem, g_ir = got[key].split("\t")
            w_rem, w_ir = want[key].split("\t")
            what = [n for n, a, b in (("remarks", g_rem, w_rem),
                                      ("printed IR", g_ir, w_ir)) if a != b]
            failures.append(f"{label}: {' and '.join(what)} changed "
                            "against the digest table")
    return failures


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--srpc", required=True)
    ap.add_argument("--workload-dir", required=True)
    ap.add_argument("--corpus-dir", required=True)
    ap.add_argument("--digests", required=True,
                    help="committed table of per-run output digests")
    ap.add_argument("--jobs", type=int, default=os.cpu_count() or 4)
    args = ap.parse_args()

    programs = sorted(glob.glob(os.path.join(args.workload_dir, "*.mc")))
    programs += sorted(glob.glob(os.path.join(args.corpus_dir, "*.mc")))
    if not programs:
        print("semantic gate: no programs found", file=sys.stderr)
        return 1

    runs = [(p, m) for p in programs for m in MODES]
    failures = []
    totals = {f: 0 for f in VALIDATION_FIELDS}
    digests = {}
    with tempfile.TemporaryDirectory(prefix="srp-semantic-gate-") as work, \
            concurrent.futures.ThreadPoolExecutor(args.jobs) as pool:
        for (path, mode), (fails, v, d) in zip(runs, pool.map(
                lambda pm: check_one(args.srpc, pm[0], pm[1], work), runs)):
            failures.extend(fails)
            for field in VALIDATION_FIELDS:
                totals[field] += v.get(field, 0)
            if d is not None:
                digests[run_key(path, mode)] = d

    if os.environ.get("SRP_UPDATE_GOLDEN") == "1":
        with open(args.digests, "w") as f:
            f.write(DIGESTS_HEADER)
            for key in sorted(digests):
                f.write(f"{key}\t{digests[key]}\n")
        digest_note = f"recorded {len(digests)} digest rows"
    else:
        failures.extend(compare_digests(digests, args.digests))
        digest_note = "remarks and printed IR match the digest table"

    # The matrix as a whole must have done exactly the recorded work:
    # passes snapshotted, effects paired, obligations discharged, webs
    # cross-checked. A silently skipped or duplicated validation fails.
    for field, want in EXPECTED_TOTALS.items():
        if totals[field] != want:
            failures.append(f"aggregate: total {field} is {totals[field]}, "
                            f"expected exactly {want}")

    if failures:
        print(f"semantic gate: {len(failures)} failure(s) over "
              f"{len(runs)} runs", file=sys.stderr)
        for f in failures:
            print(f"  FAIL {f}", file=sys.stderr)
        return 1
    print(f"semantic gate: {len(runs)} runs "
          f"({len(programs)} programs x {len(MODES)} modes), all proven: "
          f"{totals['passes_validated']} passes, "
          f"{totals['obligations_proven']} obligations, "
          f"{totals['webs_proven']} webs, "
          f"{totals['wall_seconds']:.1f}s validating; {digest_note}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
