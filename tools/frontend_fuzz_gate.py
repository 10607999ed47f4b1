#!/usr/bin/env python3
"""Front-end mutation gate: no input may kill srpc.

Mutates the golden corpus (tests/corpus/*.mc) and the textual IR srpc
prints for it, and runs every mutant through `srpc` (Mini-C) or
`srpc -ir` (textual IR) across the promotion modes and the native and
bytecode engines. The contract for hostile input (docs/FUZZING.md): the
exit code is 0, 1 or 2, never a signal, and every run ends within the
timeout. A sanitizer report counts as a violation too: under ASan or
UBSan each child runs with `exitcode=86` appended to ASAN_OPTIONS and
UBSAN_OPTIONS, since both runtimes otherwise exit 1, the code for an
error in the input. A violation fails the gate and names the saved
input and the command that reproduces it, with the start of its stderr.

Deterministic: the mutants depend only on SEED and the corpus, so a
failure reproduces on every run.

    python3 tools/frontend_fuzz_gate.py --srpc build/src/srpc \\
        --corpus-dir tests/corpus --work-dir build/frontend-fuzz
"""

import argparse
import concurrent.futures
import os
import random
import re
import subprocess
import sys

MODES = ("paper", "none", "noprofile", "baseline", "superblock", "memopt")
ENGINES = ("native", "bytecode")
SEED = 1
MUTANTS = 3000  # per input kind (Mini-C and IR)
TIMEOUT = 60    # seconds one srpc run may take
JOBS = min(4, os.cpu_count() or 1)
SANITIZER_EXIT = 86

# Fragments spliced into inputs: structure, keywords of both front ends,
# and literals at and beyond the int64 range.
TOKENS = ("{", "}", "(", ")", ";", ",", "[", "]", ":", "=", "0", "-1",
          "9223372036854775807", "-9223372036854775808",
          "99999999999999999999", "while", "if", "else", "return", "int",
          "void", "struct", "main", "%t0", "%a", "entry:", "ret", "br",
          "condbr", "phi", "func", "@main", "global", "call", "ld", "st")

NUMBER = re.compile(r"-?\d+")
EXTREMES = ("0", "-1", "1", "9223372036854775807", "-9223372036854775808",
            "99999999999999999999", "134217729", "4294967296")


def mutate(text, rng):
    """Applies one to three seeded edits to text."""
    for _ in range(rng.randint(1, 3)):
        lines = text.split("\n")
        op = rng.randrange(9)
        i = rng.randrange(len(lines))
        if op == 0:  # delete a line
            del lines[i]
        elif op == 1:  # duplicate a line
            lines.insert(i, lines[i])
        elif op == 2:  # swap two lines
            j = rng.randrange(len(lines))
            lines[i], lines[j] = lines[j], lines[i]
        elif op == 3:  # truncate after a line
            lines = lines[:i + 1]
        elif op == 4:  # delete a run of lines
            del lines[i:i + rng.randint(2, 10)]
        else:
            text = "\n".join(lines)
            pos = rng.randrange(len(text) + 1)
            if op == 5:  # delete a span of characters
                text = text[:pos] + text[pos + rng.randint(1, 8):]
            elif op == 6:  # splice in a token
                text = text[:pos] + " " + rng.choice(TOKENS) + " " + text[pos:]
            elif op == 7:  # replace a number with an extreme one
                nums = list(NUMBER.finditer(text))
                if nums:
                    m = rng.choice(nums)
                    text = (text[:m.start()] + rng.choice(EXTREMES) +
                            text[m.end():])
            else:  # overwrite a character
                if text:
                    pos = min(pos, len(text) - 1)
                    text = (text[:pos] + chr(rng.randrange(32, 127)) +
                            text[pos + 1:])
            continue
        text = "\n".join(lines)
    return text


def printed_ir(srpc, path, work_dir):
    """The IR srpc prints for a corpus program before and after promotion,
    kept when it parses back."""
    out = []
    for when in ("before", "after"):
        p = subprocess.run([srpc, "-print-ir-" + when, "-quiet", path],
                           capture_output=True, text=True, timeout=TIMEOUT)
        if p.returncode != 0:
            continue
        ir_path = os.path.join(work_dir, "printed.ir")
        with open(ir_path, "w") as f:
            f.write(p.stdout)
        back = subprocess.run([srpc, "-ir", "-quiet", ir_path],
                              capture_output=True, timeout=TIMEOUT)
        if back.returncode == 0:
            out.append(p.stdout)
        os.remove(ir_path)
    return out


def child_env():
    """The environment with sanitizer reports mapped to SANITIZER_EXIT."""
    env = dict(os.environ)
    for var in ("ASAN_OPTIONS", "UBSAN_OPTIONS"):
        opts = [o for o in env.get(var, "").split(":") if o]
        env[var] = ":".join(opts + ["exitcode=%d" % SANITIZER_EXIT])
    return env


def run_one(srpc, case, env):
    """Runs one mutant: (None, exit code, None) when it keeps the
    contract, else (why, command, start of stderr)."""
    args = [srpc, "-quiet", "-mode=" + case["mode"],
            "-interp=" + case["engine"]]
    if case["ir"]:
        args.append("-ir")
    args.append(case["path"])
    try:
        p = subprocess.run(args, stdout=subprocess.DEVNULL,
                           stderr=subprocess.PIPE, env=env, timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return "timed out after %ss" % TIMEOUT, args, b""
    if p.returncode in (0, 1, 2):
        return None, p.returncode, None
    head = b"\n".join(p.stderr.splitlines()[:12])
    if p.returncode < 0:
        return "killed by signal %d" % -p.returncode, args, head
    if p.returncode == SANITIZER_EXIT:
        return "sanitizer report", args, head
    return "exit code %d" % p.returncode, args, head


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--srpc", required=True)
    ap.add_argument("--corpus-dir", required=True)
    ap.add_argument("--work-dir", required=True,
                    help="mutants are written here (kept on failure)")
    args = ap.parse_args()

    corpus = sorted(os.path.join(args.corpus_dir, f)
                    for f in os.listdir(args.corpus_dir)
                    if f.endswith(".mc"))
    if not corpus:
        print("frontend-fuzz: no .mc files in " + args.corpus_dir)
        return 1
    os.makedirs(args.work_dir, exist_ok=True)
    seeds = {"mc": [], "ir": []}
    for path in corpus:
        with open(path) as f:
            seeds["mc"].append(f.read())
        seeds["ir"].extend(printed_ir(args.srpc, path, args.work_dir))

    rng = random.Random(SEED)
    cases = []
    for kind in ("mc", "ir"):
        for n in range(MUTANTS):
            text = mutate(rng.choice(seeds[kind]), rng)
            path = os.path.join(args.work_dir, "mutant-%s-%05d.%s" %
                                (kind, n, kind))
            with open(path, "w") as f:
                f.write(text)
            k = len(cases)
            cases.append({"path": path, "ir": kind == "ir",
                          "mode": MODES[k % len(MODES)],
                          "engine": ENGINES[(k // len(MODES)) % len(ENGINES)]})

    failures = []
    codes = {}
    env = child_env()
    with concurrent.futures.ThreadPoolExecutor(JOBS) as pool:
        futures = [pool.submit(run_one, args.srpc, c, env) for c in cases]
        for case, fut in zip(cases, futures):
            why, detail, head = fut.result()
            if why is None:
                codes[detail] = codes.get(detail, 0) + 1
                os.remove(case["path"])
            else:
                failures.append((why, detail, head))

    print("frontend-fuzz: %d Mini-C + %d IR mutants of %d programs "
          "(%d printed IR modules), seed %d; exit codes %s" %
          (MUTANTS, MUTANTS, len(corpus), len(seeds["ir"]), SEED,
           dict(sorted(codes.items()))))
    for why, cmd, head in failures:
        print("FAIL: %s: %s" % (why, " ".join(cmd)))
        if head:
            print(head.decode(errors="replace"))
    if failures:
        print("frontend-fuzz: %d of %d runs broke the exit-code contract" %
              (len(failures), len(cases)))
        return 1
    print("frontend-fuzz: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
