#!/usr/bin/env python3
"""Compile-server smoke gate (ctest: srp_server_smoke).

Starts an `srpc --serve` daemon on a private socket, submits 20
mixed-mode jobs through `srpc --connect`, and checks that every remote
report is behaviourally identical to a local one-shot run of the same
job: same ok / exit_value / printed output / final-memory digest /
static+dynamic operation counts. The job list deliberately repeats
(workload, mode) pairs so the server's job cache answers some requests.
A follow-up phase resubmits already-cached pairs on the engine the first
phase did not use (`-interp=bytecode` where the default engine is native,
`-interp=native` elsewhere): those must miss the default-engine cache
entries (the engine is part of the job fingerprint), match a local run on
that engine, and hit on their own resubmission — an exact miss count pins
the fingerprint.

An observability phase then submits jobs with `--remarks-json` and
`--trace-out` over `--connect` (under SRP_TRACE_DETERMINISTIC=1) and
diffs the written files byte-for-byte against a local one-shot run —
including on the cache-hit resubmission, which must replay the stored
documents, and a `--remarks-filter` variant, which must occupy its own
cache slot. Finally the gate scrapes `--server-metrics-prom` and
validates the Prometheus exposition (family headers, cumulative
buckets, populated service-time histogram, byte-stable across two
idle scrapes), queries stats, and finishes with a clean `--shutdown`,
asserting the daemon drains and exits 0.

A last phase starts a second daemon with RLIMIT_NOFILE = 12 and holds 16
connections open, so `accept` fails with EMFILE while clients wait in the
listen backlog. Over a 1 s hold the daemon must stay idle (under 0.2
CPU-seconds, read from /proc/<pid>/stat), a waiting client must be
served once the answered ones close, and `--shutdown` must exit 0.

This is the end-to-end slice of tests/ServerTest.cpp: real processes,
real socket, the exact CLI a user types.
"""

import argparse
import json
import os
import resource
import select
import socket
import subprocess
import sys
import time

MODES = ["none", "paper", "noprofile", "baseline", "superblock", "memopt"]

# Behavioural report fields: identical whether the job ran in-process or
# on the server. (Timing and process-lifetime statistics are not.)
BEHAVIOURAL = ["file", "mode", "entry", "ok", "errors", "exit_value"]

FAILURES = []


def check(cond, what):
    if not cond:
        FAILURES.append(what)
    return cond


def run(cmd, **kw):
    return subprocess.run(cmd, capture_output=True, text=True, **kw)


def report_for(args, workload, mode, remote, extra=()):
    cmd = [args.srpc, f"--mode={mode}", "--stats-json", "--quiet"]
    cmd += list(extra)
    if remote:
        cmd += ["--connect", f"--socket={args.socket}"]
    cmd.append(workload)
    proc = run(cmd)
    where = "remote" if remote else "local"
    if not check(proc.returncode == 0,
                 f"{where} {os.path.basename(workload)} mode={mode} "
                 f"exited {proc.returncode}:\n{proc.stderr}"):
        return None
    try:
        return json.loads(proc.stdout)
    except json.JSONDecodeError as e:
        check(False, f"{where} {os.path.basename(workload)} mode={mode}: "
                     f"bad report JSON: {e}")
        return None


def compare(workload, mode, local, remote):
    tag = f"{os.path.basename(workload)} mode={mode}"
    for key in BEHAVIOURAL:
        check(local.get(key) == remote.get(key),
              f"{tag}: {key} differs: local={local.get(key)!r} "
              f"remote={remote.get(key)!r}")
    for section, keys in (
        ("exec", ["output", "final_memory_hash"]),
        ("counts", None),  # every counter is deterministic
    ):
        lsec, rsec = local.get(section, {}), remote.get(section, {})
        for key in keys if keys is not None else sorted(lsec):
            check(lsec.get(key) == rsec.get(key),
                  f"{tag}: {section}.{key} differs: "
                  f"local={lsec.get(key)!r} remote={rsec.get(key)!r}")


def observability_phase(args, workdir):
    """Remarks/trace byte parity: local one-shot vs --connect vs cache hit.

    Returns the number of submissions and distinct fingerprints it adds
    to the server's accounting (the caller's exact cache assertions).
    """
    workload = os.path.join(args.workload_dir, "compress.mc")

    def paths(tag):
        return (os.path.join(workdir, tag + ".remarks.json"),
                os.path.join(workdir, tag + ".trace.json"))

    def run_with(tag, remote, extra=()):
        remarks, trace = paths(tag)
        cmd = [args.srpc, "--mode=paper", "--quiet",
               f"--remarks-json={remarks}", f"--trace-out={trace}"]
        cmd += list(extra)
        if remote:
            cmd += ["--connect", f"--socket={args.socket}"]
        cmd.append(workload)
        proc = run(cmd)
        check(proc.returncode == 0,
              f"observability {tag} exited {proc.returncode}:\n{proc.stderr}")
        return remarks, trace

    def diff(what, a, b):
        with open(a, "rb") as fa, open(b, "rb") as fb:
            da, db = fa.read(), fb.read()
        if not check(da == db, f"{what}: {os.path.basename(a)} and "
                               f"{os.path.basename(b)} differ "
                               f"({len(da)} vs {len(db)} bytes)"):
            return
        check(len(da) > 0, f"{what}: {os.path.basename(a)} is empty")

    lr, lt = run_with("local", remote=False)
    rr, rt = run_with("remote", remote=True)
    diff("remarks local-vs-remote", lr, rr)
    diff("trace local-vs-remote", lt, rt)

    # Same job again: answered from the cache, documents replayed
    # byte-identically.
    hr, ht = run_with("remote-hit", remote=True)
    diff("remarks cache-hit replay", rr, hr)
    diff("trace cache-hit replay", rt, ht)

    # A filtered-remarks job is a distinct fingerprint with a smaller
    # remarks document that still matches its local one-shot twin.
    filt = ["--remarks-filter=mem2reg"]
    flr, _ = run_with("local-filtered", remote=False, extra=filt)
    frr, _ = run_with("remote-filtered", remote=True, extra=filt)
    diff("filtered remarks local-vs-remote", flr, frr)
    check(os.path.getsize(frr) < os.path.getsize(rr),
          "filtered remarks document is not smaller than the full one")

    return 3, 2  # submissions, distinct fingerprints


def validate_prometheus(args):
    """Scrapes --server-metrics-prom and validates the exposition text."""
    proc = run([args.srpc, "--server-metrics-prom", f"--socket={args.socket}"])
    if not check(proc.returncode == 0,
                 f"--server-metrics-prom exited {proc.returncode}:"
                 f"\n{proc.stderr}"):
        return
    text = proc.stdout
    families = {}  # name -> type
    series = {}    # full series name (no labels) -> [(labels, value)]
    for line in text.splitlines():
        if not line:
            check(False, "blank line in Prometheus exposition")
            continue
        if line.startswith("# TYPE "):
            _, _, name, kind = line.split(" ", 3)
            families[name] = kind
            continue
        if line.startswith("#"):
            continue
        name_labels, _, value = line.rpartition(" ")
        name, _, labels = name_labels.partition("{")
        check(name.startswith("srp_"),
              f"metric without srp_ prefix: {name}")
        try:
            series.setdefault(name, []).append((labels.rstrip("}"),
                                                float(value)))
        except ValueError:
            check(False, f"unparseable sample line: {line!r}")

    for fam, kind in families.items():
        if kind == "histogram":
            buckets = series.get(fam + "_bucket", [])
            check(len(buckets) > 0, f"{fam}: no bucket series")
            values = [v for _, v in buckets]
            check(values == sorted(values),
                  f"{fam}: cumulative buckets not non-decreasing")
            check(buckets[-1][0] == 'le="+Inf"',
                  f"{fam}: last bucket is {buckets[-1][0]}, not +Inf")
            count = series.get(fam + "_count", [("", -1)])[0][1]
            check(values and values[-1] == count,
                  f"{fam}: +Inf bucket {values[-1] if values else None} "
                  f"!= count {count}")
        else:
            check(fam in series, f"{fam}: TYPE header but no sample")

    for fam, kind in (("srp_server_service_micros", "histogram"),
                      ("srp_server_queue_wait_micros", "histogram"),
                      ("srp_server_queue_depth", "gauge"),
                      ("srp_server_jobs_submitted", "counter")):
        check(families.get(fam) == kind,
              f"expected {fam} family of type {kind}, got "
              f"{families.get(fam)}")
    served = series.get("srp_server_service_micros_count", [("", 0)])[0][1]
    check(served >= 1, "service-time histogram never observed a job")

    # The server is idle now: a second scrape must be byte-identical —
    # except the connection counter, which this very scrape bumps (each
    # CLI invocation is a new connection).
    def stable(t):
        return "\n".join(l for l in t.splitlines()
                         if not l.startswith("srp_server_connections "))

    again = run([args.srpc, "--server-metrics-prom",
                 f"--socket={args.socket}"])
    check(again.returncode == 0 and stable(again.stdout) == stable(text),
          "idle server scrapes are not byte-identical")


def wait_for_server(args, sock, deadline=10.0):
    end = time.monotonic() + deadline
    while time.monotonic() < end:
        if run([args.srpc, "--ping", f"--socket={sock}"]).returncode == 0:
            return True
        time.sleep(0.05)
    return False


def cpu_seconds(pid):
    """User + system CPU time of process `pid` so far, in seconds."""
    with open(f"/proc/{pid}/stat") as f:
        fields = f.read().rsplit(")", 1)[1].split()
    # fields[0] is field 3 (state); utime and stime are fields 14 and 15.
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def fd_limit_phase(args):
    """More connections than the daemon has descriptors for."""
    sock = args.socket + ".fdlimit"

    def limit_fds():
        resource.setrlimit(resource.RLIMIT_NOFILE, (12, 12))

    server = subprocess.Popen(
        [args.srpc, "--serve", f"--socket={sock}", "--threads=1"],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        preexec_fn=limit_fds)
    conns = []
    try:
        if not check(wait_for_server(args, sock),
                     "fd-limit server never answered --ping"):
            return
        for _ in range(16):
            conn = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            conn.connect(sock)  # the listen backlog takes what accept cannot
            conn.sendall(b'{"op":"ping"}\n')
            conns.append(conn)
        before = cpu_seconds(server.pid)
        time.sleep(1.0)
        used = cpu_seconds(server.pid) - before
        check(used < 0.2, f"daemon used {used:.2f} CPU-s over a 1 s hold "
                          f"at its descriptor limit")
        answered = [c for c in conns if select.select([c], [], [], 0)[0]]
        waiting = [c for c in conns if c not in answered]
        if not check(answered and waiting,
                     f"{len(answered)} of {len(conns)} held connections "
                     f"answered; the descriptor limit should leave some "
                     f"waiting"):
            return
        for conn in answered:
            conn.close()
        waiting[0].settimeout(10)
        try:
            reply = waiting[0].recv(4096)
        except socket.timeout:
            reply = b""
        check(b'"ok":true' in reply,
              "a waiting connection was not served once the answered "
              f"ones closed (got {reply!r})")
        for conn in waiting:
            conn.close()
        conns = []
        check(run([args.srpc, "--shutdown",
                   f"--socket={sock}"]).returncode == 0,
              "--shutdown failed at the descriptor limit")
        try:
            rc = server.wait(timeout=10)
            check(rc == 0, f"fd-limit server exited {rc} after shutdown")
        except subprocess.TimeoutExpired:
            check(False, "fd-limit server did not exit within 10s of "
                         "--shutdown")
    finally:
        for conn in conns:
            conn.close()
        if server.poll() is None:
            server.kill()
            server.wait()


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--srpc", required=True)
    ap.add_argument("--workload-dir", required=True)
    ap.add_argument("--socket", default=None)
    ap.add_argument("--jobs", type=int, default=20)
    args = ap.parse_args()
    if args.socket is None:
        args.socket = f"/tmp/srp-smoke-{os.getpid()}.sock"

    workloads = [os.path.join(args.workload_dir, w + ".mc")
                 for w in ("compress", "li", "eqntott", "go")]
    for w in workloads:
        if not os.path.exists(w):
            sys.exit(f"missing workload {w}")

    # Deterministic trace timestamps (sequence numbers) for the whole
    # process tree, so the observability phase can diff trace documents
    # byte-for-byte across local/remote/cache-hit runs.
    os.environ["SRP_TRACE_DETERMINISTIC"] = "1"
    workdir = os.path.join(os.path.dirname(args.socket) or ".",
                           f"srp-smoke-obs-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)

    server = subprocess.Popen(
        [args.srpc, "--serve", f"--socket={args.socket}",
         "--threads=2", "--queue=8"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    try:
        if not check(wait_for_server(args, args.socket),
                     "server never answered --ping"):
            server.kill()
            report_and_exit(server)

        # gcd(4 workloads, 6 modes) = 2, so the 20-job sequence covers all
        # 12 distinct (workload, mode) pairs and then repeats 8 — the
        # repeats must come back as job-cache hits with identical reports.
        jobs = [(workloads[i % len(workloads)], MODES[i % len(MODES)])
                for i in range(args.jobs)]
        default_engine = None
        for workload, mode in jobs:
            local = report_for(args, workload, mode, remote=False)
            remote = report_for(args, workload, mode, remote=True)
            if local is not None and remote is not None:
                compare(workload, mode, local, remote)
                default_engine = local.get("interp", {}).get("engine")
        check(default_engine in ("bytecode", "native"),
              f"default engine reported as {default_engine!r}")

        # Engine phase: resubmit pairs the first phase already cached, on
        # the engine it did not use, with the same (default) JIT
        # threshold. Only the engine tells these jobs apart from the
        # cached ones, so they must MISS those entries (a collision would
        # hand back a report naming the default engine), behave
        # identically to a local run on that engine, and hit the cache on
        # their own resubmission. Twice each -> 4 extra jobs, 2 extra
        # distinct fingerprints.
        other = "bytecode" if default_engine == "native" else "native"
        engine_flags = [f"--interp={other}"]
        engine_jobs = [(workloads[0], MODES[0]), (workloads[1], MODES[1])]
        for workload, mode in engine_jobs * 2:
            local = report_for(args, workload, mode, remote=False,
                               extra=engine_flags)
            remote = report_for(args, workload, mode, remote=True,
                                extra=engine_flags)
            if local is not None and remote is not None:
                compare(workload, mode, local, remote)
                tag = f"{os.path.basename(workload)} mode={mode}"
                engine = remote.get("interp", {}).get("engine")
                check(engine == other,
                      f"{tag}: remote {other} job reported engine="
                      f"{engine!r} — job-cache fingerprint collision "
                      f"with the {default_engine} entry")

        # Observability phase: remarks/trace byte parity over the wire,
        # then validate the Prometheus scrape while jobs have run.
        obs_total, obs_distinct = observability_phase(args, workdir)
        validate_prometheus(args)

        total = len(jobs) + 2 * len(engine_jobs) + obs_total
        stats_proc = run([args.srpc, "--server-stats",
                          f"--socket={args.socket}"])
        if check(stats_proc.returncode == 0,
                 f"--server-stats exited {stats_proc.returncode}"):
            stats = json.loads(stats_proc.stdout)
            check(stats.get("jobs_submitted") == total,
                  f"jobs_submitted={stats.get('jobs_submitted')}, "
                  f"expected {total}")
            check(stats.get("jobs_failed") == 0,
                  f"jobs_failed={stats.get('jobs_failed')}")
            cache = stats.get("job_cache", {})
            hits = cache.get("hits", 0)
            # Distinct default-engine fingerprints + distinct other-engine
            # ones; every other submission must be a hit. An exact miss
            # count pins the fingerprint: an engine collision would show
            # fewer misses, a spuriously run-sensitive key more.
            distinct = len(set(jobs)) + len(set(engine_jobs)) + obs_distinct
            check(cache.get("misses") == distinct,
                  f"expected exactly {distinct} distinct job "
                  f"fingerprints ({len(set(jobs))} {default_engine} + "
                  f"{len(set(engine_jobs))} {other} + {obs_distinct} "
                  f"observability), got {cache.get('misses')} misses")
            check(hits == total - distinct,
                  f"expected {total - distinct} cache hits on repeated "
                  f"jobs, got {hits}")

        check(run([args.srpc, "--shutdown",
                   f"--socket={args.socket}"]).returncode == 0,
              "--shutdown failed")
        try:
            rc = server.wait(timeout=10)
            check(rc == 0, f"server exited {rc} after shutdown")
        except subprocess.TimeoutExpired:
            check(False, "server did not exit within 10s of --shutdown")
            server.kill()
        check(not os.path.exists(args.socket),
              "socket file left behind after shutdown")
        fd_limit_phase(args)
    finally:
        if server.poll() is None:
            server.kill()
        import shutil
        shutil.rmtree(workdir, ignore_errors=True)
    report_and_exit(server)


def report_and_exit(server):
    if FAILURES:
        print(f"srp_server_smoke: {len(FAILURES)} failure(s)")
        for f in FAILURES:
            print(f"  FAIL: {f}")
        out = server.stdout.read() if server.stdout else ""
        if out:
            print("--- server output ---")
            print(out)
        sys.exit(1)
    print("srp_server_smoke: ok (parity, cache hits, remarks/trace "
          "byte parity, prometheus scrape, clean shutdown, descriptor "
          "limit)")
    sys.exit(0)


if __name__ == "__main__":
    main()
