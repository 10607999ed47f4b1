#!/usr/bin/env python3
"""srp-top: a polling terminal dashboard for a running `srpc --serve`.

Connects to the server's unix-domain socket and speaks the NDJSON
protocol directly (no srpc binary needed): one `{"op":"stats"}` and one
`{"op":"metrics"}` request per refresh. Renders a small top-style
screen:

    srp-top  /tmp/srpc.sock        up 00:03:12      2026-08-07 12:00:00
    jobs     submitted 120   completed 120   failed 0   1.7 jobs/s
    queue    depth 0   backpressure waits 0
    cache    job 83.3% (100/120)   analysis 64.1%   decode 71.0%
    service  p50~512us  p90~2ms  max<8ms   n=120
             1us ▁▁▂▅█▇▃▂▁  64ms

The histogram row is the server.service-micros log2 histogram from the
Prometheus snapshot, down-sampled to a sparkline between the first and
last non-empty buckets. Percentiles are bucket upper bounds, hence the
`~`: exact within a factor of two.

Usage:
    tools/srp-top.py [--socket /tmp/srpc.sock] [--interval 1.0] [--once]

`--once` prints a single snapshot and exits (useful in scripts and in
the smoke gate); otherwise it refreshes until Ctrl-C.
"""

import argparse
import json
import socket
import sys
import time

SPARKS = "▁▂▃▄▅▆▇█"  # ▁▂▃▄▅▆▇█


class ServerGone(Exception):
    pass


def request(sock_path, op):
    """One request/response round trip; returns the parsed response."""
    try:
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
            s.settimeout(5.0)
            s.connect(sock_path)
            s.sendall((json.dumps({"op": op}) + "\n").encode())
            buf = b""
            while b"\n" not in buf:
                chunk = s.recv(65536)
                if not chunk:
                    raise ServerGone("server closed the connection")
                buf += chunk
    except OSError as e:
        raise ServerGone(str(e))
    resp = json.loads(buf.split(b"\n", 1)[0])
    if not resp.get("ok"):
        raise ServerGone(f"server refused op {op!r}: {resp.get('error')}")
    return resp


def parse_prometheus(text):
    """Returns {series_name: {frozenset(label_items): value}}."""
    out = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        name_labels, _, value = line.rpartition(" ")
        labels = {}
        name = name_labels
        if "{" in name_labels:
            name, _, rest = name_labels.partition("{")
            for item in rest.rstrip("}").split(","):
                k, _, v = item.partition("=")
                labels[k] = v.strip('"')
        out.setdefault(name, {})[frozenset(labels.items())] = float(value)
    return out


def histogram_buckets(series, family):
    """Cumulative Prometheus buckets -> per-bucket [(upper, count)]."""
    raw = series.get(family + "_bucket", {})
    edges = []
    for labels, value in raw.items():
        le = dict(labels).get("le")
        edges.append((float("inf") if le == "+Inf" else float(le), value))
    edges.sort()
    buckets, prev = [], 0.0
    for le, cum in edges:
        buckets.append((le, cum - prev))
        prev = cum
    return buckets


def fmt_micros(us):
    if us == float("inf"):
        return "inf"
    if us >= 1e6:
        return f"{us / 1e6:.0f}s"
    if us >= 1e3:
        return f"{us / 1e3:.0f}ms"
    return f"{us:.0f}us"


def fmt_uptime(seconds):
    s = int(seconds)
    return f"{s // 3600:02d}:{s % 3600 // 60:02d}:{s % 60:02d}"


def percentile(buckets, total, q):
    """Upper bound of the bucket holding the q-quantile observation."""
    need, seen = q * total, 0.0
    for le, count in buckets:
        seen += count
        if seen >= need:
            return le
    return buckets[-1][0] if buckets else 0.0


def sparkline(buckets, width=24):
    """Sparkline over the non-empty span of the histogram."""
    nonzero = [i for i, (_, c) in enumerate(buckets) if c > 0]
    if not nonzero:
        return "", "", ""
    lo, hi = nonzero[0], nonzero[-1]
    span = buckets[lo:hi + 1]
    if len(span) > width:  # merge pairs until it fits (keeps log scale)
        merged = []
        for i in range(0, len(span), 2):
            chunk = span[i:i + 2]
            merged.append((chunk[-1][0], sum(c for _, c in chunk)))
        span = merged
    peak = max(c for _, c in span)
    bars = "".join(SPARKS[min(len(SPARKS) - 1,
                              int(c / peak * (len(SPARKS) - 1) + 0.5))]
                   if c else SPARKS[0] for _, c in span)
    return bars, fmt_micros(buckets[lo][0]), fmt_micros(span[-1][0])


def rate(pct_num, pct_den):
    return f"{100.0 * pct_num / pct_den:.1f}%" if pct_den else "n/a"


def render(sock_path, stats, series, prev):
    lines = []
    now = time.strftime("%Y-%m-%d %H:%M:%S")
    up = fmt_uptime(stats.get("uptime_seconds", 0))
    lines.append(f"srp-top  {sock_path}    up {up}    {now}")

    sub = stats.get("jobs_submitted", 0)
    done = stats.get("jobs_completed", 0)
    failed = stats.get("jobs_failed", 0)
    jps = ""
    if prev is not None:
        dt = time.monotonic() - prev[0]
        if dt > 0:
            jps = f"   {max(0, done - prev[1]) / dt:.1f} jobs/s"
    lines.append(f"jobs     submitted {sub}   completed {done}   "
                 f"failed {failed}{jps}")

    depth = series.get("srp_server_queue_depth", {})
    depth = int(next(iter(depth.values()), 0))
    lines.append(f"queue    depth {depth}   backpressure waits "
                 f"{stats.get('backpressure_waits', 0)}")

    cache = stats.get("job_cache", {})
    hits, misses = cache.get("hits", 0), cache.get("misses", 0)
    an = stats.get("analysis_cache", {})
    by = stats.get("bytecode_cache", {})
    lines.append(
        f"cache    job {rate(hits, hits + misses)} ({hits}/{hits + misses})"
        f"   analysis {rate(an.get('hits', 0), an.get('hits', 0) + an.get('misses', 0))}"
        f"   decode {rate(by.get('decode_cache_hits', 0), by.get('decode_cache_hits', 0) + by.get('functions_decoded', 0))}")

    buckets = histogram_buckets(series, "srp_server_service_micros")
    total = sum(c for _, c in buckets)
    if total:
        p50 = fmt_micros(percentile(buckets, total, 0.50))
        p90 = fmt_micros(percentile(buckets, total, 0.90))
        pmax = fmt_micros(percentile(buckets, total, 1.00))
        lines.append(f"service  p50~{p50}  p90~{p90}  max<{pmax}   "
                     f"n={int(total)}")
        bars, lo, hi = sparkline(buckets)
        lines.append(f"         {lo} {bars} {hi}")
    else:
        lines.append("service  (no jobs yet)")
    return "\n".join(lines)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--socket", default="/tmp/srpc.sock")
    ap.add_argument("--interval", type=float, default=1.0)
    ap.add_argument("--once", action="store_true",
                    help="print one snapshot and exit")
    args = ap.parse_args()

    prev = None
    try:
        while True:
            try:
                stats = request(args.socket, "stats")["stats"]
                metrics = request(args.socket, "metrics")["prometheus"]
            except ServerGone as e:
                sys.exit(f"srp-top: {e}")
            series = parse_prometheus(metrics)
            screen = render(args.socket, stats, series, prev)
            prev = (time.monotonic(), stats.get("jobs_completed", 0))
            if args.once:
                print(screen)
                return
            # Clear + home, like top(1); keeps scrollback usable.
            sys.stdout.write("\x1b[H\x1b[2J" + screen + "\n")
            sys.stdout.flush()
            time.sleep(args.interval)
    except KeyboardInterrupt:
        print()


if __name__ == "__main__":
    main()
