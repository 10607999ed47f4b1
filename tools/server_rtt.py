#!/usr/bin/env python3
"""Round-trip times of sequential compiles against a running `srpc --serve`.

Sends COUNT compile requests for one Mini-C file over one connection,
one at a time, GAP milliseconds apart. Each source gets a distinct
leading comment, so every request misses the server's job cache and
runs the pipeline. Prints each round trip, then the median, p90 and max.

Usage:
    srpc --serve --socket=/tmp/s.sock --threads=2 &
    tools/server_rtt.py --socket=/tmp/s.sock workloads/compress.mc
    srpc --shutdown --socket=/tmp/s.sock

Exits 1 if a request fails or the connection drops.
"""

import argparse
import json
import os
import socket
import statistics
import sys
import time


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("file", help="Mini-C source to compile")
    p.add_argument("--socket", default="/tmp/srpc.sock")
    p.add_argument("--count", type=int, default=40)
    p.add_argument("--gap-ms", type=float, default=13.0)
    args = p.parse_args()

    with open(args.file) as f:
        source = f.read()
    name = os.path.basename(args.file)
    conn = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    conn.connect(args.socket)
    reader = conn.makefile("r")

    rtts = []
    for i in range(args.count):
        time.sleep(args.gap_ms / 1e3)
        req = {"op": "compile", "id": i + 1, "name": name,
               "source": f"// request {i}\n" + source}
        t0 = time.monotonic()
        conn.sendall((json.dumps(req) + "\n").encode())
        line = reader.readline()
        rtt_ms = (time.monotonic() - t0) * 1e3
        if not line:
            print("server closed the connection", file=sys.stderr)
            return 1
        resp = json.loads(line)
        if not resp.get("ok") or resp.get("cache_hit"):
            print(f"request {i}: unexpected response {line[:200]}",
                  file=sys.stderr)
            return 1
        rtts.append(rtt_ms)
        print(f"{i:3d}  {rtt_ms:8.2f} ms")
    conn.close()

    rtts.sort()
    print(f"n={len(rtts)}  median {statistics.median(rtts):.2f} ms  "
          f"p90 {rtts[int(0.9 * (len(rtts) - 1))]:.2f} ms  "
          f"max {rtts[-1]:.2f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
