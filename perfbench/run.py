#!/usr/bin/env python3
"""Build the benchmark program from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload kv-batched --seed 1 --seconds 20 --trace 0

The Go build cache, the binary and any WAL data stay under .bench_build/
in the repository root. The program's last line of output is the JSON
result; on any failure this script exits non-zero without printing one.
"""

import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("kv-batched", "gw-lease-read", "wal-write")
RUN_TIMEOUT = 175  # seconds; the program stops itself at 170


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(ROOT, "go.mod")):
        sys.exit("perfbench: %s has no go.mod: the benchmark builds the module it sits in" % ROOT)

    os.makedirs(BUILD, exist_ok=True)
    # Keep every file the toolchain writes (build cache, module cache,
    # telemetry counters) inside the checkout.
    env = dict(os.environ, GOTOOLCHAIN="local",
               GOCACHE=os.path.join(BUILD, "gocache"),
               GOPATH=os.path.join(BUILD, "gopath"),
               XDG_CONFIG_HOME=os.path.join(BUILD, "config"))
    binary = os.path.join(BUILD, "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env)
    if build.returncode != 0:
        sys.exit("perfbench: build failed")

    cmd = [
        binary,
        "-workload", args.workload,
        "-seed", str(args.seed),
        "-seconds", str(args.seconds),
        "-trace", str(args.trace),
        "-data", os.path.join(BUILD, "data"),
    ]
    proc = subprocess.Popen(cmd, cwd=ROOT)

    def stop(signum, frame):
        proc.kill()
        proc.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.exit("perfbench: run timed out")
    sys.exit(code)


if __name__ == "__main__":
    main()
