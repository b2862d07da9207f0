#!/usr/bin/env python3
"""Builds the engine and the perfbench program from source, then runs one
benchmark workload (or the self-test).

Run from the repository root:

    python3 perfbench/run.py --workload whatif --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload ingest --seed 1 --seconds 10 --trace 1
    python3 perfbench/run.py --selftest

--trace 0 prints every end-to-end metric, --trace 1 the traced layer split
and per-layer metrics. The last line of standard output is the JSON result.
The build goes to $CARGO_TARGET_DIR (default .bench_build) under the
repository root; scratch files and span traces to its perfbench/work.
"""
import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# The benchmark gives up on a run that takes longer than this.
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "server", "server.h")):
        fail("no engine sources under %s/src; run from a full checkout" % ROOT)
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = [
        ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", build_dir,
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs],
    ]
    for cmd in steps:
        try:
            # Build chatter goes to stderr: stdout ends with the result line.
            done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                                  stderr=sys.stderr)
        except OSError as e:
            fail("cannot run %s: %s" % (cmd[0], e))
        if done.returncode != 0:
            fail("build step failed: " + " ".join(cmd))
    return os.path.join(ROOT, build_dir, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and not args.workload:
        fail("--workload or --selftest is required")

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(target, "perfbench")
    binary = build(build_dir)
    # Relative to the root, so the server's socket path stays short.
    workdir = os.path.relpath(os.path.join(ROOT, build_dir, "work"), ROOT)
    if args.selftest:
        cmd = [binary, "--selftest", "--workdir", workdir]
    else:
        cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--workdir", workdir]
    sys.stdout.flush()
    try:
        done = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
