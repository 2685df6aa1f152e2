#!/usr/bin/env python3
"""Builds fedbench from this checkout's sources and runs one workload.

    python3 fedbench/run.py --workload hot_calls --seed 1 --seconds 10 --trace 0

Run it from the root of the checkout. The Release build goes to the
directory named by CARGO_TARGET_DIR (default .bench_build), relative to the
current directory; the first run builds, later runs only relink what changed.
Build output goes to stderr. stdout is the benchmark's own: a summary, then
one JSON line with the keys correct, attempted, failed and metrics. With
--trace 1 the benchmark's spans are also written to
<build dir>/traces/<workload>-seed<seed>.jsonl. The exit code is non-zero
when the build fails, the benchmark fails, or a correctness check fails.
"""

import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("hot_calls", "bulk_rows", "tenant_mix")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def run(cmd, timeout, capture=False):
    """Runs cmd in its own process group; kills the whole group on timeout."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE if capture else sys.stderr,
                            stderr=sys.stderr, start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    return proc.returncode, out


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for cmd in (["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", build_dir, "--target", "fedbench", "-j", jobs]):
        code, _ = run(cmd, BUILD_TIMEOUT_S)
        if code != 0:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build(build_dir):
        print("fedbench: build failed", file=sys.stderr)
        return 1
    cmd = [os.path.join(build_dir, "fedbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        trace_dir = os.path.join(build_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(trace_dir, f"{args.workload}-seed{args.seed}.jsonl")]
    code, out = run(cmd, RUN_TIMEOUT_S, capture=True)
    sys.stdout.write(out)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
