#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The benchmark package builds with cargo
into $CARGO_TARGET_DIR (default `.bench_build`), then the binary runs with
the given arguments, pinned to one CPU; its standard output, whose last line is the JSON
result, passes through unchanged. A traced run also writes its spans to
`<target dir>/perfbench-spans/<workload>-seed<n>.ndjson`. The exit code is
cargo's when the build fails, else the benchmark's.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        return build.returncode

    cmd = [os.path.join(target, "release", "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        spans_dir = os.path.join(target, "perfbench-spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans", os.path.join(spans_dir, f"{args.workload}-seed{args.seed}.ndjson")]
    env["PSEP_THREADS"] = "1"
    # One CPU for the whole benchmark process: the closed loop's client
    # and daemon threads then hand over on one core instead of waking
    # each other across vCPUs, which on a shared host doubled and
    # destabilised single-request round trips.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    return subprocess.run(cmd, env=env, timeout=175).returncode


if __name__ == "__main__":
    sys.exit(main())
