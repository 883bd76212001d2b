#!/usr/bin/env python3
"""Builds the `tornado` server and the perfbench binary, then runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload degraded_read --seed 1 --seconds 30 --trace 0

Build output goes to $CARGO_TARGET_DIR (default `.bench_build`). The last
line of standard output is the benchmark's result object; cargo's output goes
to standard error. Exits non-zero, printing no result, when either build
fails.
"""

import argparse
import glob
import os
import re
import subprocess
import sys

WORKLOADS = ("ingest_durable", "degraded_read", "fault_search")


def vendored_patches(root):
    """`--config` arguments that point crates.io names at the offline
    stand-ins under vendor/, as the root workspace's [patch] table does."""
    args = []
    for manifest in sorted(glob.glob(os.path.join(root, "vendor", "*", "Cargo.toml"))):
        with open(manifest, encoding="utf-8") as f:
            m = re.search(r'^name\s*=\s*"([^"]+)"', f.read(), re.MULTILINE)
        if m:
            path = os.path.dirname(manifest)
            args += ["--config", f'patch.crates-io.{m.group(1)}.path="{path}"']
    return args


def build(cmd, env):
    result = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if result.returncode != 0:
        print(f"perfbench: build failed: {' '.join(cmd)}", file=sys.stderr)
        sys.exit(result.returncode or 1)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    root = os.getcwd()
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cargo = ["cargo", "build", "--offline", "--release", "--quiet"]
    build(cargo + ["-p", "tornado-cli", "--bin", "tornado"], env)
    build(cargo + ["--manifest-path", "perfbench/Cargo.toml"] + vendored_patches(root), env)

    release = os.path.join(target, "release")
    cmd = [
        os.path.join(release, "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed % 2**64),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--tornado", os.path.join(release, "tornado"),
        "--work", os.path.join(target, "perfbench-work", f"{args.workload}-{os.getpid()}"),
        "--manifest", os.path.join(root, "BENCHMARK.json"),
        "--trace-out", os.path.join(target, f"perfbench-trace-{args.workload}.json"),
    ]
    sys.exit(subprocess.run(cmd).returncode)


if __name__ == "__main__":
    main()
