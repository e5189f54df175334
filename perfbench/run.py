#!/usr/bin/env python3
"""Build and run PRISM's benchmark from the repository root.

    python3 perfbench/run.py --workload leaf-firehose --seed 1 --seconds 10 --trace 0

Builds the perfbench Go program (a module of its own that uses the
repository's packages in place) into .bench_build/, with the Go build
cache there too, then runs it. The program's standard output is passed
through; its last line is the JSON result. The exit code is non-zero
when the build, the run or an output check fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    # Keep every file the Go toolchain writes inside the checkout.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(
        os.environ,
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOTMPDIR=tmp,
        GOENV="off",
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="-mod=readonly",
        GOWORK="off",
    )
    binary = os.path.join(BUILD, "perfbench")
    try:
        build = subprocess.run(
            ["go", "build", "-o", binary, "."],
            cwd=HERE, env=env, timeout=BUILD_TIMEOUT_S,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        sys.stderr.write("perfbench: build failed: %s\n" % e)
        return 1
    if build.returncode != 0:
        sys.stderr.write("perfbench: build failed:\n" + build.stdout)
        return 1

    cmd = [binary, "-workload", args.workload, "-seed", str(args.seed),
           "-seconds", repr(args.seconds), "-trace", str(args.trace)]
    try:
        run = subprocess.run(cmd, cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S,
                             stdout=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run did not finish within %ds\n" % RUN_TIMEOUT_S)
        return 1
    sys.stdout.write(run.stdout)
    if run.returncode != 0:
        return run.returncode
    lines = run.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write("perfbench: no JSON result line\n")
        return 1
    return 0 if result.get("correct") else 1


if __name__ == "__main__":
    sys.exit(main())
