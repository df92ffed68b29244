#!/usr/bin/env python3
"""Build perfbench from source and run it.

Usage, from the repository root:

    python3 perfbench/run.py --workload cold-fill|warm-store|warm-fleet \\
        --seed N --seconds S --trace 0|1

The Go build cache, temporary files and the binary live under
.bench_build/ in the repository root, so nothing is written outside the
checkout; the build is offline (GOPROXY=off, GOTOOLCHAIN=local). All
arguments pass through to the benchmark binary, which runs from the
repository root and prints its result as the last line of standard
output. The exit code is the binary's, or the build's when the build
fails (as it does when the program's sources are missing).
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def go_env():
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOTMPDIR=os.path.join(BUILD, "tmp"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOENV="off",
        GOFLAGS="-mod=readonly",
        GOWORK="off",
        GOPROXY="off",
        GOSUMDB="off",
        GOTOOLCHAIN="local",
        CGO_ENABLED="0",
    )
    return env


def main():
    os.makedirs(os.path.join(BUILD, "tmp"), exist_ok=True)
    binary = os.path.join(BUILD, "bin", "perfbench")
    build = subprocess.run(
        ["go", "build", "-o", binary, "."],
        cwd=HERE,
        env=go_env(),
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    sys.stdout.flush()
    return subprocess.run([binary] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
