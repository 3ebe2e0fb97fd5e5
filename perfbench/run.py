#!/usr/bin/env python3
"""Build the pipeline benchmark from source and run it.

Run from the root of a checkout:

    python3 perfbench/run.py --workload tsa-mra-pool --seed 1 --seconds 10 --trace 0

The Go module in this directory is built into .bench_build/ (binary,
build cache and scratch space all stay inside the checkout), then run
with the arguments given. The last line of standard output is the JSON
result. A failed build exits with code 2 and prints no result.
"""

import os
import subprocess
import sys


def main():
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    build = os.path.join(root, ".bench_build")
    for sub in ("gocache", "gomodcache", "gotmp", "gopath"):
        os.makedirs(os.path.join(build, sub), exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOMODCACHE=os.path.join(build, "gomodcache"),
        GOTMPDIR=os.path.join(build, "gotmp"),
        GOPATH=os.path.join(build, "gopath"),
        GOENV="off",
        GOFLAGS="-mod=readonly",
        GOPROXY="off",
        GOTOOLCHAIN="local",
        CGO_ENABLED="0",
    )
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(
        ["go", "build", "-o", binary, "."],
        cwd=here,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    if built.returncode != 0:
        sys.stderr.write("perfbench: build failed:\n" + built.stdout)
        return 2
    return subprocess.run([binary] + sys.argv[1:], cwd=root, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
