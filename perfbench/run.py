#!/usr/bin/env python3
"""Build the perfbench binary from source and run it.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload fig11-mpiio --seed 0 --seconds 30 --trace 0

The binary is built into .bench_build/ at the repository root, with the
Go build cache there too, so a run reads and writes only inside the
checkout. Arguments are passed through; see main.go for their meaning.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def main():
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(
        os.environ,
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOMODCACHE=os.path.join(BUILD, "gomodcache"),
        GOTMPDIR=tmp,
        GOFLAGS="",
        GOWORK="off",
        GOPROXY="off",
        GOTOOLCHAIN="local",
    )
    binary = os.path.join(BUILD, "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                           stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    # Replace this process, so a signal to it reaches the benchmark,
    # which stops its own child processes before exiting.
    os.execve(binary, [binary] + sys.argv[1:], env)


if __name__ == "__main__":
    sys.exit(main())
