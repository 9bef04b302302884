#!/usr/bin/env python3
"""Build the perfbench program from source and run it.

Run from the repository root:

    python3 perfbench/run.py --workload batch --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --selftest

The Go build cache, module cache and binary go to .bench_build/, and the
trace files and each run's raw latency samples to .bench_out/, both under
the current directory. The build runs offline (GOPROXY=off) against the
repository's own module, which perfbench/go.mod replaces with the parent
directory, so outside a checkout of the repository the build fails and
nothing is measured.
"""

import os
import shutil
import subprocess
import sys

BUILD_TIMEOUT_S = 850


def main() -> int:
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    build = os.path.join(root, ".bench_build")
    binary = os.path.join(build, "perfbench")
    go = shutil.which("go")
    if go is None:
        print("perfbench: no go toolchain on PATH", file=sys.stderr)
        return 2
    env = dict(
        os.environ,
        GOFLAGS="-mod=mod",
        GOPROXY="off",
        GOTOOLCHAIN="local",
        GOCACHE=os.path.join(build, "gocache"),
        GOMODCACHE=os.path.join(build, "gomod"),
        GOPATH=os.path.join(build, "gopath"),
        CGO_ENABLED="0",
    )
    try:
        done = subprocess.run(
            [go, "build", "-o", binary, "."],
            cwd=here,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            timeout=BUILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print("perfbench: build timed out", file=sys.stderr)
        return 2
    if done.returncode != 0:
        sys.stderr.write(done.stdout.decode(errors="replace"))
        print("perfbench: build failed", file=sys.stderr)
        return 2
    spec = os.path.join(root, "BENCHMARK.json")
    out = os.path.join(root, ".bench_out")
    args = [binary, "-spec", spec, "-out", out] + sys.argv[1:]
    sys.stdout.flush()
    # The program replaces this process, so nothing is left running.
    os.execve(binary, args, env)
    return 1  # not reached


if __name__ == "__main__":
    sys.exit(main())
