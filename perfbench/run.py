#!/usr/bin/env python3
"""Build the benchmark binary from source and run it.

Usage, from the repository root:

    python3 perfbench/run.py --workload apps --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py compare RESULT.json [BASELINE.json]

Everything the build and the run write stays inside the checkout, under
.bench_build/ (or $CARGO_TARGET_DIR when it is set): the Go build cache, the
binary, temporary state directories and one result record per run. The
build uses only the local toolchain and the repository's own module, so it
needs no network. Arguments are passed through to the binary; its exit code
is this script's exit code.
"""
import os
import subprocess
import sys


def main() -> int:
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    out = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    out = os.path.join(root, out)
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(out, "gocache"),
        GOPATH=os.path.join(out, "gopath"),
        GOMODCACHE=os.path.join(out, "gopath", "pkg", "mod"),
        GOTMPDIR=tmp,
        TMPDIR=tmp,
        GOFLAGS="-mod=mod",
        GOPROXY="off",
        GOTOOLCHAIN="local",
        GOWORK="off",
        PERFBENCH_OUT=out,
    )
    binary = os.path.join(out, "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    run = subprocess.run([binary] + sys.argv[1:], env=env)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
