#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

perfbench/ is a Go module of its own that imports the repository module
from its parent directory. This script builds it into the build
directory ($CARGO_TARGET_DIR, default .bench_build, relative to the
repository root) with the Go build cache, module cache, temporary files
and Go's user configuration kept there too, clears the variables that would change
what is measured (REPRO_CACHE_DIR, REPRO_ENGINE), and runs the binary
with the arguments given. The binary's output is passed through; its
last line is the JSON result. Any failure exits non-zero.
"""

import os
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def main() -> int:
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    if not os.path.isfile(os.path.join(root, "go.mod")):
        print(f"perfbench: no Go module at {root}; run from a repository checkout", file=sys.stderr)
        return 2
    build = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = os.path.join(build, "perfbench", "perfbench")

    env = dict(os.environ)
    for var in ("REPRO_CACHE_DIR", "REPRO_ENGINE", "GOFLAGS", "GOWORK"):
        env.pop(var, None)
    tmp = os.path.join(build, "go", "tmp")
    os.makedirs(tmp, exist_ok=True)
    env.update(
        GOCACHE=os.path.join(build, "go", "cache"),
        GOTMPDIR=tmp,
        TMPDIR=tmp,
        GOMODCACHE=os.path.join(build, "go", "mod"),
        GOPATH=os.path.join(build, "go", "path"),
        XDG_CONFIG_HOME=os.path.join(build, "go", "config"),
        GOENV="off",
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOWORK="off",
    )
    try:
        built = subprocess.run(
            ["go", "build", "-o", binary, "."],
            cwd=bench_dir, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"perfbench: build: {err}", file=sys.stderr)
        return 2
    if built.returncode != 0:
        sys.stderr.write(built.stdout.decode(errors="replace"))
        print("perfbench: build failed", file=sys.stderr)
        return 2

    try:
        ran = subprocess.run([binary] + sys.argv[1:], cwd=root, env=env, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"perfbench: run: {err}", file=sys.stderr)
        return 2
    return ran.returncode


if __name__ == "__main__":
    sys.exit(main())
