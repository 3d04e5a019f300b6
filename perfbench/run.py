#!/usr/bin/env python3
"""Build the perfbench binary from source and run one benchmark workload.

Run from the repository root:

    python3 perfbench/run.py --workload cluster-read --seed 1 --seconds 20 --trace 0

The arguments go to the binary unchanged (see main.go). The Go build
cache, the binary and the trace output are kept under .bench_build/ in
the current directory, so nothing outside the checkout is written. The
exit code is the binary's, or 1 when the build fails.
"""

import os
import shutil
import signal
import subprocess
import sys

# The binary bounds its own run; this catches a hang so the run still
# ends (with a failure) within the benchmark's time limit.
RUN_TIMEOUT_S = 175


def main():
    root = os.getcwd()
    build = os.path.join(root, ".bench_build")
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOMODCACHE=os.path.join(build, "gomodcache"),
        GOPATH=os.path.join(build, "gopath"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOWORK="off",
        GOFLAGS="",
        CGO_ENABLED="0",
    )
    go = shutil.which("go")
    if go is None:
        print("perfbench: no go toolchain on PATH", file=sys.stderr)
        return 1
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(
        [go, "build", "-o", binary, "."],
        cwd=os.path.join(root, "perfbench"),
        env=env,
        stdout=sys.stderr,
    )
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    proc = subprocess.Popen([binary, "--root", root] + sys.argv[1:], env=env)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


if __name__ == "__main__":
    sys.exit(main())
