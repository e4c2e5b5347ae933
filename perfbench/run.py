#!/usr/bin/env python3
"""Build physchedd and the perfbench harness from source, then run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload cold-grid|warm-grid|study \
        --seed N --seconds S --trace 0|1

Everything the build and the run write stays under .bench_build/ in the
checkout: the Go build cache, the binaries, the daemons' temporary cache
and state directories, and the exact-count records that later runs of the
same seed are checked against. The last line of standard output is the
harness's JSON result; the exit code is the harness's.
"""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")


def main():
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOMODCACHE": os.path.join(BUILD, "gomodcache"),
        "GOTMPDIR": tmp,
        "TMPDIR": tmp,
        "GOPROXY": "off",
        "GOFLAGS": "-mod=mod",
        "GOWORK": "off",
        "GOTOOLCHAIN": "local",
        "CGO_ENABLED": "0",
    })
    daemon = os.path.join(BUILD, "physchedd")
    harness = os.path.join(BUILD, "perfbench")
    for cmd, cwd in (
        (["go", "build", "-o", daemon, "./cmd/physchedd"], ROOT),
        (["go", "build", "-o", harness, "."], os.path.join(ROOT, "perfbench")),
    ):
        try:
            done = subprocess.run(cmd, cwd=cwd, env=env, stdout=sys.stderr)
        except OSError as e:
            print(f"perfbench: cannot run {cmd[0]}: {e}", file=sys.stderr)
            return 1
        if done.returncode != 0:
            print(f"perfbench: build failed: {' '.join(cmd)}", file=sys.stderr)
            return 1
    sys.stdout.flush()
    args = [harness, "-daemon", daemon, "-work", os.path.join(BUILD, "work")] + sys.argv[1:]
    return subprocess.run(args, cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
