#!/usr/bin/env python3
"""Build the benchmark from source and run it.

Run from the repository root:

    python3 perfbench/run.py --workload kv-read-hot --seed 1 --seconds 30 --trace 0

Builds perfbench/main.exe with dune (the shared dune cache is disabled so
the build writes only under _build/), then runs it with the given
arguments. Traced runs (--trace 1) also write their spans to
perfbench/out/. The last line of standard output is the result object;
the exit code is the benchmark's own (non-zero when a check fails).
"""

import os
import subprocess
import sys


def main():
    if not os.path.isfile("dune-project"):
        sys.stderr.write("run.py: no dune-project here; run from the repository root\n")
        return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/main.exe"],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        sys.stderr.write("run.py: build failed\n")
        return build.returncode or 1
    exe = os.path.join("_build", "default", "perfbench", "main.exe")
    spans = os.path.join("perfbench", "out")
    return subprocess.run([exe] + sys.argv[1:] + ["--spans-dir", spans]).returncode


if __name__ == "__main__":
    sys.exit(main())
