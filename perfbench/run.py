#!/usr/bin/env python3
"""Build `rtt` and the benchmark from source, then run one workload.

    python3 perfbench/run.py --workload ingest|solve|session \
        [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root. The build is an ordinary dune build of
the two executables (dune's shared cache disabled, so nothing is
written outside the tree); the benchmark binary then replaces this
process. Its last line of output is the JSON result; everything it
writes goes under `.perfbench/` and is removed when the run ends.
"""

import os
import shutil
import subprocess
import sys

BENCH = "_build/default/perfbench/bin/main.exe"


def main():
    dune = shutil.which("dune")
    if dune is None:
        sys.stderr.write("perfbench: dune not found on PATH\n")
        return 2
    build = subprocess.run(
        [dune, "build", "--root", ".", "--cache=disabled", "--display=quiet",
         "./bin/rtt.exe", "./perfbench/bin/main.exe"],
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if build.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        return 3
    sys.stdout.flush()
    os.execv(BENCH, [BENCH] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
