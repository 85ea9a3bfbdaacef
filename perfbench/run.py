#!/usr/bin/env python3
"""Build the minflo CLI and the benchmark from source, then run the benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload table1 --seed 0 --seconds 45 --trace 0
    python3 perfbench/run.py --self-test

All arguments are passed to perfbench/main.exe (see main.ml). Build output
goes to stderr; the last line of stdout is the benchmark's result JSON.
"""

import os
import subprocess
import sys

TARGETS = ["./perfbench/main.exe", "./bin/minflo_cli.exe"]


def main():
    # the dune cache lives outside the checkout; keep every write inside it
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", *TARGETS],
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    exe = os.path.join("_build", "default", "perfbench", "main.exe")
    cli = os.path.join("_build", "default", "bin", "minflo_cli.exe")
    sys.stdout.flush()
    os.execv(exe, [exe, "--cli", cli, *sys.argv[1:]])


if __name__ == "__main__":
    sys.exit(main())
