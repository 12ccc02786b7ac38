#!/usr/bin/env python3
"""Build the end-to-end benchmark from source and run it.

Usage, from the repository root:

    python3 bench/e2e/run.py --workload lna-fit --seed 1 --seconds 20 --trace 0

Every argument is passed on to e2e.exe (see bench/e2e/README.md).  The
build goes to the checkout's own _build directory with dune's shared
cache disabled, so nothing outside the checkout is read or written.
Build messages go to standard error; standard output is the
benchmark's, ending with its result line.
"""

import os
import subprocess
import sys


def main():
    root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", root, "--display", "quiet", "bench/e2e/e2e.exe"],
            cwd=root, env=env, stdout=sys.stderr)
    except OSError as e:
        sys.stderr.write("e2e: cannot run dune: %s\n" % e)
        return 2
    if build.returncode != 0:
        sys.stderr.write("e2e: build failed\n")
        return 2
    exe = os.path.join(root, "_build", "default", "bench", "e2e", "e2e.exe")
    os.chdir(root)
    sys.stdout.flush()
    os.execve(exe, [exe] + sys.argv[1:], env)


if __name__ == "__main__":
    sys.exit(main())
