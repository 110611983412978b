#!/usr/bin/env python3
"""Build and run the perfbench benchmark from the root of a source tree.

    python3 perfbench/run.py --workload kernels|compile --seed N \
        --seconds S --trace 0|1

Builds perfbench/bench.exe (and the library it links) and the
simd_served server it starts with dune, then runs it with the same
arguments. The last line of standard output is the
result object. Exits non-zero without a result when the tree holds no
buildable library (only the benchmark files) or the build fails.
"""

import os
import subprocess
import sys

ROOT = os.getcwd()
EXE = os.path.join("_build", "default", "perfbench", "bench.exe")


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def main():
    for needed in ("dune-project", "lib", "corpus", os.path.join("perfbench", "dune")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("run from the root of the source tree: %s is missing" % needed)
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet", "./perfbench/bench.exe",
         "./bin/simd_served.exe"],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    if build.returncode != 0:
        sys.stderr.write(build.stdout)
        fail("build failed", 1)
    result = subprocess.run([os.path.join(ROOT, EXE)] + sys.argv[1:], cwd=ROOT)
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
