#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload cold-logic|sweep-chip|daemon-warm \
        --seed N --seconds S --trace 0|1

Run from the root of a reqisc checkout. The first run configures and
builds perfbench (and the reqisc libraries it measures) from source
into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench);
later runs only rebuild what changed. Build output goes to stderr; the
benchmark's own output, whose last line is the JSON result, goes to
stdout. The exit status is the benchmark's.
"""

import os
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(root, target)
    build = os.path.join(target, "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))

    if not os.path.exists(os.path.join(build, "CMakeCache.txt")):
        configure = ["cmake", "-S", here, "-B", build,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: configure failed")
    if subprocess.run(["cmake", "--build", build, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        sys.exit("perfbench: build failed")

    cmd = [os.path.join(build, "perfbench")] + sys.argv[1:] + [
        "--root", root, "--out-dir", os.path.join(build, "out")]
    sys.stdout.flush()
    sys.exit(subprocess.run(cmd).returncode)


if __name__ == "__main__":
    main()
