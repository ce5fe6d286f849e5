#!/usr/bin/env python3
"""Build and run the campaign-trial benchmark.

Usage, from the root of the repository:

    python3 trialbench/run.py --workload trial-sim --seed 1 --seconds 20 --trace 0

Builds trialbench/trialbench.exe with dune (inside the repository's
_build directory), then runs it with the arguments given here, which it
checks itself. The program measures for --seconds, checks its outputs
and prints, as the last line of its standard output, one JSON object
with the keys correct, attempted, failed and metrics: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1. Exit code
0 means every check passed. Artifacts and span dumps go to
.trialbench_out/ at the repository root.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join("_build", "default", "trialbench", "trialbench.exe")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def main():
    # Keep the build inside the checkout: no shared dune cache. Build
    # output goes to stderr so that the result stays the last stdout line.
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "--display", "quiet",
             "./trialbench/trialbench.exe"],
            cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr,
            timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"trialbench: build failed: {e}", file=sys.stderr)
        return 1
    if build.returncode != 0:
        print("trialbench: build failed", file=sys.stderr)
        return 1

    sys.stdout.flush()
    try:
        run = subprocess.run([EXE] + sys.argv[1:], cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"trialbench: run failed: {e}", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
