#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <churn|admit|solve> --seed <n> \
        --seconds <s> --trace <0|1>

The benchmark is a cargo package of its own (perfbench/Cargo.toml) that
depends on the repository's crates by path. It is built in release mode
into $CARGO_TARGET_DIR (default: .bench_build at the repository root),
then run with the given arguments. The build's output goes to standard
error, so the last line of standard output is the run's JSON result.
The exit code is the run's: 0 when every output check passed.
"""

import os
import subprocess
import sys
from pathlib import Path

# The run itself must end within 180 s; leave room for the build.
RUN_TIMEOUT_S = 170


def main() -> int:
    package = Path(__file__).resolve().parent
    root = package.parent
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = root / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))

    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(package / "Cargo.toml")],
        cwd=root, env=env, stdout=sys.stderr, stderr=sys.stderr,
    )
    if build.returncode != 0:
        print(f"run.py: the benchmark failed to build (exit {build.returncode})",
              file=sys.stderr)
        return 1

    binary = target / "release" / "perfbench"
    try:
        run = subprocess.run([str(binary), *sys.argv[1:]], cwd=root,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: the run exceeded {RUN_TIMEOUT_S} s and was stopped",
              file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
