#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 zvbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root. The first call configures and builds
zvbench/ (which pulls in the repository's own CMakeLists.txt for the zv
library) into $CARGO_TARGET_DIR, default .bench_build; later calls only
bring that build up to date. Build output goes to stderr, so stdout carries
only the benchmark's metric lines and, last, its JSON result.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "zvbench"


def run_to_stderr(cmd):
    """Runs a build step, sending its output to stderr; exits on failure."""
    proc = subprocess.run([str(c) for c in cmd], stdout=sys.stderr)
    if proc.returncode != 0:
        sys.exit(f"run.py: '{' '.join(map(str, cmd))}' failed "
                 f"with code {proc.returncode}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        sys.exit(f"run.py: no zenvisage sources in {ROOT}; nothing to build")

    build = Path(os.environ.get("CARGO_TARGET_DIR") or ROOT / ".bench_build")
    if not build.is_absolute():
        build = Path.cwd() / build
    if not (build / "CMakeCache.txt").is_file():
        run_to_stderr(["cmake", "-S", BENCH, "-B", build,
                       "-DCMAKE_BUILD_TYPE=Release"])
    run_to_stderr(["cmake", "--build", build, "--target", "bench_zv",
                   "-j", "4"])

    proc = subprocess.run([
        str(build / "bench_zv"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--scratch", str(build),
    ])
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
