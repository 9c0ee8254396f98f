#!/usr/bin/env python3
"""Builds the perfbench package from source and runs it.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload alg4-tcp --seed 42 --seconds 15 --trace 0
    python3 perfbench/run.py                # every workload in one process
    python3 perfbench/run.py --trace 1 --seconds 0   # the timing decorators are transparent

Every argument is passed to the benchmark binary. The build goes to
$CARGO_TARGET_DIR, or to .bench_build at the repository root. The last
line of standard output is the run's JSON result; the exit code is not 0
when the build, a job or a correctness check fails.
"""

import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# The binary's defaults, for the run's time limit.
DEFAULT_SECONDS = 15.0
WORKLOAD_COUNT = 4
# Set-up, yardsticks and the last job's overrun of one workload take
# well under this; a run that takes longer is stopped as hung.
MARGIN_S = 160


def time_limit(argv):
    """Seconds the run may take: per workload, its budget plus MARGIN_S."""
    flags = dict(zip(argv[::2], argv[1::2]))
    try:
        seconds = float(flags.get("--seconds", DEFAULT_SECONDS))
    except ValueError:
        seconds = DEFAULT_SECONDS
    workloads = WORKLOAD_COUNT if flags.get("--workload", "all") == "all" else 1
    return workloads * (seconds + MARGIN_S)


def rustflags():
    """The flags the build uses: $RUSTFLAGS, else the repository's cargo config."""
    if os.environ.get("RUSTFLAGS"):
        return os.environ["RUSTFLAGS"]
    try:
        with open(os.path.join(ROOT, ".cargo", "config.toml")) as f:
            match = re.search(r"^rustflags\s*=\s*\[(.*?)\]", f.read(), re.M | re.S)
    except OSError:
        return "none"
    return " ".join(re.findall(r'"([^"]*)"', match.group(1))) if match else "none"


def main():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(ROOT, "perfbench", "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    rustc = subprocess.run(["rustc", "--version"], cwd=ROOT, env=env,
                           capture_output=True, text=True).stdout.strip()
    env.update(PERFBENCH_RUSTC=rustc or "unknown", PERFBENCH_RUSTFLAGS=rustflags())
    binary = os.path.join(target, "release", "perfbench")
    limit = time_limit(sys.argv[1:])
    try:
        return subprocess.run([binary, *sys.argv[1:]], cwd=ROOT, env=env,
                              timeout=limit).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {limit:.0f} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
