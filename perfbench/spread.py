#!/usr/bin/env python3
"""Runs the benchmark on several seeds and reports each end-to-end metric's
spread: the distance between the first and third quartile of its values
(statistics.quantiles, n=4) as a share of their median, beside the bound
BENCHMARK.json gives it.

Usage, from the root of the repository:

    python3 perfbench/spread.py --workloads alg4-tcp --seeds 1-5
    python3 perfbench/spread.py --seeds 101-110        # every workload
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    for workload in args.workloads.split(","):
        values, walls = {}, []
        for seed in args.seeds:
            cmd = [*bench["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            t0 = time.monotonic()
            run = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            walls.append(time.monotonic() - t0)
            if run.returncode != 0:
                print(f"{workload} seed {seed}: exit {run.returncode}\n{run.stderr}", file=sys.stderr)
                ok = False
                continue
            result = json.loads(run.stdout.strip().splitlines()[-1])
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        for name, vals in values.items():
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            flag = "" if bound is None or spread <= bound / 3 else "  <-- above a third of the bound"
            print(f"{workload:12} {name:12} median {med:<12.6g} spread {spread:.4f} "
                  f"bound {bound}{flag}  values {[round(v, 4) for v in vals]}")
        if walls:
            print(f"{workload:12} run wall time: median {statistics.median(walls):.1f} s, "
                  f"max {max(walls):.1f} s")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
