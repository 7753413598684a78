"""Run-to-run spread of the end-to-end metrics, as BENCHMARK.json bounds them.

Usage: python3 bench/spread.py [--workloads a,b] [--seeds 10] [--first-seed 1]

Runs ``run.py --trace 0`` once per seed on each workload, one run at a time,
and prints per metric the median of the runs, the distance between the first
and third quartiles (``statistics.quantiles(values, n=4)``) as a share of the
median, and that metric's bound.  It also pools the pass samples of
``run_s`` across the runs and gives the highest percentile with at least 10
samples beyond it.  Results go to ``.bench_out/spread-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import OUT_DIR, ROOT, tail

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in SPEC["workloads"]))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    worst = 0.0
    for workload in args.workloads.split(","):
        runs, pooled = [], []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
                 "--seconds", str(SPEC["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True,
            )
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: incorrect output\n{proc.stderr}", file=sys.stderr)
                return 1
            runs.append({k: v["value"] for k, v in result["metrics"].items()})
            side = json.loads((OUT_DIR / f"{workload}-seed{seed}-trace0.json").read_text())
            pooled += side["run_s"]["values"]
            print(f"{workload} seed {seed}: " + "  ".join(f"{k}={v:.6g}" for k, v in runs[-1].items()),
                  file=sys.stderr)
        summary = {"workload": workload, "seeds": args.seeds, "metrics": {},
                   "pooled_run_s": tail(pooled)}
        for name, bound in bounds.items():
            values = [r[name] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            share = (q3 - q1) / median
            summary["metrics"][name] = {"median": median, "iqr_share": share, "bound": bound,
                                        "values": values}
            if name != "setup_s":
                worst = max(worst, share / bound)
            print(f"{workload:<12} {name:<12} median {median:<12.6g} IQR/median {share:8.4f}"
                  f"  bound {bound}", file=sys.stderr)
        OUT_DIR.mkdir(exist_ok=True)
        (OUT_DIR / f"spread-{workload}.json").write_text(json.dumps(summary, indent=1) + "\n")
    print(f"largest spread as a share of its bound (setup_s excluded): {worst:.3f}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
