"""The symlow benchmark: one workload, timed end to end or traced per layer.

Usage:
    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run it from the root of a checkout.  One closed-loop client: each pass is a
fresh interpreter (``worker.py``) that runs the workload's command list, and
the next pass starts only when the last one has ended; one process at a
time, no threads.  Passes repeat until ``--seconds`` have gone by, so a run
holds at least one pass.  With ``--trace 0`` every pass is untraced and the
run reports the end-to-end metrics.  With ``--trace 1`` untraced and traced
passes alternate, and the run reports the per-layer metrics and the tracing
overhead (traced minus untraced ``run_s``).

Every document is checked (``check.py``).  A human-readable summary goes to
stderr, the full record (environment, every sample, every span) to
``.bench_out/<workload>-seed<N>-trace<T>.json``, and the last line of stdout
is the result object.  Exit status 1, with no result, when a pass cannot run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import check
import workloads
from tracer import PER_LAYER

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).with_name("worker.py")
OUT_DIR = ROOT / ".bench_out"
# A run must end within 180 s; no pass may start or run past this.
HARD_LIMIT_S = 170.0
# Set-up is short and noisy, so every run takes at least this many samples.
SETUP_SAMPLES = 9
END_TO_END = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "ok_frac": "ratio"}
# One process, no helper threads in numpy's BLAS, a fixed hash seed.
CHILD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


class PassFailed(RuntimeError):
    pass


def run_pass(workload: str, seed: int, mode: str, started: float) -> dict:
    """Run one worker pass and return its decoded report."""
    remaining = HARD_LIMIT_S - (time.monotonic() - started)
    if remaining <= 0:
        raise PassFailed("out of time before the pass could start")
    env = {**os.environ, **CHILD_ENV}
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), str(ROOT), workload, str(seed), mode],
            capture_output=True, text=True, env=env, timeout=remaining, cwd=ROOT,
        )
    except subprocess.TimeoutExpired as exc:
        raise PassFailed(f"{mode} pass did not end within {remaining:.0f} s") from exc
    if proc.returncode != 0:
        raise PassFailed(f"{mode} pass exited {proc.returncode}:\n{proc.stderr}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError) as exc:
        raise PassFailed(f"{mode} pass printed no report:\n{proc.stderr}") from exc


def tail(samples: list[float]) -> dict:
    """Median, the highest percentile with at least 10 samples beyond it, count."""
    n = len(samples)
    out = {"median": statistics.median(samples), "samples": n, "values": samples}
    if n >= 11:
        p = math.floor(100 * (n - 10) / n)
        out[f"p{p}"] = statistics.quantiles(samples, n=100, method="inclusive")[p - 1]
    return out


def environment(largest_sieve: int | None) -> dict:
    def read(path: str) -> str | None:
        try:
            return Path(path).read_text().strip()
        except OSError:
            return None

    cpuinfo = read("/proc/cpuinfo") or ""
    model = next((line.split(":", 1)[1].strip() for line in cpuinfo.splitlines()
                  if line.startswith("model name")), platform.processor() or None)
    caches = {}
    for index in range(8):
        base = f"/sys/devices/system/cpu/cpu0/cache/index{index}"
        level, kind, size = read(f"{base}/level"), read(f"{base}/type"), read(f"{base}/size")
        if level and size and kind != "Instruction":
            caches[f"L{level}"] = size
    src = ROOT / "src" / "symlow"
    tree = hashlib.sha256()
    for path in sorted(src.glob("*.py")):
        tree.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    env = {
        "commit": commit,
        "src_sha256": tree.hexdigest(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "caches": caches,
    }
    if largest_sieve is not None:
        l3 = _size_bytes(caches.get("L3"))
        # Computed from the array size, not measured: one bool per integer.
        env["largest_sieve_mask_bytes_computed"] = largest_sieve + 1
        env["largest_sieve_mask_over_l3"] = (largest_sieve + 1) / l3 if l3 else None
    return env


def _size_bytes(text: str | None) -> int | None:
    if not text:
        return None
    units = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
    return int(text[:-1]) * units[text[-1]] if text[-1] in units else int(text)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "symlow" / "cli.py").is_file():
        print(f"no symlow sources under {ROOT / 'src'}", file=sys.stderr)
        return 1
    reference = check.load_reference()
    started = time.monotonic()
    cycle = ["plain", "traced"] if args.trace else ["plain"]
    passes: dict[str, list[dict]] = {mode: [] for mode in cycle}
    setups: list[dict] = []
    try:
        run_pass(args.workload, args.seed, "setup", started)  # warm the bytecode cache
        while not passes[cycle[-1]] or time.monotonic() - started < args.seconds:
            for mode in cycle:
                passes[mode].append(run_pass(args.workload, args.seed, mode, started))
            # Spread the set-up samples over the run rather than bunching them.
            setups.append(run_pass(args.workload, args.seed, "setup", started))
        while len(setups) + sum(map(len, passes.values())) < SETUP_SAMPLES:
            setups.append(run_pass(args.workload, args.seed, "setup", started))
    except PassFailed as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    # Correctness: every document of every pass, plus traced == untraced bytes.
    all_passes = [p for mode in cycle for p in passes[mode]]
    attempted = failed = drift = 0
    problems: list[dict] = []
    for report in all_passes:
        found, pass_drift = check.check_pass(report["results"], reference)
        drift = max(drift, pass_drift)
        attempted += len(found)
        for result, doc_problems in zip(report["results"], found):
            if doc_problems:
                failed += 1
                problems.append({"argv": result["argv"], "problems": doc_problems})
    digests = {}
    for report in all_passes:
        for result in report["results"]:
            digests.setdefault(check.key(result["argv"]), set()).add(check.digest(result["text"]))
    unstable = sorted(k for k, seen in digests.items() if len(seen) > 1)
    for name in unstable:
        problems.append({"argv": name.split(), "problems": ["output bytes differ between passes"]})

    plain = passes["plain"]
    setups += [p for mode in cycle for p in passes[mode]]
    run_s = tail([p["run_s"] for p in plain])
    record = {
        "workload": args.workload,
        "why": workloads.WHY[args.workload],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commands": [check.key(a) for a in workloads.commands(args.workload, args.seed)],
        "run_s": run_s,
        "setup_s": tail([p["setup_s"] for p in setups]),
        "peak_rss_mb": tail([p["peak_rss_mb"] for p in plain]),
        "run_wall_s": tail([p["run_wall_s"] for p in plain]),
        "setup_wall_s": tail([p["setup_wall_s"] for p in setups]),
        "slowdown": tail([p["slowdown"] for p in plain]),
        "command_s": {
            check.key(r["argv"]): statistics.median(p["results"][i]["seconds"] for p in plain)
            for i, r in enumerate(plain[0]["results"])
        },
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "digest_drift": drift,
        "problems": problems,
    }
    if args.trace:
        traced = passes["traced"]
        layers = {
            name: statistics.median(p["layers"][name] for p in traced)
            for name in traced[0]["layers"]
        }
        traced_run_s = statistics.median(p["run_s"] for p in traced)
        layers["cli.digest_drift"] = drift
        layers["trace.overhead_s"] = traced_run_s - run_s["median"]
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER.items()}
        record["traced_run_s"] = traced_run_s
        record["spans"] = traced[-1]["spans"]
        record["environment"] = environment(int(layers["constants.primes_up_to.max_n"]))
    else:
        values = {
            "run_s": run_s["median"],
            "setup_s": record["setup_s"]["median"],
            "peak_rss_mb": record["peak_rss_mb"]["median"],
            "ok_frac": 1.0 - record["failed_frac"],
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
        record["environment"] = environment(None)
    record["metrics"] = metrics

    OUT_DIR.mkdir(exist_ok=True)
    side = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    side.write_text(json.dumps(record, indent=1) + "\n")
    _summary(record, side)
    correct = failed == 0 and not unstable
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def _summary(record: dict, side: Path) -> None:
    err = sys.stderr
    run_s = record["run_s"]
    tail_key = next((k for k in run_s if k.startswith("p")), None)
    tail_text = (f"{tail_key} {run_s[tail_key]:.4f} s" if tail_key
                 else "no percentile has 10 samples beyond it")
    print(f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}", file=err)
    print(f"  run_s passes: {run_s['samples']}  ({tail_text})", file=err)
    for name, metric in record["metrics"].items():
        print(f"  {name:<44} {metric['value']:>16.6g} {metric['unit']}", file=err)
    print(f"  documents: {record['attempted']} attempted, {record['failed']} failed,"
          f" digest drift {record['digest_drift']}", file=err)
    for item in record["problems"]:
        print(f"  FAILED {check.key(item['argv'])}: {item['problems']}", file=err)
    print(f"  full record: {side}", file=err)


if __name__ == "__main__":
    sys.exit(main())
