"""Steadiness check: run a workload k times and report each metric's spread.

    python3 perfbench/steady.py --workload NAME [--workload NAME ...] \
        [--runs 10] [--seed 1] [--seconds S] [--trace 0] [--baseline DIR]

Runs run.py once per seed (seed, seed+1, ...), one run at a time, and prints
for every metric its median and its quartile spread, (q3 - q1) / median,
with quartiles from statistics.quantiles(values, n=4).  A metric whose
spread exceeds its bound in BENCHMARK.json is flagged OVER; one above a
third of its bound is flagged wide.  The values of every run are written to
out/steady-<workload>-trace<t>.json; with --baseline DIR, a metric whose
median is worse than in DIR's file for the same workload by more than its
bound is flagged WORSE.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    result = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if result.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {result.returncode}:\n{result.stderr}")
    return json.loads(result.stdout.strip().splitlines()[-1])


def spread(values: list) -> tuple[float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median if median else float("nan")


def worse(metric: dict, new: float, old: float) -> bool:
    change = (new - old) / old
    return (change if metric["better"] == "lower" else -change) > metric["bound"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--baseline", type=Path, help="a directory of earlier steady-*.json files")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    flagged = 0
    for workload in args.workload:
        runs = [run_once(workload, args.seed + k, seconds, args.trace) for k in range(args.runs)]
        stem = f"steady-{workload}-trace{args.trace}.json"
        baseline = json.loads((args.baseline / stem).read_text()) if args.baseline else None
        out = HERE / "out" / stem
        out.parent.mkdir(exist_ok=True)
        out.write_text(json.dumps(runs, indent=1) + "\n")
        failed = sum(run["failed"] for run in runs)
        attempted = sum(run["attempted"] for run in runs)
        print(f"{workload}: {args.runs} runs, {failed} of {attempted} jobs failed, "
              f"correct in {sum(run['correct'] for run in runs)} runs")
        for name, unit_value in runs[0]["metrics"].items():
            values = [run["metrics"][name]["value"] for run in runs]
            median, rel = spread(values)
            bound = metrics[name].get("bound")
            flag = change = ""
            if bound is not None and rel > bound:
                flag = "OVER"
            elif bound is not None and rel > bound / 3:
                flag = "wide"
            if baseline is not None and bound is not None:
                old = statistics.median(run["metrics"][name]["value"] for run in baseline)
                change = f"vs baseline {median / old - 1:+.4f}"
                if worse(metrics[name], median, old):
                    flag += " WORSE"
            flagged += "OVER" in flag or "WORSE" in flag
            print(f"  {name:26s} median {median:14.6g} {unit_value['unit']:6s} "
                  f"spread {rel:8.4f}  bound {bound if bound is not None else '-'}  {change}  {flag}")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
