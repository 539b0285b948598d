"""Closed-loop benchmark of one workload: set-up, timed jobs, metrics.

One client in one process and one thread sends the next job when the
previous one has returned.  Every job is timed alone and its output is
checked afterwards, outside the timed section.  Times are normalised by a
fixed reference kernel timed just before and just after each job (see
README.md).
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import types
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import tracer as tracing
from run import BLAS_THREAD_VARS
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"

MODULES = ("thermo", "permutations", "catalysis", "lp", "simplex", "coherence", "cli", "errors")

# Nominal times of the reference kernel's two parts; a normalised time is the
# time the job would take if the kernel's parts ran at these speeds.
REF_NOMINAL_MS = {"python": 2.3, "lapack": 0.75}
SETUP_REPEATS = 11     # set-ups per run; setup_s is their median
MIN_JOBS = 100         # timed jobs per run at least, so p90 has ten samples beyond it
COUNT_JOBS = 20        # exact counts are summed over this many traced jobs
MAX_LOOP_S = 140.0     # the loop stops here whatever else, to end within 180 s
N_INPUTS = 2000        # seeded inputs per run; jobs cycle through them

LAYER_TIMES = {
    "catalysis.solve_ms": ("catalysis.solve_catalyst_state",),
    "catalysis.report_ms": ("catalysis.simple_perm_report",),
    "catalysis.regime_map_ms": ("catalysis.regime_map",),
    "lp.build_ms": ("lp.build_work_bound_problem",),
    "lp.self_ms": ("lp.lp_work_upper_bound",),
    "lp.dual_check_ms": ("lp.lp_dual_check",),
    "simplex.solve_ms": ("simplex.simplex_solve",),
    "permutations.images_ms": ("permutations.images_array",),
    "permutations.sweep_ms": (
        "permutations.sweep_heats", "permutations.optimal_noncatalytic", "permutations.qubit_table",
    ),
    "thermo.ms": tuple(f"thermo.{name}" for name in tracing.TRACED["thermo"]),
    "coherence.suite_ms": ("coherence.run_coherence_suite",),
    "cli.self_ms": ("cli.main",),
}
COUNT_UNITS = {
    "catalysis.solve_calls": "count",
    "lp.columns_in": "count",
    "lp.columns_kept": "count",
    "simplex.iterations": "count",
    "cli.bytes_out": "bytes",
}


class ReferenceKernel:
    """About 3 ms of interpreted Python plus small batched LAPACK solves,
    the same mix the program runs; its inputs never change.

    The machine's speed moves on a scale of seconds, and LAPACK slows more
    than the interpreter when it does, so the two parts are timed apart and
    weighted equally: `speed` is the mean of their times relative to nominal.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self.matrices = rng.standard_normal((40, 41, 41)) + 41.0 * np.eye(41)
        self.rhs = rng.standard_normal((40, 41, 1))

    def time(self) -> tuple[float, float]:
        """(Python loop, LAPACK batch) times in seconds."""
        start = time.perf_counter()
        total = 0
        for i in range(30_000):
            total += i * i % 7
        middle = time.perf_counter()
        np.linalg.solve(self.matrices, self.rhs)
        return middle - start, time.perf_counter() - middle


def speed(before: tuple[float, float], after: tuple[float, float]) -> float:
    """Slowdown against nominal, from kernel times on both sides of a span."""
    python = (before[0] + after[0]) / 2e-3 / REF_NOMINAL_MS["python"]
    lapack = (before[1] + after[1]) / 2e-3 / REF_NOMINAL_MS["lapack"]
    return (python + lapack) / 2.0


@dataclass
class Timing:
    raw_s: float
    speed: float     # 1.0 when the reference kernel runs at its nominal time
    kernel_ms: float  # mean reference-kernel time around the span

    @property
    def norm_s(self) -> float:
        return self.raw_s / self.speed


@dataclass
class JobResult:
    index: int
    timing: Timing
    problems: list
    traced: bool = False


@dataclass
class SetUp:
    timing: Timing
    problems: list


def timed(kernel: ReferenceKernel, span) -> tuple[Timing, object]:
    """Run `span()` between two reference-kernel timings."""
    before = kernel.time()
    start = time.perf_counter()
    result = span()
    raw = time.perf_counter() - start
    after = kernel.time()
    kernel_ms = (sum(before) + sum(after)) / 2e-3
    return Timing(raw, speed(before, after), kernel_ms), result


def load_twostroke() -> types.SimpleNamespace:
    """Import twostroke afresh from this checkout's src/ (dropping any copy
    already imported, so each set-up pays the import)."""
    for name in [name for name in sys.modules if name.split(".")[0] == "twostroke"]:
        del sys.modules[name]
    package = importlib.import_module("twostroke")
    if not Path(package.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"twostroke imported from {package.__file__}, not from src/")
    return types.SimpleNamespace(
        **{name: importlib.import_module(f"twostroke.{name}") for name in MODULES}
    )


def check(workload, mods, inp, out) -> list:
    try:
        return list(workload.check(mods, inp, out))
    except Exception as exc:  # a malformed output can break the checker itself
        return [f"check raised {type(exc).__name__}: {exc}"]


def set_up(workload, seed: int, kernel: ReferenceKernel) -> tuple[SetUp, types.SimpleNamespace, list]:
    """Import, inputs, cache fills and one warm-up job, timed as one span.

    Returns the timing with the warm-up job's problems, the modules and the
    job inputs."""
    gc.collect()  # frees an earlier set-up's modules, which hold reference cycles

    def span():
        mods = load_twostroke()
        inputs = [workload.make_input(np.random.default_rng([seed, i])) for i in range(N_INPUTS + 1)]
        workload.warm(mods)
        return mods, inputs, workload.run(mods, inputs[-1])

    timing, (mods, inputs, warm_output) = timed(kernel, span)
    warm_input = inputs.pop()
    return SetUp(timing, check(workload, mods, warm_input, warm_output)), mods, inputs


def execute(workload, mods, inp, index: int, kernel: ReferenceKernel, tracer=None) -> JobResult:
    def span():
        if tracer is not None:
            tracer.begin_job(index)
        try:
            return None, workload.run(mods, inp)
        except Exception as exc:
            return f"job raised {type(exc).__name__}: {exc}", None
        finally:
            if tracer is not None:
                tracer.end_job()

    if tracer is not None:
        tracer.install(mods)
    timing, (error, out) = timed(kernel, span)
    if tracer is not None:
        tracer.uninstall()
    problems = [error] if error else check(workload, mods, inp, out)
    return JobResult(index, timing, problems, tracer is not None)


def run_loop(workload, mods, inputs, kernel, seconds: float, min_jobs: int, tracer=None) -> list:
    """Closed loop until `seconds` have passed and `min_jobs` jobs are done.

    With a tracer, each input runs twice, untraced and then traced, so the
    tracing overhead is measured on the same jobs in the same run.
    """
    results = []
    start = time.perf_counter()
    index = 0
    while True:
        elapsed = time.perf_counter() - start
        if (elapsed >= seconds and index >= min_jobs) or elapsed >= MAX_LOOP_S:
            return results
        inp = inputs[index % len(inputs)]
        results.append(execute(workload, mods, inp, index, kernel))
        if tracer is not None:
            results.append(execute(workload, mods, inp, index, kernel, tracer))
        index += 1


def src_lines() -> int:
    return sum(len(path.read_bytes().splitlines()) for path in sorted((ROOT / "src").rglob("*.py")))


def git_sha() -> str:
    if not (ROOT / ".git").exists():  # an exported checkout has no history
        return "unknown"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        result = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, env=env,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return result.stdout.strip() if result.returncode == 0 else "unknown"


def quantile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def end_to_end(setups, jobs) -> dict:
    norm_ms = [job.timing.norm_s * 1e3 for job in jobs]
    completed = sum(1 for job in jobs if not job.problems)
    return {
        "setup_s": (statistics.median(s.timing.norm_s for s in setups), "s"),
        "jobs_per_s": (completed / (sum(norm_ms) / 1e3), "1/s"),
        "job_p50_ms": (quantile(norm_ms, 50), "ms"),
        "job_p90_ms": (quantile(norm_ms, 90), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(setups, jobs, tracer) -> tuple[dict, dict]:
    """Per-layer metrics of a traced run, and each layer's self time.

    Span times are normalised by the speed measured around their job."""
    plain = [job for job in jobs if not job.traced]
    traced = [job for job in jobs if job.traced]
    raw_ms = [job.timing.raw_s * 1e3 for job in plain]
    self_times = tracer.self_times()
    metrics = {}
    for metric, names in LAYER_TIMES.items():
        metrics[metric] = (statistics.median(
            sum(self_times[job.index].get(name, 0.0) for name in names) * 1e3 / job.timing.speed
            for job in traced
        ), "ms")
    counts = tracer.count_totals(set(range(COUNT_JOBS)))
    for metric, unit in COUNT_UNITS.items():
        metrics[metric] = (int(counts.get(metric, 0)), unit)
    metrics.update({
        "ref.ms": (statistics.median(job.timing.kernel_ms for job in jobs), "ms"),
        "raw.setup_s": (statistics.median(s.timing.raw_s for s in setups), "s"),
        "raw.job_p50_ms": (quantile(raw_ms, 50), "ms"),
        "raw.job_p90_ms": (quantile(raw_ms, 90), "ms"),
        "raw.jobs_per_s": (len(plain) / (sum(raw_ms) / 1e3), "1/s"),
        "trace.overhead_frac": (
            statistics.median(job.timing.norm_s for job in traced)
            / statistics.median(job.timing.norm_s for job in plain) - 1.0,
            "frac",
        ),
        "src.lines": (src_lines(), "lines"),
    })
    layers = {}
    for job in traced:
        for name, seconds in self_times[job.index].items():
            layers.setdefault(name.split(".")[0], {}).setdefault(job.index, 0.0)
            layers[name.split(".")[0]][job.index] += seconds * 1e3 / job.timing.speed
    layer_ms = {
        layer: statistics.median(per_job.get(job.index, 0.0) for job in traced)
        for layer, per_job in layers.items()
    }
    return metrics, layer_ms


def parse_args(argv):
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    kernel = ReferenceKernel()
    kernel.time()  # first use pays LAPACK's lazy initialisation
    setups = []
    for _ in range(SETUP_REPEATS):
        mods = inputs = None  # only the last set-up's copy is kept
        setup, mods, inputs = set_up(workload, args.seed, kernel)
        setups.append(setup)
    tracer = tracing.Tracer() if args.trace else None
    jobs = run_loop(
        workload, mods, inputs, kernel, args.seconds,
        COUNT_JOBS if tracer else MIN_JOBS, tracer,
    )
    failed = sum(1 for job in jobs if job.problems)
    warm_problems = [p for s in setups for p in s.problems]
    layer_ms = {}
    if tracer:
        metrics, layer_ms = per_layer(setups, jobs, tracer)
    else:
        metrics = end_to_end(setups, jobs)

    environment = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "ref_nominal_ms": REF_NOMINAL_MS,
        "ref_median_ms": statistics.median(job.timing.kernel_ms for job in jobs),
        "src_lines": src_lines(),
        "setup_repeats": SETUP_REPEATS,
        "jobs": len(jobs),
    }
    for name, (value, unit) in metrics.items():
        print(f"{name:26s} {value:>16.6g} {unit}")
    print(f"{'failed_frac':26s} {failed / len(jobs):>16.6g} frac ({failed} of {len(jobs)} jobs)")
    if layer_ms:
        print("layer self time per job (median, ms): " + ", ".join(
            f"{layer} {ms:.3g}" for layer, ms in sorted(layer_ms.items(), key=lambda kv: -kv[1])
        ))
    problems = warm_problems + [f"job {job.index}: {p}" for job in jobs for p in job.problems]
    for problem in problems[:20]:
        print(f"problem: {problem}")
    print(json.dumps({"environment": environment}))

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    record = {
        "environment": environment,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        "failed_frac": failed / len(jobs),
        "layer_self_ms": layer_ms,
        "problems": problems,
        "timings": {
            "columns": ["raw_s", "speed", "kernel_ms"],
            "setups": [[s.timing.raw_s, s.timing.speed, s.timing.kernel_ms] for s in setups],
            "jobs": [[j.timing.raw_s, j.timing.speed, j.timing.kernel_ms] for j in jobs],
        },
    }
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    if tracer:
        tracer.write(OUT_DIR / f"{stem}-spans.jsonl")

    print(json.dumps({
        "correct": failed == 0 and not warm_problems,
        "attempted": len(jobs),
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0
