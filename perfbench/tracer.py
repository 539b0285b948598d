"""Spans around calls into the twostroke modules, recorded from outside.

`Tracer.install` replaces each traced public function on every module
attribute that refers to it, which is where its callers look it up (for
example `catalysis.solve_catalyst_state` and `coherence.solve_catalyst_state`
are the same function imported into two namespaces).  `uninstall` puts the
originals back, so untraced jobs run the unmodified program.

A span is (name, start, end, parent, job).  Spans and counts stay in memory
and are written once, when the run ends.  A span's self time is its duration
minus the durations of its direct children; the calls are synchronous and
single-threaded, so children nest inside their parent.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

TRACED = {
    "thermo": (
        "gibbs_populations", "product_state", "combined_spectrum",
        "stroke_report", "CycleReport.from_heats",
    ),
    "permutations": (
        "images_array", "sweep_heats", "optimal_noncatalytic", "qubit_table", "ergotropy",
    ),
    "catalysis": (
        "solve_catalyst_state", "simple_perm_report", "sweep_simple_perms",
        "regime_map", "fig_work_vs_cold_swaps", "build_simple_perm",
    ),
    "lp": ("lp_work_upper_bound", "build_work_bound_problem", "lp_dual_check"),
    "simplex": ("simplex_solve",),
    "coherence": ("run_coherence_suite",),
    "cli": ("main",),
}

ROOT = "job"


def _images_counts(mark, args, kwargs, result):
    images = args[3] if len(args) > 3 else kwargs["images"]
    return {"lp.columns_in": len(images), "lp.columns_kept": int(result.work.size)}


def _stdout_mark():
    return sys.stdout.tell()


# name -> (before() -> mark, after(mark, args, kwargs, result) -> counts)
COUNTERS = {
    "catalysis.solve_catalyst_state": (None, lambda mark, a, k, r: {"catalysis.solve_calls": 1}),
    "lp.build_work_bound_problem": (None, _images_counts),
    "simplex.simplex_solve": (None, lambda mark, a, k, r: {"simplex.iterations": r.iterations}),
    # jobs capture stdout in memory; CLI output is ASCII, so characters are bytes
    "cli.main": (
        _stdout_mark,
        lambda mark, a, k, r: {"cli.bytes_out": sys.stdout.tell() - mark},
    ),
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []   # [name, start, end, parent index, job]
        self.counts: list[tuple] = []  # (job, name, value)
        self._stack: list[int] = []
        self._job = -1
        self._patches: list[tuple] = []  # (owner, attribute, original)

    def _wrap(self, name: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        before, after = COUNTERS.get(name, (None, None))

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1], self._job]
            stack.append(len(spans))
            spans.append(record)
            mark = before() if before else None
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()
            if after:
                for key, value in after(mark, args, kwargs, result).items():
                    counts.append((self._job, key, value))
            return result

        return traced

    def install(self, mods) -> None:
        """Wrap every traced function wherever a twostroke module refers to it."""
        namespaces = [vars(module) for module in sys.modules.values()
                      if getattr(module, "__name__", "").startswith("twostroke")]
        for layer, functions in TRACED.items():
            module = getattr(mods, layer)
            for qualified in functions:
                name = f"{layer}.{qualified}"
                if "." in qualified:
                    cls_name, attr = qualified.split(".")
                    cls = getattr(module, cls_name)
                    original = cls.__dict__[attr]
                    wrapper = classmethod(self._wrap(name, original.__func__))
                    self._patches.append((cls, attr, original))
                    setattr(cls, attr, wrapper)
                    continue
                original = getattr(module, qualified)
                wrapper = self._wrap(name, original)
                for namespace in namespaces:
                    for attr, value in list(namespace.items()):
                        if value is original:
                            self._patches.append((namespace, attr, original))
                            namespace[attr] = wrapper

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    def begin_job(self, job: int) -> None:
        self._job = job
        self._stack.append(len(self.spans))
        self.spans.append([ROOT, time.perf_counter(), 0.0, -1, job])

    def end_job(self) -> None:
        self.spans[self._stack.pop()][2] = time.perf_counter()
        self._job = -1

    def self_times(self) -> dict[int, dict[str, float]]:
        """Per job, the summed self time of each span name, in seconds."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, job in self.spans:
            if parent >= 0:
                child[parent] += end - start
        per_job: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for index, (name, start, end, parent, job) in enumerate(self.spans):
            per_job[job][name] += end - start - child[index]
        return per_job

    def count_totals(self, jobs) -> dict[str, int]:
        totals: dict[str, int] = defaultdict(int)
        for job, name, value in self.counts:
            if job in jobs:
                totals[name] += value
        return totals

    def write(self, path) -> None:
        """One JSON list per line: a header naming the fields, then one span
        per line; `parent` is the line index of the parent span, counting
        spans from 0, or -1."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(["name", "start", "end", "parent", "job"]) + "\n")
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
