"""The benchmark in perfbench/ wraps twostroke functions by name from outside
the package; every name it wraps must keep resolving, and its output checks
must keep accepting what the program prints."""

import importlib
import importlib.util
import inspect
import sys
import types
from pathlib import Path

import numpy as np

import twostroke as ts
from twostroke import lp

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    for layer, names in load_perfbench("tracer").TRACED.items():
        module = importlib.import_module(f"twostroke.{layer}")
        for qualified in names:
            target = module
            for part in qualified.split("."):
                target = getattr(target, part)
            assert callable(target), f"{layer}.{qualified}"


def test_column_counter_reads_the_images_argument():
    # the lp.columns_in counter reads the fourth argument, `images`
    parameters = list(inspect.signature(lp.build_work_bound_problem).parameters)
    assert parameters[3] == "images"


def test_lp_counters_read_the_column_generation():
    # every master round builds its columns with build_work_bound_problem,
    # so the traced column and pivot counters of one LP solve are nonzero
    tracer_module = load_perfbench("tracer")
    mods = types.SimpleNamespace(**{
        layer: importlib.import_module(f"twostroke.{layer}") for layer in tracer_module.TRACED
    })
    beta = ts.InverseTemperaturePair(0.5, 4.0)
    hot, cold = ts.Spectrum.qubit(1.0), ts.Spectrum.qubit(0.8)
    initial = ts.product_state(
        [0.5, 0.3, 0.2],
        ts.gibbs_populations(hot, beta.beta_h),
        ts.gibbs_populations(cold, beta.beta_c),
    )
    hamiltonian = ts.combined_spectrum(ts.Spectrum.trivial(3), hot, cold)
    tracer = tracer_module.Tracer()
    tracer.install(mods)
    try:
        tracer.begin_job(0)
        mods.lp.lp_work_upper_bound(hamiltonian, initial, 3)
    finally:
        tracer.end_job()
        tracer.uninstall()
    totals = tracer.count_totals({0})
    assert totals["lp.columns_in"] > 0
    assert totals["lp.columns_kept"] == totals["lp.columns_in"]
    assert totals["simplex.iterations"] > 0


def test_regime_checker_accepts_the_window():
    # regime-map flags come from the closed-form window; the checker re-derives
    # a few rows with the flow solve and `work > 1e-12`, which agree here only
    # because the workload's exponent products stay below its largest d/n, 63/2
    workloads = load_perfbench("workloads")
    mods = types.SimpleNamespace(**{
        name: importlib.import_module(f"twostroke.{name}")
        for name in ("catalysis", "cli", "errors", "thermo")
    })
    for i in range(20):
        inp = workloads.regime_input(np.random.default_rng([1, i]))
        assert workloads.regime_check(mods, inp, workloads.regime_run(mods, inp)) == []


def test_ladder_census():
    # 200 checked catalyst-ladder jobs (d = 120): every split's work against
    # the closed-form transfer and every baseline against the ergotropy
    workloads = load_perfbench("workloads")
    mods = types.SimpleNamespace(catalysis=importlib.import_module("twostroke.catalysis"))
    assert workloads.LADDER_DIM == 120
    problems = []
    for i in range(200):
        inp = workloads.ladder_input(np.random.default_rng([2, i]))
        problems += workloads.ladder_check(mods, inp, workloads.ladder_run(mods, inp))
    assert problems == []


def test_one_clean_job_per_workload(monkeypatch):
    # the workloads also read names outside the tracer's list (for instance
    # catalysis.delta_p_closed_form), so one checked job of each must run on
    # the modules the benchmark loads
    monkeypatch.syspath_prepend(str(PERFBENCH))
    package = {
        name: module for name, module in sys.modules.items() if name.split(".")[0] == "twostroke"
    }
    try:
        harness = importlib.import_module("harness")
        mods = harness.load_twostroke()
        for name, workload in harness.WORKLOADS.items():
            workload.warm(mods)
            inp = workload.make_input(np.random.default_rng([1, 0]))
            assert harness.check(workload, mods, inp, workload.run(mods, inp)) == [], name
    finally:
        sys.modules.update(package)  # later tests keep the modules they imported
