"""The benchmark in perfbench/ wraps twostroke functions by name from outside
the package; every name it wraps must keep resolving."""

import importlib
import importlib.util
import inspect
import types
from pathlib import Path

import twostroke as ts
from twostroke import lp

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    for layer, names in load_tracer().TRACED.items():
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
    tracer_module = load_tracer()
    mods = types.SimpleNamespace(**{
        layer: importlib.import_module(f"twostroke.{layer}") for layer in tracer_module.TRACED
    })
    beta = ts.InverseTemperaturePair(0.5, 4.0)
    hot, cold = ts.Spectrum.qubit(1.0), ts.Spectrum.qubit(0.8)
    initial = ts.product_state(
        [0.7, 0.3],
        ts.gibbs_populations(hot, beta.beta_h),
        ts.gibbs_populations(cold, beta.beta_c),
    )
    hamiltonian = ts.combined_spectrum(ts.Spectrum.trivial(2), hot, cold)
    tracer = tracer_module.Tracer()
    tracer.install(mods)
    try:
        tracer.begin_job(0)
        mods.lp.lp_work_upper_bound(hamiltonian, initial, 2)
    finally:
        tracer.end_job()
        tracer.uninstall()
    totals = tracer.count_totals({0})
    assert totals["lp.columns_in"] > 0
    assert totals["lp.columns_kept"] == totals["lp.columns_in"]
    assert totals["simplex.iterations"] > 0
