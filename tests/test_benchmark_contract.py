"""The benchmark in perfbench/ wraps twostroke functions by name from outside
the package; every name it wraps must keep resolving."""

import importlib
import importlib.util
import inspect
from pathlib import Path

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
