"""The package's public surface."""

from pathlib import Path

import twostroke as ts


def test_every_exported_name_resolves():
    missing = [name for name in ts.__all__ if not hasattr(ts, name)]
    assert missing == []
    assert len(set(ts.__all__)) == len(ts.__all__)


def test_star_import():
    # a stale __all__ entry fails only here, as an AttributeError
    namespace = {}
    exec("from twostroke import *", namespace)
    assert set(ts.__all__) <= namespace.keys()


def test_each_engine_rule_has_one_owner():
    # the engine verdict's tolerance, the efficiency and the parameter checks
    # each live in one function, so a change to a rule is a change to it
    sources = {path.name: path.read_text() for path in Path(ts.__file__).parent.glob("*.py")}
    assert [name for name, text in sources.items() if "MODE_TOL" in text] == ["thermo.py"]
    for text in (
        "level spacings must be positive and finite",
        "dimensionless parameters must be positive",
        "1.0 + heat_cold / heat_hot",
    ):
        assert sum(source.count(text) for source in sources.values()) == 1, text
