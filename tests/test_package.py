"""The package's public surface."""

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
