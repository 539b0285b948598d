"""The package's public surface."""

import ast
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


# private names the package keeps for its tests alone: the JSON oracle compares `_json_text`
TEST_ONLY = {"_json_text"}


def test_every_private_name_is_used():
    # a refactor that stops calling a helper removes it too
    package = Path(ts.__file__).parent
    defined, used = set(), set()
    for path in package.glob("*.py"):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined.update(t.id for t in targets if isinstance(t, ast.Name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    private = {name for name in defined if name.startswith("_") and not name.startswith("__")}
    assert sorted(private - used) == sorted(TEST_ONLY)
    tests = "".join(path.read_text() for path in Path(__file__).parent.glob("test_*.py"))
    assert all(f".{name}(" in tests for name in TEST_ONLY)
