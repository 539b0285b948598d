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
    # the engine verdict's tolerance, the efficiency, the parameter checks,
    # the catalytic window's exact ends and the flow cap each live in one
    # place, so a change to a rule is a change to it
    sources = {path.name: path.read_text() for path in Path(ts.__file__).parent.glob("*.py")}
    assert [name for name, text in sources.items() if "MODE_TOL" in text] == ["thermo.py"]
    for text in (
        "level spacings must be positive and finite",
        "dimensionless parameters must be positive",
        "1.0 + heat_cold / heat_hot",
        "result is not finite",
        'add_argument("--output"',
        "b_c * w_c / (b_h * w_h)",
        "2**22",
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


def test_every_import_is_used():
    # a removal that leaves a module-level import behind fails here
    for path in Path(ts.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text())
        imported = {
            (alias.asname or alias.name).split(".")[0]
            for node in tree.body
            if isinstance(node, ast.Import)
            or isinstance(node, ast.ImportFrom) and node.module != "__future__"
            for alias in node.names
        }
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
            ):
                used.update(ast.literal_eval(node.value))
        assert sorted(imported - used) == [], path.name


def test_exceptions_are_built_where_they_are_raised():
    # an error kept as a value is a second way for a failure to travel; every
    # construction of an error class is the argument of its raise
    for path in Path(ts.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text())
        raised = {id(node.exc) for node in ast.walk(tree) if isinstance(node, ast.Raise)}
        kept = [
            node.lineno
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and ast.unparse(node.func).endswith(("Error", "Exception"))
            and id(node) not in raised
        ]
        assert kept == [], path.name
