"""Structural guards: the simulated route stays independent of the
closed forms, only the CLI's scenario table names a scenario, one rule
sizes every worker pool, and every exported name exists."""

import ast
import importlib
import pkgutil

import pytest

import raftguard
from raftguard import cli, montecarlo

CLOSED_FORMS = {
    "coverage_dl",
    "coverage_ul",
    "coverage_joint",
    "laplace_interference",
    "hyp2f1",
    "p_md_expected",
    "roc_curve",
    "error_probabilities",
}


def raftguard_imports(path):
    """(statement kind, module, name) for every raftguard import in a file,
    including imports inside functions."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("raftguard"):
            found += [("from", node.module, alias.name) for alias in node.names]
        elif isinstance(node, ast.Import):
            found += [("import", alias.name, None) for alias in node.names
                      if alias.name.startswith("raftguard")]
    return found


def test_montecarlo_imports_no_closed_form_and_no_private_name():
    imports = raftguard_imports(montecarlo.__file__)
    assert imports, "expected montecarlo to import from raftguard modules"
    for kind, module, name in imports:
        # a whole-module import would reach the closed forms unchecked
        assert kind == "from" and module != "raftguard", (kind, module, name)
        # the coverage records are per route, so nothing is shared
        assert module != "raftguard.coverage", (kind, module, name)
        assert not name.startswith("_"), f"private {module}.{name}"
        assert name not in CLOSED_FORMS and not name.endswith("_closed_form"), (
            f"closed form {module}.{name}")


def test_only_the_scenario_table_names_a_scenario():
    # every per-scenario rule in the CLI derives from the scenario's entry
    with open(cli.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    table = next(node.value for node in ast.walk(tree) if isinstance(node, ast.Assign)
                 and any(getattr(t, "id", None) == "SCENARIOS" for t in node.targets))
    assert isinstance(table, ast.Dict)
    assert [key.value for key in table.keys] == list(cli.SCENARIOS)
    keys = {id(key) for key in table.keys}
    stray = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Constant)
             and node.value in cli.SCENARIOS and id(node) not in keys]
    assert not stray, f"scenario names outside SCENARIOS at cli.py lines {stray}"


def submodules():
    return [importlib.import_module(f"raftguard.{info.name}")
            for info in pkgutil.iter_modules(raftguard.__path__)]


@pytest.mark.parametrize("module", [raftguard] + submodules(), ids=lambda m: m.__name__)
def test_every_export_resolves(module):
    stale = [name for name in module.__all__ if not hasattr(module, name)]
    assert not stale


def test_one_rule_sizes_every_pool():
    # in code, not docs: the worker variable is read only by
    # montecarlo._workers, and the CPU count only by the probe _threads,
    # which only _workers calls
    found = set()
    for module in [raftguard] + submodules():
        with open(module.__file__, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        scopes = [tree] + [n for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.ClassDef))]
        docs = {id(scope.body[0].value) for scope in scopes if ast.get_docstring(scope) is not None}
        functions = [n for n in scopes if isinstance(n, ast.FunctionDef)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in docs:
                names = [n for n in ("RAFTGUARD_WORKERS", "sched_getaffinity") if n in node.value]
            elif isinstance(node, (ast.Attribute, ast.Name, ast.alias)):
                name = getattr(node, "attr", None) or getattr(node, "id", None) or node.name
                names = [name] if name in ("cpu_count", "sched_getaffinity", "_threads") else []
            else:
                continue
            owner = min((f for f in functions if f.lineno <= node.lineno <= f.end_lineno),
                        key=lambda f: f.end_lineno - f.lineno, default=None)
            found |= {(module.__name__, getattr(owner, "name", None), name) for name in names}
    assert found == {
        ("raftguard.montecarlo", "_workers", "RAFTGUARD_WORKERS"),
        ("raftguard.montecarlo", "_workers", "_threads"),
        ("raftguard.montecarlo", "_threads", "sched_getaffinity"),
        ("raftguard.montecarlo", "_threads", "cpu_count"),
    }
