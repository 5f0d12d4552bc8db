"""Structural guards: the simulated route stays independent of the
closed forms, and every exported name exists."""

import ast
import importlib
import pkgutil

import pytest

import raftguard
from raftguard import montecarlo

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


def submodules():
    return [importlib.import_module(f"raftguard.{info.name}")
            for info in pkgutil.iter_modules(raftguard.__path__)]


@pytest.mark.parametrize("module", [raftguard] + submodules(), ids=lambda m: m.__name__)
def test_every_export_resolves(module):
    stale = [name for name in module.__all__ if not hasattr(module, name)]
    assert not stale
