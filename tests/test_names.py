"""No dead names: every import is read, the package exports what it lists, and
the names README.md gives resolve."""

import ast
import importlib
import pathlib
import pkgutil
import re

import pytest

import entroflow

ROOT = pathlib.Path(__file__).resolve().parent.parent
FILES = sorted(p for d in ("src", "tests", "demos") for p in (ROOT / d).rglob("*.py"))


def _unread_imports(path):
    """(line, name) of each name an import binds that the module never reads;
    a name listed in ``__all__`` counts as read."""
    tree = ast.parse(path.read_text())
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(node.lineno, (a.asname or a.name).split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(node.lineno, a.asname or a.name) for a in node.names]
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__"
                                                for t in node.targets):
            read |= set(ast.literal_eval(node.value))
    return [(line, name) for line, name in bound if name not in read]


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_import_is_read(path):
    assert _unread_imports(path) == []


def test_every_export_resolves():
    assert [name for name in entroflow.__all__ if not hasattr(entroflow, name)] == []
    namespace = {}
    exec("from entroflow import *", namespace)
    assert set(entroflow.__all__) <= set(namespace)


def test_readme_names_resolve():
    # a backticked `module.attr` names an attribute of that entroflow module;
    # file names such as `cli.py` or `summary.csv` are not attributes
    modules = {info.name for info in pkgutil.iter_modules(entroflow.__path__)}
    text = (ROOT / "README.md").read_text()
    stale = []
    for module, attr in re.findall(r"`(\w+)\.(\w+(?:\.\w+)*)`", text):
        if module not in modules or attr in ("py", "csv", "json"):
            continue
        obj = importlib.import_module(f"entroflow.{module}")
        for part in attr.split("."):
            obj = getattr(obj, part, None)
        if obj is None:
            stale.append(f"{module}.{attr}")
    assert stale == []
