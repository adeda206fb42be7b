"""No dead names: every import is read, the package exports what it lists, and
the names README.md and the package's docstrings give resolve."""

import ast
import importlib
import pathlib
import pkgutil
import re

import pytest

import entroflow

ROOT = pathlib.Path(__file__).resolve().parent.parent
FILES = sorted(p for d in ("src", "tests", "demos", "tools") for p in (ROOT / d).rglob("*.py"))


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


def _constants():
    """The ALL-CAPS attributes of the entroflow modules."""
    modules = [importlib.import_module(f"entroflow.{info.name}")
               for info in pkgutil.iter_modules(entroflow.__path__)]
    return {name for m in modules for name in vars(m) if name.isupper()}


def _docstrings(path):
    tree = ast.parse(path.read_text())
    return "\n".join(filter(None, (ast.get_docstring(node) for node in ast.walk(tree)
                                   if isinstance(node, (ast.Module, ast.ClassDef,
                                                        ast.FunctionDef)))))


def test_constant_names_resolve():
    # a backticked ALL-CAPS name in README.md, or a double-backticked one in
    # the docstrings of src/entroflow, names a constant some module defines,
    # so a deleted tolerance or limit leaves no stale pointer
    readme = set(re.findall(r"`([A-Z][A-Z0-9_]+)`", (ROOT / "README.md").read_text()))
    docs = set(re.findall(r"``([A-Z][A-Z0-9_]+)``", "\n".join(
        _docstrings(p) for p in sorted((ROOT / "src" / "entroflow").glob("*.py")))))
    assert readme and docs
    assert sorted((readme | docs) - _constants()) == []


MISSING = object()
ROLE = re.compile(r":(?:func|class|meth|mod):`~?([\w.]+)`")


def _lookup(obj, dotted):
    for part in filter(None, dotted.split(".")):
        obj = getattr(obj, part, MISSING)
    return obj


def _role_target(module, target):
    """The object a docstring role's target names from ``module``: an
    attribute of it, an entroflow module's attribute (``sde.replay``,
    ``entroflow.sde.replay`` or dot-relative ``.sde.replay``), or a method of
    one of its classes; MISSING if none."""
    found = MISSING if target.startswith(".") else _lookup(module, target)
    head, _, rest = target.lstrip(".").removeprefix("entroflow.").partition(".")
    if found is MISSING and head in {m.name for m in pkgutil.iter_modules(entroflow.__path__)}:
        found = _lookup(importlib.import_module(f"entroflow.{head}"), rest)
    for cls in vars(module).values():
        if found is MISSING and isinstance(cls, type) and cls.__module__ == module.__name__:
            found = _lookup(cls, target)
    return found


def test_docstring_names_resolve():
    # every :func:, :class:, :meth: and :mod: target in the docstrings of
    # src/entroflow names an object that exists, so a renamed or deleted
    # function leaves no stale pointer
    stale, checked = [], 0
    for path in sorted((ROOT / "src" / "entroflow").glob("*.py")):
        name = "entroflow" if path.stem == "__init__" else f"entroflow.{path.stem}"
        module = importlib.import_module(name)
        for target in ROLE.findall(_docstrings(path)):
            checked += 1
            if _role_target(module, target) is MISSING:
                stale.append(f"{path.name}: {target}")
    assert checked > 0
    assert stale == []
