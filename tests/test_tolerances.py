"""The tolerance table is the only place a tolerance is written down."""

import ast
import io
import pathlib
import tokenize

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "entroflow"
TABLE = SRC / "tolerances.py"
# the scenario time steps of the builtins and defaults are inputs, not tolerances
ALLOWED = {"cli.py": {1e-3, 5e-3}}


def _modules():
    return [p for p in sorted(SRC.glob("*.py")) if p != TABLE]


def _small_literals(path):
    """(line, text) of each number in code, not in strings or comments, with
    0 < |value| < 1e-2."""
    source = path.read_text()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.NUMBER:
            value = abs(ast.literal_eval(tok.string))
            if 0.0 < value < 1e-2 and value not in ALLOWED.get(path.name, ()):
                yield tok.start[0], tok.string


@pytest.mark.parametrize("path", _modules(), ids=lambda p: p.name)
def test_no_tolerance_literal_outside_the_table(path):
    assert list(_small_literals(path)) == []


def test_every_tolerance_is_read():
    table = ast.parse(TABLE.read_text())
    defined = {t.id for node in table.body if isinstance(node, ast.Assign)
               for t in node.targets}
    assert defined and all(isinstance(node, (ast.Assign, ast.Expr)) for node in table.body)
    read = {node.id for p in _modules() for node in ast.walk(ast.parse(p.read_text()))
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    assert sorted(defined - read) == []
