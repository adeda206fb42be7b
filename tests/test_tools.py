"""The scripts under tools/ run outside the suite; only their arguments are
checked here."""

import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _load(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_seed_sweep_parses_its_arguments():
    sweep = _load("seed_sweep")
    assert sweep.parse_args([]).out is None
    assert sweep.parse_args(["--out", "runs"]).out == "runs"
