"""Every demo runs clean: they step densities, path ensembles and quantum states.

Each runs under the suite's warning policy, numpy's runtime warnings and the
package's own (an uncertified rate, say) as errors, and writes nothing to
stderr."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("demo", sorted(p.name for p in (ROOT / "demos").glob("*.py")))
def test_demo_exits_zero(demo, tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    warnings = ["-W", "error::RuntimeWarning", "-W", "error::UserWarning"]
    proc = subprocess.run([sys.executable, *warnings, str(ROOT / "demos" / demo)],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
