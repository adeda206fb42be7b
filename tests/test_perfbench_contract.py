"""The benchmark's workloads and tracer still run against the package.

``perfbench/`` is frozen: its workloads read ``traj.densities``, its tracer
hooks ``len(traj)`` and ``traj.grid``, and it wraps the ``__init__`` of
``GridDensity``, ``DensityTrajectory``, ``PathEnsemble`` and
``DensityOperator`` by name.  A refactor that drops one of them must fail
here, not only in a benchmark run.  The modules are loaded from their files
and left unchanged; one pass of each workload runs under the tracer.  The
ensemble runners stream through ``sde._march_paths``, so the tracer's hooks
on the stored simulators must still hold for a traced ensembles pass.
"""

import importlib.util
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SEED = 20070


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def perfbench():
    return _load("workloads"), _load("spans")


@pytest.mark.parametrize("name", ["grid-2d-scheduled", "grid-1d-dense", "ensembles",
                                  "quantum-nlevel"])
def test_workload_pass_is_clean_under_the_tracer(perfbench, tmp_path, name):
    workloads, spans = perfbench
    workload = workloads.WORKLOADS[name](SEED, str(tmp_path))
    tracer = spans.Tracer()
    tracer.instrument()
    try:
        p = workloads.Pass(tracer)
        workload.run_pass(p)
    finally:
        tracer.uninstrument()
    assert p.failures == []
    assert p.attempted > 0 and tracer.spans
