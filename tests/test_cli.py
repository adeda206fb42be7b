import contextlib
import io
import json
import os
import re
import tempfile
import threading
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, example, given, settings, strategies as st

from entroflow import (GaussianDensity, Grid, NumericalFailure, cli, fokker_planck,
                       quadratic_hamiltonian, sde)
from entroflow.cli import (
    BUILTIN_FACTORIES,
    ConfigError,
    ScenarioConfig,
    main,
    run_scenario,
)
from entroflow.control import evolve_modulated
from entroflow.grids import boundary_certificate, time_steps
from entroflow.fokker_planck import ConvergenceError, MassDriftError, PositivityError
from entroflow.paths import (
    MIN_CELL_COUNT,
    current_drift,
    drift_field_rows,
    estimate_drifts,
)
from entroflow.quantum import save_operator, sigma_x
from entroflow.sde import (TrajectoryDivergence, ensemble_rows, ensemble_summary,
                           harmonic_cantilever, simulate_overdamped, simulate_polymer)

from conftest import kron_liouvillian


FAST_CONTROL_INI = """\
[scenario]
name = fast-control
kind = control-run

[model]
hamiltonian = quadratic
q = 1.0
kT = 1.0
sigma2 = 2.0

[control]
alpha = 0.5

[numerics]
grid_cells = 256
dt = 0.01
t1 = 0.05
store_every = 5
"""


def read_csv(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    data = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    return header, data


# ---------------------------------------------------------------------------
# argument handling and exit codes
# ---------------------------------------------------------------------------

def test_list_subcommand(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in ("ou-relax", "ou-modulated", "polymer-cooling", "qubit-qrec",
                 "qubit-lindblad", "paths-osmotic"):
        assert name in out


def test_list_json(capsys):
    assert main(["list", "--json"]) == 0
    parsed = json.loads(capsys.readouterr().out)
    assert set(parsed) == set(BUILTIN_FACTORIES)


def test_unknown_subcommand_usage_exit(capsys):
    assert main(["frobnicate"]) == 2


def test_unknown_scenario_name(capsys):
    assert main(["control-run", "--scenario", "nope"]) == 2
    assert "unknown scenario" in capsys.readouterr().err


def test_ill_posed_gain_rejected(tmp_path, capsys):
    for alpha in ("-2.0", "nan"):
        cfg = tmp_path / "bad.ini"
        cfg.write_text(FAST_CONTROL_INI.replace("alpha = 0.5", f"alpha = {alpha}"))
        code = main(["control-run", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "ill-posed gain" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


def test_config_unknown_key_rejected(tmp_path):
    cfg = tmp_path / "bad.ini"
    cfg.write_text(FAST_CONTROL_INI + "\nwhatever = 3\n")
    with pytest.raises(ConfigError, match="unknown key"):
        ScenarioConfig.from_ini(cfg)


def test_duplicate_config_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "dup.ini"
    cfg.write_text(FAST_CONTROL_INI + "dt = 0.02\n")
    out = tmp_path / "o"
    assert main(["control-run", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(cfg) in err and "already exists" in err
    assert not out.exists()


def test_config_kind_mismatch(tmp_path, capsys):
    cfg = tmp_path / "c.ini"
    cfg.write_text(FAST_CONTROL_INI)
    assert main(["sde-run", "--config", str(cfg)]) == 2


# ---------------------------------------------------------------------------
# runs from config files and flags
# ---------------------------------------------------------------------------

def test_control_run_from_config(tmp_path, capsys):
    cfg = tmp_path / "c.ini"
    cfg.write_text(FAST_CONTROL_INI)
    out = tmp_path / "out"
    assert main(["control-run", "--config", str(cfg), "--out", str(out)]) == 0
    header, data = read_csv(out / "divergence.csv")
    assert header == ["t", "D", "total_rate", "pepr", "epur", "fd_check_residual"]
    # alpha = 0.5: total = -(1 + 0.5) * Fisher = 1.5x the uncontrolled -1.5
    assert data[0, 2] == pytest.approx(-2.25, rel=0.01)
    assert (out / "manifest.json").exists()


def test_fp_run_writes_trajectory(tmp_path):
    cfg = ScenarioConfig("t", "fp-run", model=dict(q=1.0, kT=1.0, sigma2=2.0),
                         numerics=dict(grid_cells=128, dt=0.01, t1=0.05,
                                       store_every=5))
    manifest = run_scenario(cfg, out_dir=str(tmp_path / "fp"))
    assert set(manifest["files"]) == {"trajectory.csv", "moments.csv"}


def test_decompose_only_divergence(tmp_path):
    cfg = ScenarioConfig("t", "decompose", model=dict(q=1.0, kT=1.0, sigma2=2.0),
                         control=dict(alpha=0.0),
                         numerics=dict(grid_cells=128, dt=0.01, t1=0.05,
                                       store_every=5))
    manifest = run_scenario(cfg, out_dir=str(tmp_path / "d"))
    assert set(manifest["files"]) == {"divergence.csv"}


def test_sde_run_overdamped_flags(tmp_path):
    out = tmp_path / "sde"
    code = main(["sde-run", "--model", "overdamped", "--n", "50",
                 "--dt", "0.01", "--t1", "0.05", "--seed", "3",
                 "--out", str(out)])
    assert code == 0
    header, data = read_csv(out / "paths.csv")
    assert header == ["t", "trajectory", "x0"]
    assert data.shape[0] == 50 * 6


def _traced_peak(cfg, out) -> int:
    """Peak traced memory of one run in bytes; tracemalloc sees numpy's buffers."""
    tracemalloc.start()
    try:
        run_scenario(cfg, out_dir=str(out))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_paths_run_holds_no_state_array(tmp_path):
    # paths-osmotic at a fifth of its size: the (201, 20 000, 1) state array
    # the run no longer stores is 32.2 MB
    n_traj, n_times = 20_000, 201
    cfg = ScenarioConfig("paths", "paths-run",
                         numerics=dict(n_traj=n_traj, t1=1.0, grid_cells=64))
    assert _traced_peak(cfg, tmp_path) < n_traj * n_times * 8 / 4


def test_batched_polymer_gains_hold_less_than_two_ensembles(tmp_path):
    # four gains step as one state on one noise draw
    n_traj, n_times = 2000, 601
    cfg = ScenarioConfig("polymer", "sde-run", model=dict(model="polymer"),
                         numerics=dict(n_traj=n_traj, dt=5e-3, t1=3.0))
    one_ensemble = n_traj * n_times * 2 * 8
    assert _traced_peak(cfg, tmp_path) < 2 * one_ensemble


def test_polymer_sde_run_holds_no_state_record(tmp_path):
    # summary.csv streams the last gain's moments: the (201, 20 000, 2)
    # record of that gain, 64.3 MB, is not stored, and the block noise
    # buffer, 1024 x 200 doubles (1.6 MB), stays far below a quarter of it
    n_traj, n_times = 20_000, 201
    cfg = ScenarioConfig("polymer", "sde-run", model=dict(model="polymer"),
                         numerics=dict(n_traj=n_traj, dt=5e-3, t1=1.0))
    assert _traced_peak(cfg, tmp_path) < n_traj * n_times * 2 * 8 / 4


def test_diverging_batched_gains_exit_3(tmp_path, capsys):
    # dt (gamma + gain) / m > 2 for every gain: the momenta grow every step
    out = tmp_path / "boom"
    code = main(["sde-run", "--model", "polymer", "--gamma", "60", "--dt", "0.05",
                 "--t1", "2", "--n", "50", "--out", str(out)])
    assert code == 3
    err = capsys.readouterr().err.strip()
    assert re.fullmatch(r"numerical failure: trajectory divergence: .* "
                        r"at t = \S+, trajectory index \d+", err), err
    assert not out.exists()


def test_negative_feedback_gain_names_its_key(tmp_path, capsys):
    out = tmp_path / "o"
    assert main(["sde-run", "--model", "polymer", "--alpha-c", "-1", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: alpha_c must be nonnegative, got -1.0\n"
    assert not out.exists()


@pytest.mark.parametrize("args,overflow", [
    (["--gamma", "1e308"], "the noise variance 2 gamma T overflows at T = 1.0"),
    (["--gamma", "1e308", "--alpha-c", "1"], "the noise variance 2 gamma T overflows"),
    (["--gamma", "7e307"], "the drag gamma + alpha_c overflows at alpha_c = 1.4e+308"),
], ids=["ladder", "alpha-c", "ladder-drag"])
def test_overflowing_polymer_gamma_names_gamma(tmp_path, capsys, args, overflow):
    # the default gain ladder 0, gamma/2, gamma, 2 gamma and the noise
    # sqrt(2 gamma T) derive from gamma: an overflow there is gamma's, not a
    # bad alpha_c or a diverging trajectory
    out = tmp_path / "o"
    assert main(["sde-run", "--model", "polymer", *args, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: gamma = {float(args[1])!r} is too large: {overflow}")
    assert not out.exists()


WINDOW_INI = """\
[scenario]
kind = sde-run

[model]
model = polymer
alpha_c = 0.5

[numerics]
t1 = {t1}
dt = 0.1
n_traj = 8
window_lo = 0.29
"""


def test_window_ending_at_a_rounded_grid_time(tmp_path):
    # the last time 0.1 * 3 = 0.30000000000000004 lies past t1 = 0.3 by
    # roundoff; the window [0.29, 0.3] holds it, so the run is valid
    cfg = tmp_path / "window.ini"
    cfg.write_text(WINDOW_INI.format(t1="0.3"))
    out = tmp_path / "o"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["sde-run", "--config", str(cfg), "--out", str(out)]) == 0
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    _, data = read_csv(out / "temperature.csv")
    assert data.shape == (1, 3) and np.all(np.isfinite(data))


@pytest.mark.parametrize("t1", ["0.3000000001", "0.30000000001", "0.2999999999"])
def test_default_window_ends_at_the_last_grid_time(tmp_path, t1):
    # time_steps reads each t1 as 3 steps of 0.1, so the last grid time is
    # 0.1 * 3 = 0.30000000000000004 whichever side of it t1 lies; the default
    # window [t1 / 3, t1] reads t1 with the horizon's slack, so it lies in the
    # horizon and holds that time
    out = tmp_path / "o"
    assert main(["sde-run", "--model", "polymer", "--n", "8", "--dt", "0.1", "--t1", t1,
                 "--out", str(out)]) == 0
    _, temps = read_csv(out / "temperature.csv")
    _, summary = read_csv(out / "summary.csv")
    assert temps.shape == (4, 3) and summary.shape == (4, 8)
    assert np.all(np.isfinite(temps)) and np.all(np.isfinite(summary))


def test_window_edges_read_with_the_horizon_slack(tmp_path):
    # time_steps reads the three t1 as one 3-step horizon, and the default
    # window [t1 / 3, t1] reads its edges with the same slack, so each run
    # averages over the same grid times 0.1, 0.2 and 0.3 and writes the same bytes
    written = set()
    for k, t1 in enumerate(["0.3", "0.3000000001", "0.2999999999"]):
        out = tmp_path / f"o{k}"
        assert main(["sde-run", "--model", "polymer", "--n", "8", "--dt", "0.1", "--t1", t1,
                     "--out", str(out)]) == 0
        written.add(tuple((out / name).read_bytes()
                          for name in ("temperature.csv", "summary.csv")))
    assert len(written) == 1


def test_quantum_run_from_operator_files(tmp_path):
    h = tmp_path / "h.txt"
    l1 = tmp_path / "l.txt"
    r = tmp_path / "rho.txt"
    save_operator(np.diag([1.0, -1.0]).astype(complex), h)
    save_operator(0.4 * sigma_x, l1)
    save_operator(np.diag([0.8, 0.2]).astype(complex), r)
    out = tmp_path / "q"
    code = main(["quantum-run", "--hamiltonian", str(h), "--lindblad", str(l1),
                 "--rho0", str(r), "--t1", "0.5", "--dt", "0.001",
                 "--out", str(out)])
    assert code == 0
    header, data = read_csv(out / "evolution.csv")
    assert header == ["t", "trace", "purity", "entropy"]
    assert np.allclose(data[:, 1], 1.0, atol=1e-10)


def test_quantum_run_rejects_partial_horizon(tmp_path, capsys):
    h = tmp_path / "h.txt"
    r = tmp_path / "rho.txt"
    save_operator(np.diag([1.0, -1.0]).astype(complex), h)
    save_operator(np.diag([0.8, 0.2]).astype(complex), r)
    out = tmp_path / "q"
    code = main(["quantum-run", "--hamiltonian", str(h), "--rho0", str(r),
                 "--t1", "0.0025", "--dt", "0.001", "--out", str(out)])
    assert code == 2
    assert "multiple of dt" in capsys.readouterr().err
    assert not out.exists()


def _large_rate_lindblad_run(tmp_path, out):
    """quantum-run of a qubit whose jump rate is about 1e7."""
    files = {"h": [[1.0, 0.5], [0.5, -1.0]], "rho": [[0.6, 0.2j], [-0.2j, 0.4]],
             "l": 3000.0 * np.array([[1.0, 2.0], [0.5j, -1.0]])}
    for name, matrix in files.items():
        save_operator(np.array(matrix, dtype=complex), tmp_path / f"{name}.txt")
    return main(["quantum-run", "--hamiltonian", str(tmp_path / "h.txt"),
                 "--lindblad", str(tmp_path / "l.txt"), "--rho0", str(tmp_path / "rho.txt"),
                 "--t1", "1", "--dt", "0.01", "--out", str(out)]), files


def test_lindblad_run_at_a_large_jump_rate_exits_0(tmp_path):
    # at this rate the roundoff of exp(dt L) alone moves the states off
    # Hermitian past HERMITICITY_TOL; the steps keep them exactly Hermitian,
    # and the purities are those of exp(t L) rho0: for qubit states
    # |tr A^2 - tr B^2| <= ||A - B||_F ||A + B||_F <= 4 max|A - B|, and
    # max|A - B| <= steps * eps ||dt L||_1
    out = tmp_path / "q"
    code, files = _large_rate_lindblad_run(tmp_path, out)
    assert code == 0
    _, data = read_csv(out / "evolution.csv")
    S = kron_liouvillian(np.array(files["h"]), (files["l"],))
    tol = 4 * 100 * np.finfo(float).eps * np.linalg.norm(0.01 * S, 1)
    rho0 = np.array(files["rho"]).reshape(-1)
    exact = [(scipy.linalg.expm(t * S) @ rho0).reshape(2, 2) for t in data[:, 0]]
    assert np.max(np.abs(data[:, 2] - [np.trace(r @ r).real for r in exact])) <= tol


def test_lindblad_run_that_fails_its_own_check_exits_3(tmp_path, monkeypatch, capsys):
    # valid operators, but a propagator that flips the sign of rho_11 is not
    # positive: a numerical failure, named with its quantity and time
    monkeypatch.setattr(scipy.linalg, "expm", lambda A: np.diag([1.0, 1.0, 1.0, -1.0]))
    out = tmp_path / "q"
    assert _large_rate_lindblad_run(tmp_path, out)[0] == 3
    assert re.fullmatch(r"numerical failure: the evolved state at t = 0.01: negative "
                        r"eigenvalue \S+\n", capsys.readouterr().err)
    assert not out.exists()


def test_quantum_run_missing_files_flag(capsys):
    assert main(["quantum-run", "--t1", "1.0"]) == 2


QUANTUM_INI = """\
[scenario]
kind = {kind}

[files]
{files}

[numerics]
t1 = 0.05
dt = 0.001
"""


def test_quantum_run_files_section(tmp_path, capsys):
    paths = {name: tmp_path / f"{name}.op" for name in ("h", "dh", "l1", "l2", "rho")}
    save_operator(np.diag([1.0, -1.0]).astype(complex), paths["h"])
    save_operator(0.3 * sigma_x, paths["dh"])
    save_operator(0.4 * sigma_x, paths["l1"])
    save_operator(np.diag([0.0, 0.5]).astype(complex), paths["l2"])
    save_operator(np.diag([0.8, 0.2]).astype(complex), paths["rho"])
    code = main(["quantum-run", "--hamiltonian", str(paths["h"]), "--delta-h", str(paths["dh"]),
                 "--lindblad", str(paths["l1"]), str(paths["l2"]), "--rho0", str(paths["rho"]),
                 "--t1", "0.05", "--dt", "0.001", "--out", str(tmp_path / "flags")])
    assert code == 0
    files = (f"hamiltonian = {paths['h']}\ndelta_h = {paths['dh']}\n"
             f"lindblad = {paths['l1']}\n    {paths['l2']}\nrho0 = {paths['rho']}")
    ini = tmp_path / "q.ini"
    ini.write_text(QUANTUM_INI.format(kind="quantum-run", files=files))
    assert main(["quantum-run", "--config", str(ini), "--out", str(tmp_path / "ini")]) == 0
    flags = json.loads((tmp_path / "flags" / "manifest.json").read_text())
    from_ini = json.loads((tmp_path / "ini" / "manifest.json").read_text())
    assert from_ini["files"] == flags["files"]
    capsys.readouterr()

    ini.write_text(QUANTUM_INI.format(kind="control-run", files=files))
    assert main(["control-run", "--config", str(ini), "--out", str(tmp_path / "c")]) == 2
    assert "control-run does not read files" in capsys.readouterr().err
    for key in ("hamiltonian", "rho0"):
        kept = "\n".join(ln for ln in files.splitlines() if not ln.startswith(key))
        ini.write_text(QUANTUM_INI.format(kind="quantum-run", files=kept))
        assert main(["quantum-run", "--config", str(ini), "--out", str(tmp_path / "m")]) == 2
        assert "files must name the hamiltonian and rho0" in capsys.readouterr().err


def test_quantum_builtins_diagonalise_each_operator_once(tmp_path, monkeypatch):
    # each state and Hamiltonian keeps its eigensystem: qubit-qrec diagonalises
    # H, H + dH and rho0 once; qubit-lindblad rho0, I/2 and, in one batched
    # call, the stack of stored states that lindblad_evolve checked
    eigh = np.linalg.eigh
    calls = []
    monkeypatch.setattr(np.linalg, "eigh", lambda M: calls.append(1) or eigh(M))
    for name, limit in (("qubit-qrec", 3), ("qubit-lindblad", 3)):
        calls.clear()
        run_scenario(BUILTIN_FACTORIES[name](), out_dir=str(tmp_path / name))
        assert len(calls) <= limit, name


def test_numerical_failure_exit_and_cleanup(tmp_path, capsys):
    # a Crank-Nicolson step this coarse drives the density negative
    out = tmp_path / "boom"
    code = main(["control-run", "--alpha", "1", "--t1", "0.2", "--dt", "0.05",
                 "--out", str(out)])
    assert code == 3
    assert "numerical failure" in capsys.readouterr().err
    assert not (out / "moments.csv").exists()
    assert not (out / "divergence.csv").exists()
    assert not (out / "manifest.json").exists()
    assert not out.exists()  # the run made the directory, so it goes too


def test_cleanup_keeps_existing_output_directory(tmp_path, capsys):
    out = tmp_path / "kept"
    out.mkdir()
    code = main(["control-run", "--alpha", "1", "--t1", "0.2", "--dt", "0.05",
                 "--out", str(out)])
    assert code == 3
    assert out.is_dir() and not any(out.iterdir())


def test_a_record_cut_short_removes_the_run(tmp_path, monkeypatch):
    out = tmp_path / "run"
    run_scenario(BUILTIN_FACTORIES["ou-relax"](), out_dir=str(out))
    assert (out / "run.json").exists()

    def partial(kind, c, w):  # json.dump writes "{" before it meets the set
        w.write_csv("a.csv", ["x"], [(1,)])
        return {"boundary": {1, 2}}

    monkeypatch.setitem(cli.RUNNERS, "control-run", partial)
    with pytest.raises(TypeError):
        run_scenario(BUILTIN_FACTORIES["ou-relax"](), out_dir=str(out))
    assert not (out / "a.csv").exists()
    assert not (out / "run.json").exists()  # neither the partial record nor the earlier one


@pytest.mark.parametrize("flags", [["--t1", "inf"], ["--t1", "nan"], ["--dt", "inf"]])
def test_non_finite_horizon_rejected(tmp_path, capsys, flags):
    out = tmp_path / "o"
    assert main(["control-run", *flags, "--out", str(out)]) == 2
    assert "finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("t1", ["0.055", "0.005"])
def test_sde_run_rejects_partial_horizon(tmp_path, capsys, t1):
    out = tmp_path / "sde"
    code = main(["sde-run", "--model", "overdamped", "--n", "10",
                 "--dt", "0.01", "--t1", t1, "--out", str(out)])
    assert code == 2
    assert "multiple of dt" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("t_index", ["500", "21", "-1"])
def test_paths_run_t_index_out_of_range(tmp_path, capsys, t_index):
    # t1 / dt = 20 steps: the time indices are 0..20
    cfg = tmp_path / "p.ini"
    cfg.write_text("[scenario]\nkind = paths-run\n\n[numerics]\nn_traj = 50\n"
                   f"dt = 0.005\nt1 = 0.1\nt_index = {t_index}\n")
    out = tmp_path / "paths"
    assert main(["paths-run", "--config", str(cfg), "--out", str(out)]) == 2
    assert "t_index must lie in [0, 21)" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("t_index", ["0", "1"])
def test_one_step_paths_run_has_no_interior_time(tmp_path, capsys, t_index):
    # t1 = dt: the time indices are 0 and 1, and neither has both drifts; the
    # message names the horizon the user set, not the pool the run derives
    cfg = tmp_path / "p.ini"
    cfg.write_text("[scenario]\nkind = paths-run\n\n[numerics]\nn_traj = 50\n"
                   f"dt = 0.005\nt1 = 0.005\nt_index = {t_index}\n")
    out = tmp_path / "paths"
    assert main(["paths-run", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "error: paths-run needs an interior time: t1 = 0.005 is one step of " \
                  "dt = 0.005\n"
    assert not out.exists()


@pytest.mark.parametrize("kind", ["control-run", "paths-run"])
def test_two_cell_grid_names_the_grid(tmp_path, capsys, kind):
    # Grid admits 2 cells, but the rates and the osmotic residual take
    # gradients, which need 3 cells per axis; fp-run takes none and runs
    cfg = tmp_path / "g.ini"
    n_traj = "n_traj = 50\n" if kind == "paths-run" else ""
    cfg.write_text(f"[scenario]\nkind = {kind}\n\n[numerics]\ngrid_cells = 2\n{n_traj}"
                   "dt = 0.01\nt1 = 0.1\n")
    out = tmp_path / "g"
    assert main([kind, "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == \
        "error: a gradient needs 3 cells along each axis; axis 0 of the grid has 2\n"
    assert not out.exists()
    cfg.write_text("[scenario]\nkind = fp-run\n\n[numerics]\ngrid_cells = 2\n"
                   "dt = 0.01\nt1 = 0.1\n")
    assert main(["fp-run", "--config", str(cfg), "--out", str(out)]) == 0


def _em_energy(q, kT, sigma2, dt, n_steps):
    """E sum_k |beta(x_k)|^2 dt of the Euler-Maruyama chain of H = q x^2 / 2
    from its Gibbs density N(0, kT / q): beta = -k x with k = sigma2 q / (2 kT)."""
    k, v, total = sigma2 * q / (2.0 * kT), kT / q, 0.0
    for _ in range(n_steps):
        total += k * k * v * dt
        v = (1.0 - k * dt) ** 2 * v + sigma2 * dt
    return total


def test_paths_run_starts_from_its_gibbs_density(tmp_path):
    # q = 4, kT = 1: the ensemble starts from N(0, 1/4), so it is stationary
    # (a N(0, 1) start relaxes, with current drift v = -1.5 x and energy 3.92)
    run_scenario(ScenarioConfig("p", "paths-run", model=dict(q=4.0)), out_dir=str(tmp_path))
    _, energy, se = np.loadtxt(tmp_path / "summary.csv", delimiter=",", skiprows=1)
    assert abs(energy - _em_energy(4.0, 1.0, 2.0, 5e-3, 120)) < 3.0 * se
    x, _, _, v, count, _ = np.loadtxt(tmp_path / "fields.csv", delimiter=",",
                                      skiprows=1, unpack=True)
    used = count >= MIN_CELL_COUNT
    assert abs(np.polyfit(x[used], v[used], 1, w=np.sqrt(count[used]))[0]) < 0.1


def test_paths_osmotic_records_its_binning_health(tmp_path):
    # pool 20-179 of 100 000 trajectories: 16 000 000 samples per lag, 991
    # outside [-4, 4], no cell below MIN_CELL_COUNT; the largest |z| of each
    # drift against the model's, beta = -x and gamma = x, is below criterion
    # 10's gate of 3 at this seed; no state came near the escape radius, 50
    # times the unit spread of the initial states; run.json is in no manifest
    manifest = run_scenario(BUILTIN_FACTORIES["paths-osmotic"](), out_dir=str(tmp_path))
    assert sorted(manifest["files"]) == ["fields.csv", "summary.csv"]
    record = json.loads((tmp_path / "run.json").read_text())
    lag = {"samples": 16_000_000, "outside_share": 991 / 16_000_000,
           "empty_cell_share": 0.0, "min_occupied_count": 348}
    z = {"forward": {"max": pytest.approx(1.8437031198, rel=1e-9), "x": -2.3125},
         "backward": {"max": pytest.approx(2.2252377923, rel=1e-9), "x": -0.9375}}
    values = {"hamiltonian": "quadratic", "q": 1.0, "kT": 1.0, "sigma2": 2.0,
              "n_traj": 100_000, "seed": 42, "dt": 5e-3, "t1": 1.0, "t_index": 100,
              "grid_lo": -4.0, "grid_hi": 4.0, "grid_cells": 64}
    assert record == {"values": values,
                      "drift_bins": {name: {**lag, "drift_z": z[name]} for name in z},
                      "escape": {"radius": 50.0,
                                 "max_abs_state": pytest.approx(4.955535175, rel=1e-9)}}


def test_paths_run_manifest_records_default_seed(tmp_path):
    cfg = tmp_path / "p.ini"
    cfg.write_text("[scenario]\nkind = paths-run\n\n[numerics]\nn_traj = 50\n"
                   "dt = 0.005\nt1 = 0.1\n")
    seedless = tmp_path / "a"
    assert main(["paths-run", "--config", str(cfg), "--out", str(seedless)]) == 0
    seeded = tmp_path / "b"
    assert main(["paths-run", "--config", str(cfg), "--out", str(seeded),
                 "--seed", "42"]) == 0
    a = json.loads((seedless / "manifest.json").read_text())
    b = json.loads((seeded / "manifest.json").read_text())
    assert a["seed"] == b["seed"] == 42
    assert a["files"] == b["files"]


def test_initial_moments_checked_by_key(tmp_path, capsys):
    cases = [("sde-run", "var0", "-1"), ("sde-run", "var0", "nan"),
             ("control-run", "mean0", "nan")]
    for kind, key, value in cases:
        cfg = tmp_path / f"{kind}-{key}.ini"
        cfg.write_text(f"[scenario]\nkind = {kind}\n\n[numerics]\nn_traj = 20\n"
                       f"dt = 0.01\nt1 = 0.05\n{key} = {value}\n")
        out = tmp_path / "o"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main([kind, "--config", str(cfg), "--out", str(out)]) == 2
        assert key in capsys.readouterr().err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert not out.exists()


def test_mass_drift_is_numerical_failure(tmp_path, monkeypatch, capsys):
    # a leak of 1e-9 per step is 2e-7 over ou-relax's 200 steps: above
    # grids.MASS_TOL, so it must be caught before a GridDensity is built;
    # the solution is item 3 of LAPACK's dgtsv result
    dgtsv = scipy.linalg.lapack.dgtsv

    def leaky(*args, **kwargs):
        *bands, x, info = dgtsv(*args, **kwargs)
        return *bands, x * (1.0 + 1e-9), info

    monkeypatch.setattr(scipy.linalg.lapack, "dgtsv", leaky)
    out = tmp_path / "o"
    assert main(["control-run", "--scenario", "ou-relax", "--out", str(out)]) == 3
    assert "mass drift" in capsys.readouterr().err
    assert not out.exists()


def test_non_finite_step_between_stored_times_exits_3(tmp_path, monkeypatch, capsys):
    # ou-relax stores every 10th step; a NaN from the third solve fails the
    # mass check of that step, at t = 0.003, not the next solve's input check
    dgtsv, calls = scipy.linalg.lapack.dgtsv, []

    def nan_once(*args, **kwargs):
        result = dgtsv(*args, **kwargs)
        calls.append(None)
        if len(calls) == 3:
            x = result[3]
            x[x.size // 2] = np.nan
        return result

    monkeypatch.setattr(scipy.linalg.lapack, "dgtsv", nan_once)
    out = tmp_path / "o"
    assert main(["control-run", "--scenario", "ou-relax", "--out", str(out)]) == 3
    assert "numerical failure: mass drift at t=0.003: nan != 1" in capsys.readouterr().err
    assert not out.exists()


def test_krylov_failure_is_numerical_failure(tmp_path, monkeypatch, capsys):
    # no residual is below a relative tolerance of 0: the solve of a density
    # off equilibrium iterates until it breaks down or hits its iteration
    # limit, and says which, after how many iterations and how near it came
    def run_2d(kind, c, w):
        grid = Grid((-4.0, -4.0), (4.0, 4.0), (12, 12))
        rho0 = GaussianDensity([1.0, 0.0], np.eye(2)).sample_on(grid)
        ham = quadratic_hamiltonian(np.eye(2), kT=1.0, sigma2=2.0)
        fokker_planck.evolve(ham, 0.0, rho0, 0.0, 0.1, 0.05)

    monkeypatch.setattr(fokker_planck, "KRYLOV_RTOL", 0.0)
    monkeypatch.setitem(cli.RUNNERS, "fp-run", run_2d)
    assert main(["fp-run", "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert "BiCGSTAB" in err
    assert re.search(r"\(info=-?\d+\) after \d+ iterations, at relative residual "
                     r"\d\.\d{3}e[-+]\d+", err), err


def test_linalg_error_is_numerical_failure(tmp_path, monkeypatch, capsys):
    def fail(kind, c, w):
        raise np.linalg.LinAlgError("singular matrix")

    monkeypatch.setitem(cli.RUNNERS, "quantum-run", fail)
    assert main(["quantum-run", "--scenario", "qubit-lindblad",
                 "--out", str(tmp_path / "o")]) == 3
    assert "numerical failure" in capsys.readouterr().err


@pytest.mark.parametrize("exc", [NumericalFailure, PositivityError, ConvergenceError,
                                 MassDriftError, TrajectoryDivergence],
                         ids=lambda exc: exc.__name__)
def test_every_numerical_failure_exits_3(tmp_path, monkeypatch, capsys, exc):
    def fail(kind, c, w):
        w.write_csv("partial.csv", ["t"], [(0.0,)])
        raise exc("injected")

    monkeypatch.setitem(cli.RUNNERS, "control-run", fail)
    out = tmp_path / "o"
    assert main(["control-run", "--scenario", "ou-relax", "--out", str(out)]) == 3
    assert capsys.readouterr().err == "numerical failure: injected\n"
    assert not out.exists()


@pytest.mark.parametrize("message,line", [
    ("", "error: out of memory"),
    ("Unable to allocate 7.28 TiB", "error: Unable to allocate 7.28 TiB")])
def test_size_too_large_to_allocate_exits_2(tmp_path, monkeypatch, capsys, message, line):
    # an allocation that fails is a size the input asked for, not a crash
    def fail(kind, c, w):
        w.write_csv("partial.csv", ["t"], [(0.0,)])
        raise MemoryError(message)

    monkeypatch.setitem(cli.RUNNERS, "fp-run", fail)
    out = tmp_path / "o"
    assert main(["fp-run", "--out", str(out)]) == 2
    assert capsys.readouterr().err == line + "\n"
    assert not out.exists()


def test_seed_override_leaves_the_config_unchanged(tmp_path):
    cfg = BUILTIN_FACTORIES["qubit-qrec"]()
    assert run_scenario(cfg, out_dir=str(tmp_path / "a"), seed=5)["seed"] == 5
    assert "seed" not in cfg.numerics
    assert run_scenario(cfg, out_dir=str(tmp_path / "b"))["seed"] == 0


def test_builtins_set_only_what_differs_from_the_defaults():
    # a builtin is its kind's defaults plus the keys that make the experiment
    for name, (kind, _, keys) in cli.BUILTINS.items():
        cfg = BUILTIN_FACTORIES[name]()
        assert (cfg.name, cfg.kind) == (name, kind)
        model = {k: v for k, v in keys.items() if k == "model"}
        defaults = ScenarioConfig(name, kind, **cli._sections(model)).values()
        assert all(defaults[k] != v for k, v in keys.items() if k != "model"), name
        assert {k: cfg.values()[k] for k in keys} == keys


def test_flags_set_their_keys(tmp_path, capsys):
    args = cli.build_parser().parse_args(
        ["sde-run", "--model", "polymer", "--n", "7", "--gamma", "0.5", "--alpha-c", "2",
         "--t1", "0.5", "--dt", "0.01"])
    c = cli._config_from_args(args).values()
    assert (c["model"], c["n_traj"], c["gamma"], c["alpha_c"], c["t1"], c["dt"]) \
        == ("polymer", 7, 0.5, 2.0, 0.5, 0.01)
    # a flag's value is cast and checked as the INI value of its key is
    for argv, message in ((["sde-run", "--n", "2.5"], "n_traj must be an integer, got '2.5'"),
                          (["sde-run", "--model", "nosuch"], "model must be one of"),
                          (["control-run", "--alpha", "x"], "alpha must be a number, got 'x'"),
                          (["fp-run", "--seed", "-1"], "seed must lie in [0, 2**64)")):
        out = tmp_path / "o"
        assert main([*argv, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert not out.exists()


FLAG_KEYS = [(kind, key) for kind, keys in cli.KIND_KEYS.items() for key in keys
             if key != "files"]


@pytest.mark.parametrize("kind,key", FLAG_KEYS)
def test_every_key_a_kind_reads_is_its_flag(tmp_path, kind, key):
    # the flag is the key with - for _ (--n for n_traj); its value is set in
    # the key's section as the string an INI file gives
    default, model = cli.KIND_KEYS[kind][key], []
    if isinstance(default, cli._Only) and default.dep == "model":
        model = ["--model", next(m for m in default.values if m)]
    elif kind == "quantum-run" and key != "model":  # no operator files needed
        model = ["--model", "qubit-lindblad"]
    if key == "alpha_table":
        value = _write(tmp_path / "alpha.csv", "t,alpha\n0,0.5\n")
    elif key == "alpha_c":
        value = "0.5"
    elif isinstance(default, tuple):
        value = default[-1]
    else:  # the default, resolved under that model
        base = ScenarioConfig(kind, kind, model={"model": model[1]} if model else {})
        value = str(base.values()[key])
    flag = "--n" if key == "n_traj" else "--" + key.replace("_", "-")
    cfg = cli._config_from_args(cli.build_parser().parse_args([kind, *model, flag, value]))
    section = next(s for s in ("model", "control", "numerics") if key in getattr(cfg, s))
    assert getattr(cfg, section)[key] == value
    assert cfg.values()[key] == cli._cast(key, value)


def test_every_flag_key_is_in_a_section():
    # _sections files a flag's key under its section and drops any other key,
    # so a key no section lists would be a flag that sets nothing
    settable = set().union(*(cli._SECTION_KEYS[s] for s in ("model", "control", "numerics")))
    assert [(kind, key) for kind, key in FLAG_KEYS if key not in settable] == []


def test_decompose_takes_every_key_as_a_flag(tmp_path):
    out = tmp_path / "o"
    assert main(["decompose", "--alpha", "1", "--t1", "0.01", "--grid-cells", "64",
                 "--out", str(out)]) == 0
    values = json.loads((out / "run.json").read_text())["values"]
    assert (values["alpha"], values["t1"], values["grid_cells"]) == (1.0, 0.01, 64)


def test_abbreviated_flag_exits_2(tmp_path, capsys):
    # --m would match --model, --mean0 and --mass: no flag is abbreviated
    out = tmp_path / "o"
    assert main(["sde-run", "--m", "polymer", "--out", str(out)]) == 2
    assert "unrecognized arguments: --m polymer" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [["sde-run", "--m", "polymer"], ["sde-run", "--bogus", "1"],
                                  ["sde-run", "--model"]])
def test_a_bad_flag_is_its_subcommands_error(capsys, argv):
    # an unknown flag, like a missing value, prints the subcommand's usage,
    # which lists the kind's flags, not the top-level one of the subcommands
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: entroflow sde-run [-h]") and "[--model MODEL]" in err
    assert "\nentroflow sde-run: error: " in err


def test_flags_set_their_keys_over_a_builtin(tmp_path):
    # the run record says what ran; the manifest still names the builtin
    out = tmp_path / "o"
    assert main(["control-run", "--scenario", "ou-relax", "--alpha", "2", "--t1", "0.01",
                 "--out", str(out)]) == 0
    header, data = read_csv(out / "divergence.csv")
    assert data.shape[0] == 2 and np.all(data[:, header.index("epur")] != 0.0)
    record = json.loads((out / "run.json").read_text())
    assert (record["values"]["alpha"], record["values"]["t1"], record["values"]["seed"]) \
        == (2.0, 0.01, 42)
    assert record["fd_check_residual"] is None  # both rows are one-sided differences
    assert json.loads((out / "manifest.json").read_text())["scenario"] == "ou-relax"


def test_flags_set_their_keys_over_a_config_file(tmp_path):
    cfg = tmp_path / "c.ini"
    cfg.write_text(FAST_CONTROL_INI)
    out = tmp_path / "o"
    assert main(["control-run", "--config", str(cfg), "--dt", "0.005", "--seed", "9",
                 "--out", str(out)]) == 0
    values = json.loads((out / "run.json").read_text())["values"]
    assert (values["dt"], values["t1"], values["alpha"], values["seed"]) == (0.005, 0.05, 0.5, 9)
    assert read_csv(out / "divergence.csv")[1].shape[0] == 3  # steps 0, 5 and 10


def test_config_and_scenario_exclude_each_other(tmp_path, capsys):
    cfg = tmp_path / "c.ini"
    cfg.write_text(FAST_CONTROL_INI)
    out = tmp_path / "o"
    assert main(["control-run", "--config", str(cfg), "--scenario", "ou-relax",
                 "--out", str(out)]) == 2
    assert "not allowed with argument" in capsys.readouterr().err
    assert not out.exists()


def test_file_flag_over_a_model_builtin_rejected(tmp_path, capsys):
    h = tmp_path / "H.op"
    save_operator(np.diag([1.0, -1.0]).astype(complex), h)
    out = tmp_path / "o"
    assert main(["quantum-run", "--scenario", "qubit-qrec", "--hamiltonian", str(h),
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == ("error: quantum-run does not read files "
                                       "with model = qubit-qrec\n")
    assert not out.exists()


def test_file_flags_set_their_files_over_a_config_file(tmp_path):
    # the other files stay those of the INI file, which is checked only once
    # the flags are set; the run record lists them all
    h, dh, r = (tmp_path / f"{name}.op" for name in ("h", "dh", "rho"))
    save_operator(np.diag([1.0, -1.0]).astype(complex), h)
    save_operator(0.3 * sigma_x, dh)
    save_operator(np.diag([0.8, 0.2]).astype(complex), r)
    runs = {}
    for name, files, flags in (("plain", f"hamiltonian = {h}\nrho0 = {r}", []),
                               ("dh", f"hamiltonian = {h}\nrho0 = {r}", ["--delta-h", str(dh)]),
                               ("rho0", f"hamiltonian = {h}", ["--rho0", str(r)])):
        ini, out = tmp_path / f"{name}.ini", tmp_path / name
        ini.write_text(QUANTUM_INI.format(kind="quantum-run", files=files))
        assert main(["quantum-run", "--config", str(ini), *flags, "--out", str(out)]) == 0
        runs[name] = (json.loads((out / "run.json").read_text())["values"]["files"],
                      (out / "evolution.csv").read_bytes())
    assert runs["plain"][0] == {"hamiltonian": str(h), "rho0": str(r), "lindblad": []}
    assert runs["dh"][0] == {**runs["plain"][0], "delta_h": str(dh)}
    assert runs["plain"][1] != runs["dh"][1]
    assert runs["rho0"] == runs["plain"]


def test_every_kind_records_the_values_it_ran(tmp_path):
    # sde-run and quantum-run write a run.json too, in no manifest
    for name in ("polymer-cooling", "qubit-qrec"):
        cfg = replace(BUILTIN_FACTORIES[name](), numerics={"t1": 0.05, "dt": 0.01})
        manifest = run_scenario(cfg, out_dir=str(tmp_path / name))
        assert "run.json" not in manifest["files"]
        record = json.loads((tmp_path / name / "run.json").read_text())
        assert record.pop("values") == cfg.values()
        assert set(record) == ({"escape"} if name == "polymer-cooling" else set())


@pytest.mark.parametrize("model", ["overdamped", "polymer"])
def test_ensemble_runs_record_their_escape_margin(tmp_path, model):
    # the radius in use and the largest |state| of any step (time 0 is no
    # step): for the overdamped run read off its stored paths, for the
    # polymer's four gains off each gain's stored ensemble
    cfg = ScenarioConfig("e", "sde-run", model=dict(model=model),
                         numerics=dict(n_traj=40, dt=0.01, t1=0.05, seed=3))
    run_scenario(cfg, out_dir=str(tmp_path))
    escape = json.loads((tmp_path / "run.json").read_text())["escape"]
    c = cfg.values()
    if model == "overdamped":
        _, _, x = np.loadtxt(tmp_path / "paths.csv", delimiter=",", skiprows=1, unpack=True)
        x0 = x[:c["n_traj"]]  # time 0's rows come first
        assert escape == {"radius": 50.0 * max(1.0, float(np.std(x0))),
                          "max_abs_state": float(np.max(np.abs(x[c["n_traj"]:])))}
        return
    spec = harmonic_cantilever(1.0)
    stored = [simulate_polymer(spec, gain, c["n_traj"], c["dt"], c["t1"], c["seed"])
              for gain in (0.0, 0.5, 1.0, 2.0)]
    assert escape == {"radius": 50.0,
                      "max_abs_state": max(float(np.max(np.abs(ens.states[:, 1:])))
                                           for ens in stored)}


HERMITIAN_OVERFLOW = {"diagonal": "2\n1e308\n0\n0\n-1e308\n",
                      "antisymmetric": "2\n0\n1e308\n-1e308\n0\n"}


@pytest.mark.parametrize("text", HERMITIAN_OVERFLOW.values(), ids=HERMITIAN_OVERFLOW)
def test_hamiltonian_near_the_largest_float_exits_2_without_warning(tmp_path, capsys, text):
    r = tmp_path / "rho.txt"
    save_operator(np.diag([0.8, 0.2]).astype(complex), r)
    out = tmp_path / "q"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["quantum-run", "--hamiltonian", _write(tmp_path / "h.txt", text),
                     "--rho0", str(r), "--t1", "0.01", "--dt", "0.001", "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert not out.exists()


def test_delta_h_of_another_size_rejected(tmp_path, capsys):
    # a 1x1 delta_h would broadcast over the 2x2 Hamiltonian
    r = tmp_path / "rho.txt"
    save_operator(np.diag([0.8, 0.2]).astype(complex), r)
    dh = _write(tmp_path / "dh.txt", "1\n0.5\n")
    out = tmp_path / "q"
    assert main(["quantum-run", "--hamiltonian", _write(tmp_path / "h.txt", "2\n1\n0\n0\n-1\n"),
                 "--delta-h", dh, "--rho0", str(r), "--t1", "0.01", "--dt", "0.001",
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {dh}: ") and "differ in size" in err
    assert not out.exists()


@pytest.mark.parametrize("entry", ["nan+0i", "inf", "-inf+0i"])
def test_non_finite_operator_file_rejected(tmp_path, capsys, entry):
    h = tmp_path / "h.txt"
    r = tmp_path / "rho.txt"
    h.write_text(f"2\n{entry}\n0+0i\n0+0i\n1+0i\n")
    save_operator(np.diag([0.8, 0.2]).astype(complex), r)
    out = tmp_path / "q"
    code = main(["quantum-run", "--hamiltonian", str(h), "--rho0", str(r),
                 "--t1", "0.01", "--dt", "0.001", "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert "finite" in err and str(h) in err
    assert not (out / "evolution.csv").exists()


@pytest.mark.parametrize("text", ["", "two\n1 0 0 1\n", "0\n", "2\n1 0 0\n"],
                         ids=["empty", "size-not-integer", "size-zero", "short"])
def test_malformed_operator_file_names_the_file(tmp_path, capsys, text):
    h = tmp_path / "h.txt"
    r = tmp_path / "rho.txt"
    h.write_text(text)
    save_operator(np.diag([0.8, 0.2]).astype(complex), r)
    out = tmp_path / "q"
    code = main(["quantum-run", "--hamiltonian", str(h), "--rho0", str(r),
                 "--t1", "0.01", "--dt", "0.001", "--out", str(out)])
    assert code == 2
    assert str(h) in capsys.readouterr().err
    assert not out.exists()


def test_store_every_zero_rejected(tmp_path, capsys):
    cfg = tmp_path / "c.ini"
    cfg.write_text(FAST_CONTROL_INI.replace("store_every = 5", "store_every = 0"))
    code = main(["control-run", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "store_every" in capsys.readouterr().err


def test_missing_input_file_exits_2(tmp_path, capsys):
    r = tmp_path / "rho.txt"
    save_operator(np.diag([0.8, 0.2]).astype(complex), r)
    table, op = tmp_path / "absent.csv", tmp_path / "absent.op"
    runs = [(table, ["control-run", "--alpha-table", str(table), "--t1", "0.05",
                     "--dt", "0.01"]),
            (op, ["quantum-run", "--hamiltonian", str(op), "--rho0", str(r),
                  "--t1", "0.01", "--dt", "0.001"])]
    for path, argv in runs:
        out = tmp_path / "o"
        assert main([*argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(path) in err
        assert not out.exists()


def test_gain_table_flag(tmp_path):
    table = tmp_path / "alpha.csv"
    table.write_text("t,alpha\n0,0\n1,1\n")
    out = tmp_path / "o"
    code = main(["control-run", "--alpha-table", str(table),
                 "--t1", "0.05", "--dt", "0.01", "--out", str(out)])
    assert code == 0
    assert (out / "divergence.csv").exists()


@pytest.mark.parametrize("row", ["0.1", "0.05,abc", "0.05,0.5,1"])
def test_gain_table_rows_parse_strictly(tmp_path, capsys, row):
    # only the first line may be a header: a short, non-numeric or long row
    # after it names the file and line instead of being skipped
    table = tmp_path / "alpha.csv"
    table.write_text(f"t,alpha\n0,0\n\n{row}\n1,1\n")
    out = tmp_path / "o"
    assert main(["control-run", "--alpha-table", str(table), "--t1", "0.05",
                 "--dt", "0.01", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"{table} line 4" in err
    assert not out.exists()


@pytest.mark.parametrize("text,bad_line", [("0,0.5,\n0.005,1.0\n", 1),
                                           ("\nt,alpha\n0,0.5\n0.005,1.0\n", None)],
                         ids=["trailing-comma", "blank-then-header"])
def test_gain_table_header_is_the_first_nonblank_line(tmp_path, capsys, text, bad_line):
    # the first non-blank line is a header only when none of its fields is a
    # number: a first data row is never dropped, and a header after a blank
    # line is no row; a table that parses runs as the same table written plainly
    table, out = tmp_path / "alpha.csv", tmp_path / "o"
    table.write_text(text)
    argv = ["--t1", "0.01", "--dt", "0.001"]
    code = main(["control-run", "--alpha-table", str(table), *argv, "--out", str(out)])
    if bad_line is not None:
        assert code == 2
        assert f"{table} line {bad_line}: expected two numbers" in capsys.readouterr().err
        assert not out.exists()
        return
    assert code == 0
    plain, ref = tmp_path / "plain.csv", tmp_path / "ref"
    plain.write_text("0,0.5\n0.005,1.0\n")
    assert main(["control-run", "--alpha-table", str(plain), *argv, "--out", str(ref)]) == 0
    assert (out / "divergence.csv").read_bytes() == (ref / "divergence.csv").read_bytes()


def test_gain_table_non_finite_entries_exit_2(tmp_path, capsys):
    # a NaN time passes the strictly-increasing check, and an entry past the
    # horizon is never read: each table is rejected for its non-finite entry
    table, out = tmp_path / "g.csv", tmp_path / "o"
    for rows in ("nan,0.5", "0,0.5\ninf,1.0", "0,0.5\n0.02,0.5\n100,nan", "0,0.5\nnan,1.0"):
        table.write_text(rows + "\n")
        assert main(["control-run", "--alpha-table", str(table), "--t1", "0.02",
                     "--dt", "0.01", "--out", str(out)]) == 2, rows
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, rows
        assert "finite" in err, rows
        assert not out.exists(), rows


NARROW_CONTROL_INI = """\
[scenario]
kind = control-run

[control]
alpha = {alpha}

[numerics]
mean0 = 0.0
var0 = 0.01
t1 = 0.01
dt = 0.001
store_every = 1
"""


@pytest.mark.parametrize("alpha", [0.0, 1.0])
def test_underflowed_density_tails_are_a_valid_run(tmp_path, alpha):
    # N(0, 0.01) on the default [-8, 8] x 1024 grid: the tails underflow to
    # exact zeros, which carry zero weight in the rates
    rho0 = GaussianDensity([0.0], [[0.01]]).sample_on(Grid((-8.0,), (8.0,), (1024,)))
    assert np.count_nonzero(rho0.values == 0.0) > 0
    cfg = tmp_path / "narrow.ini"
    cfg.write_text(NARROW_CONTROL_INI.format(alpha=alpha))
    out = tmp_path / "o"
    assert main(["control-run", "--config", str(cfg), "--out", str(out)]) == 0
    _, data = read_csv(out / "divergence.csv")
    m, v = 0.0, 0.01
    exact = -(1.0 + alpha) * (m**2 + (v - 1.0) ** 2 / v)  # sigma2/2 = 1
    assert data[0, 2] == pytest.approx(exact, rel=1e-6)


TRUNCATED_CONTROL_INI = """\
[scenario]
kind = control-run

[model]
q = 1
sigma2 = 2

[control]
alpha = 0

[numerics]
grid_lo = {lo}
grid_hi = {hi}
grid_cells = 256
mean0 = {mean0}
var0 = 0.1
dt = 1e-3
t1 = 0.1
"""


@pytest.mark.parametrize("lo,hi,mean0,initial,worst", [(-1.0, 1.0, 0.0, 7.006e-3, 0.2650),
                                                       (5.0, 8.0, 6.5, 1.420e-5, 0.7135)])
def test_truncated_box_is_recorded_in_run_json(tmp_path, lo, hi, mean0, initial, worst):
    # N(mean0, 0.1) spreads toward the equilibrium N(0, 1), and the box cuts
    # both: a valid run (exit 0) whose record flags every density it names
    cfg, out = tmp_path / "cut.ini", tmp_path / "o"
    cfg.write_text(TRUNCATED_CONTROL_INI.format(lo=lo, hi=hi, mean0=mean0))
    assert main(["control-run", "--config", str(cfg), "--out", str(out)]) == 0
    record = json.loads((out / "run.json").read_text())["boundary"]
    assert sorted(record) == ["equilibrium", "initial", "worst_stored"]
    assert all(entry["suspect"] is True for entry in record.values())
    assert record["initial"]["ratio"] == pytest.approx(initial, rel=1e-3)
    assert record["worst_stored"]["ratio"] == pytest.approx(worst, rel=1e-3)
    assert record["worst_stored"]["t"] == 0.1
    manifest = json.loads((out / "manifest.json").read_text())
    assert sorted(manifest["files"]) == ["divergence.csv", "moments.csv"]


def test_ou_relax_records_a_certified_equilibrium(tmp_path):
    # the Gibbs N(0, 1) on [-8, 8] falls to 1.3e-14 of its peak at the edges,
    # but the initial N(1, 2) is cut (4.9e-6 of its peak at +8); it is the
    # worst stored density, as it relaxes toward the equilibrium
    out = tmp_path / "o"
    run_scenario(BUILTIN_FACTORIES["ou-relax"](), out_dir=str(out))
    record = json.loads((out / "run.json").read_text())
    # the largest interior FD residual, read off divergence.csv's rows 1-19
    _, rows = read_csv(out / "divergence.csv")
    k = 1 + np.argmax(rows[1:-1, 5])
    assert record["fd_check_residual"] == {"max": rows[k, 5], "t": rows[k, 0]}
    assert rows[k, 0] == 0.19 and rows[k, 5] == pytest.approx(3.946e-5, rel=1e-3)
    # all 200 steps solved, stored or not, with no clamp, by direct 1-D solves
    stepper = record["stepper"]
    assert stepper.pop("max_mass_error") < 1e-13
    assert stepper == {"solves": 200, "clamped_solves": 0, "most_negative": None,
                       "krylov_iterations": None}
    record = record["boundary"]
    assert record["equilibrium"]["suspect"] is False
    assert record["equilibrium"]["ratio"] == pytest.approx(1.348e-14, rel=1e-3)
    assert record["initial"]["suspect"] is True
    assert record["initial"]["ratio"] == pytest.approx(4.918e-6, rel=1e-3)
    assert record["worst_stored"] == dict(record["initial"], t=0.0)
    # every one of its 21 stored densities is cut, the last at 6.1e-8
    grid = Grid((-8.0,), (8.0,), (1024,))
    traj = evolve_modulated(quadratic_hamiltonian(1.0, kT=1.0, sigma2=2.0), 0.0,
                            GaussianDensity([1.0], [[2.0]]).sample_on(grid), 0.2, 1e-3,
                            store_every=10)
    ratios, suspect = boundary_certificate(grid, traj.values)
    assert len(ratios) == 21 and suspect.all()
    assert ratios[0] == record["initial"]["ratio"]
    assert ratios[-1] == pytest.approx(6.087e-8, rel=1e-3)


def test_wide_box_equilibrium_underflow_rejected(tmp_path, capsys):
    # exp(-x^2/2) underflows to exact zeros near x = +-40, where no feedback
    # law log(rho / rho_bar) exists
    cfg = tmp_path / "wide.ini"
    cfg.write_text(FAST_CONTROL_INI.replace(
        "grid_cells = 256", "grid_lo = -40\ngrid_hi = 40\ngrid_cells = 512"))
    out = tmp_path / "o"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["control-run", "--config", str(cfg), "--out", str(out)]) == 2
    assert "underflows to zero on 18 of 512 cells" in capsys.readouterr().err
    assert not out.exists()  # a failed run writes no run.json


def test_cells_too_fine_for_a_unit_mass_density_exit_2(tmp_path, capsys):
    # cells of volume 6.25e-310: a unit-mass density on them sums past the
    # largest float, so the grid is rejected before any density is built
    cfg = tmp_path / "fine.ini"
    cfg.write_text("[scenario]\nkind = control-run\n\n"
                   "[numerics]\ngrid_lo = 0\ngrid_hi = 1e-308\ngrid_cells = 16\n")
    out = tmp_path / "o"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["control-run", "--config", str(cfg), "--out", str(out)]) == 2
    assert "cells of volume 6.25e-310 are too small" in capsys.readouterr().err
    assert not out.exists()


def test_initial_density_off_the_box_rejected(tmp_path, capsys):
    # N(100, 2) underflows to exact zeros on [-8, 8]: zero mass to normalise
    cfg = tmp_path / "far.ini"
    cfg.write_text(FAST_CONTROL_INI + "mean0 = 100\n")
    out = tmp_path / "o"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["control-run", "--config", str(cfg), "--out", str(out)]) == 2
    assert "quadrature mass 0 on the grid box" in capsys.readouterr().err
    assert not out.exists()


def _bad_key_cases():
    """(kind, key, value) for every key of KIND_KEYS that a bad value can reach,
    one key per kind that the kind does not read, and out-of-range values."""
    settable = set().union(*(cli._SECTION_KEYS[s] for s in ("model", "control", "numerics")))
    for kind, keys in cli.KIND_KEYS.items():
        for key in keys:
            if key in cli._INTS:
                yield kind, key, "2.5"
            elif key not in cli._STRS and key != "files":
                yield kind, key, "nan"
                yield kind, key, "inf"
        yield kind, sorted(settable - set(keys))[0], "1"
        yield kind, "seed", "-1"
        for key, value in (("hamiltonian", "doublewell"), ("model", "nosuch"),
                           ("n_traj", "0"), ("n_traj", "1")):
            if key in keys:
                yield kind, key, value


@pytest.mark.parametrize("kind,key,value", list(_bad_key_cases()))
def test_every_key_checked_once(tmp_path, capsys, kind, key, value):
    sections = {s: {} for s in ("model", "control", "numerics")}
    # set a model that reads the key, so its value is what gets checked
    default = cli.KIND_KEYS[kind].get(key)
    if isinstance(default, cli._Only) and default.dep == "model":
        sections["model"]["model"] = next(m for m in default.values if m)
    elif kind == "quantum-run" and key != "model":
        sections["model"]["model"] = "qubit-lindblad"
    sections[next(s for s in sections if key in cli._SECTION_KEYS[s])][key] = value
    body = "".join(f"\n[{s}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
                   for s, keys in sections.items() if keys)
    cfg = tmp_path / "bad.ini"
    cfg.write_text(f"[scenario]\nkind = {kind}\n{body}")
    out = tmp_path / "o"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([kind, "--config", str(cfg), "--out", str(out)]) == 2
    assert key in capsys.readouterr().err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert not out.exists()


def _write(path, text):
    path.write_text(text)
    return str(path)


UNREAD_KEY_RUNS = {
    "gamma": lambda p: ["sde-run", "--model", "overdamped", "--gamma", "5", "--n", "10",
                        "--dt", "0.01", "--t1", "0.05"],
    "files": lambda p: ["quantum-run", "--config", _write(
        p / "q.ini", "[scenario]\nkind = quantum-run\n\n[model]\nmodel = qubit-qrec\n\n"
        f"[files]\nhamiltonian = {p / 'absent.op'}\nrho0 = {p / 'absent.op'}\n")],
    "alpha": lambda p: ["control-run", "--alpha", "0.5", "--alpha-table",
                        _write(p / "alpha.csv", "t,alpha\n0,0\n1,1\n"),
                        "--t1", "0.05", "--dt", "0.01"],
}


@pytest.mark.parametrize("key", sorted(UNREAD_KEY_RUNS))
def test_key_the_selected_model_never_reads_rejected(tmp_path, capsys, key):
    # the kind reads the key, but not with this model or with a gain table
    out = tmp_path / "o"
    assert main([*UNREAD_KEY_RUNS[key](tmp_path), "--out", str(out)]) == 2
    assert f"does not read {key} with " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("section,body", [
    ("model", "q = 1e308"), ("model", "sigma2 = 1e308"), ("control", "alpha = 1e308"),
    ("model", "kT = 1e-308"), ("numerics", "grid_lo = -1e308\ngrid_hi = 1e308"),
    ("model", "sigma2 = 3e307")],
    ids=["q", "sigma2", "alpha", "kT", "box", "sigma2-over-cell-width"])
def test_huge_finite_values_rejected_without_warning(tmp_path, capsys, section, body):
    # finite inputs whose drift, operator or cell width overflows: the checks
    # reject them before numpy has anything to warn about
    sections = {"numerics": "grid_cells = 64\nt1 = 0.05\ndt = 0.01\n"}
    sections[section] = sections.get(section, "") + body + "\n"
    cfg = tmp_path / "huge.ini"
    cfg.write_text("[scenario]\nkind = control-run\n"
                   + "".join(f"\n[{s}]\n{b}" for s, b in sections.items()))
    out = tmp_path / "o"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["control-run", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert not out.exists()


@pytest.mark.parametrize("kind,body,code,message", [
    ("sde-run", "[numerics]\nmean0 = 1e308\n", 2, "error: the spread of the initial states"),
    ("sde-run", "[model]\nq = 1e308\n", 3, "numerical failure: trajectory divergence"),
    ("sde-run", "[model]\nkT = 1e-308\n", 3, "numerical failure: trajectory divergence"),
    ("paths-run", "[model]\nq = 1e308\n", 3, "numerical failure: trajectory divergence"),
    ("paths-run", "[model]\nq = 1e-300\nkT = 1e300\n", 2,
     "error: the spread of the initial states"),
    ("quantum-run", "[model]\nmodel = qubit-lindblad\ngamma = 1e308\n", 2,
     "error: the step propagator exp(dt L) is not finite"),
    ("sde-run", "[model]\nmodel = polymer\ntemperature = 1e200\n", 3,
     "numerical failure: the kinetic temperature or its standard error overflows"),
    ("paths-run", "[numerics]\ngrid_hi = 1e308\ngrid_cells = 2\n", 2, "error: cells of volume"),
], ids=["sde-mean0", "sde-q", "sde-kT", "paths-q", "paths-spread", "lindblad-gamma",
        "polymer-temperature", "paths-box"])
def test_overflowing_model_values_exit_without_warning(tmp_path, capsys, kind, body, code,
                                                       message):
    # finite values whose states or propagator overflow: invalid input (2) or
    # a numerical failure (3), one message line, no numpy warning, no outputs
    size = "" if kind == "quantum-run" else "n_traj = 64\n"
    cfg = tmp_path / "huge.ini"
    cfg.write_text(f"[scenario]\nkind = {kind}\n\n{body}\n"
                   + ("" if "[numerics]" in body else "[numerics]\n")
                   + f"{size}dt = 0.01\nt1 = 0.05\n")
    out = tmp_path / "o"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([kind, "--config", str(cfg), "--out", str(out)]) == code
    err = capsys.readouterr().err
    assert err.startswith(message) and err.count("\n") == 1
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert not out.exists()


def test_overflowing_spread_drawn_ahead_exits_2_without_warning(tmp_path, capsys,
                                                                monkeypatch):
    # three noise blocks, each drawn ahead on the march's worker thread: the
    # first block's spread still overflows before anything warns, and the
    # worker is joined
    monkeypatch.setattr(sde, "NOISE_AHEAD_BYTES", np.inf)
    threads = threading.active_count()
    cfg = tmp_path / "huge.ini"
    cfg.write_text("[scenario]\nkind = sde-run\n\n[numerics]\nmean0 = 1e308\n"
                   "n_traj = 3000\ndt = 0.01\nt1 = 0.05\n")
    out = tmp_path / "o"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["sde-run", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: the spread of the initial states") and err.count("\n") == 1
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert not out.exists()
    assert threading.active_count() == threads


def test_store_every_defaults_per_kind():
    # one default per kind: quantum runs store every step unless told otherwise
    assert ScenarioConfig("q", "quantum-run", model=dict(model="qubit-lindblad")
                          ).values()["store_every"] == 1
    assert ScenarioConfig("c", "control-run").values()["store_every"] == 10


# ---------------------------------------------------------------------------
# reproducibility
# ---------------------------------------------------------------------------

def test_artifacts_are_write_csv_of_the_row_builders(tmp_path):
    # the runners format nothing themselves: each ensemble CSV is
    # ArtifactWriter.write_csv of a row builder, byte for byte
    ham = quadratic_hamiltonian(1.0, kT=1.0, sigma2=2.0)
    direct = cli.ArtifactWriter(str(tmp_path / "direct"))

    assert main(["sde-run", "--model", "overdamped", "--n", "20", "--dt", "0.01",
                 "--t1", "0.05", "--seed", "3", "--out", str(tmp_path / "sde")]) == 0
    x0 = lambda rng, size: 0.0 + 1.0 * rng.standard_normal((size, 1))
    ens = simulate_overdamped(ham, None, x0, 20, 0.01, 0.05, 3)
    for name, (header, rows) in (("paths.csv", ensemble_rows(ens)),
                                 ("summary.csv", ensemble_summary(ens))):
        direct.write_csv(name, header, rows)
        assert (tmp_path / "sde" / name).read_bytes() == (tmp_path / "direct" / name).read_bytes()

    cfg = tmp_path / "p.ini"
    cfg.write_text("[scenario]\nkind = paths-run\n\n[numerics]\nn_traj = 200\n"
                   "dt = 0.005\nt1 = 0.1\nseed = 5\n")
    assert main(["paths-run", "--config", str(cfg), "--out", str(tmp_path / "paths")]) == 0
    x0 = lambda rng, size: rng.standard_normal((size, 1))
    ens = simulate_overdamped(ham, None, x0, 200, 0.005, 0.1, 5)
    grid, pool = Grid((-4.0,), (4.0,), (48,)), list(range(1, 20))  # t_index 10
    beta, gamma = estimate_drifts(ens, pool, grid)
    direct.write_csv("fields.csv", *drift_field_rows(beta, gamma, current_drift(beta, gamma)))
    assert (tmp_path / "paths" / "fields.csv").read_bytes() \
        == (tmp_path / "direct" / "fields.csv").read_bytes()


def test_run_scenario_reproducible_hashes(tmp_path):
    cfg = ScenarioConfig("t", "control-run", model=dict(q=1.0, kT=1.0, sigma2=2.0),
                         control=dict(alpha=1.0),
                         numerics=dict(grid_cells=256, dt=0.01, t1=0.05,
                                       store_every=5, seed=11))
    m1 = run_scenario(cfg, out_dir=str(tmp_path / "a"))
    m2 = run_scenario(cfg, out_dir=str(tmp_path / "b"))
    assert m1["files"] == m2["files"]
    assert m1["seed"] == 11


# ---------------------------------------------------------------------------
# generated inputs: the exit contract on INI texts and operator files
# ---------------------------------------------------------------------------

VALUES = ["0", "-1", "2.5", "nan", "inf", "-inf", "1e308", "-1e308", "1e-308", "abc", "",
          str(2**64)]
PLAUSIBLE = ["1", "0.5", "2", "0.1", "quadratic"]  # so that some runs go the whole way
SETTABLE = sorted(set().union(*(cli._SECTION_KEYS[s] for s in ("model", "control", "numerics"))))
# sizes small enough to run (50 steps): a generated key may override them
SMALL = {"grid_cells": "16", "n_traj": "256", "dt": "0.01", "t1": "0.5"}


@st.composite
def ini_texts(draw):
    """A scenario file: a kind, its small sizes, random keys of the kind (or
    any section's) with random values, and at times a duplicate key, an
    unknown key or an unknown section."""
    kind = draw(st.sampled_from(sorted(cli.KIND_KEYS)))
    readable = sorted(set(cli.KIND_KEYS[kind]) - {"files"})
    keys = {k: v for k, v in SMALL.items() if k in readable}
    if "model" in readable:
        choices = [m for m in cli.KIND_KEYS[kind]["model"] if m] + ["nosuch"]
        keys["model"] = draw(st.sampled_from(choices))
    values = st.one_of(st.sampled_from(VALUES), st.sampled_from(PLAUSIBLE))
    for key in draw(st.lists(st.sampled_from(readable), max_size=4, unique=True)):
        keys[key] = draw(values)
    if draw(st.integers(0, 4)) == 0:
        keys[draw(st.sampled_from(SETTABLE))] = draw(values)
    sections = {s: [f"{k} = {v}" for k, v in body.items()]
                for s, body in cli._sections(keys).items() if body}
    extra = ([""] * 5 + ["duplicate", "unknown key", "unknown section"])[draw(st.integers(0, 7))]
    if extra == "duplicate" and sections:
        lines = sections[draw(st.sampled_from(sorted(sections)))]
        lines.append(lines[0])
    elif extra == "unknown key":
        sections.setdefault("numerics", []).append("whatever = 1")
    elif extra == "unknown section":
        sections["bogus"] = ["x = 1"]
    return f"[scenario]\nkind = {kind}\n" + "".join(
        f"\n[{s}]\n" + "\n".join(lines) + "\n" for s, lines in sections.items())


def _work_is_small(path) -> bool:
    """Whether the run a valid scenario file asks for stays small."""
    try:
        c = ScenarioConfig.from_ini(path).values()
    except ValueError:
        return True  # rejected before any work
    return (time_steps(0.0, c["t1"], c["dt"]) <= 50 and c.get("grid_cells", 0) <= 64
            and c.get("n_traj", 0) <= 256)


ENTRIES = ["0", "1", "-1", "0.5", "2.5", "1e308", "-1e308", "1e-308", "nan", "inf", "-inf",
           "abc", "1+1i", "0-1i"]
CONJUGATE = {"1+1i": "1-1i", "0-1i": "0+1i"}
RHO = "2\n0.8\n0\n0\n0.2\n"


@st.composite
def operator_texts(draw):
    """An operator file: n and n*n entries, at times mirrored to a Hermitian
    matrix, at times cut short or empty."""
    n = draw(st.integers(1, 3))
    entries = draw(st.lists(st.sampled_from(ENTRIES), min_size=n * n, max_size=n * n))
    if draw(st.booleans()):  # mirror the upper triangle
        for i in range(n):
            for j in range(i):
                entries[i * n + j] = CONJUGATE.get(entries[j * n + i], entries[j * n + i])
    tokens = [str(n)] + entries
    cut = draw(st.sampled_from([len(tokens), len(tokens), 0, 1, len(tokens) - 1]))
    return "".join(t + "\n" for t in tokens[:cut])


def _exits_cleanly(argv, out):
    """Run main: exit 0, 2 or 3, nothing escapes, one stderr line on failure,
    no RuntimeWarning, no output directory left after a failure."""
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("always")
        code = main(argv)
    assert code in (0, 2, 3)
    assert not [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)]
    if code:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith(("error: ", "numerical failure: ")), lines
        assert not os.path.exists(out)


@settings(max_examples=300, deadline=None)
@given(text=ini_texts())
@example(text="[scenario]\nkind = paths-run\n\n[numerics]\nn_traj = 256\ndt = 0.01\n"
              "t1 = 0.5\ngrid_hi = 1e308\n")  # the density estimate's mass overflows
@example(text="[scenario]\nkind = fp-run\n\n[numerics]\ngrid_cells = 16\ndt = 1e308\n"
              "t1 = 1e308\n")  # the step's coefficients overflow
def test_generated_config_files_keep_the_exit_contract(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "gen.ini")
        with open(path, "w") as fh:
            fh.write(text)
        assume(_work_is_small(path))
        kind = text.split("kind = ")[1].split("\n")[0]
        out = os.path.join(tmp, "o")
        _exits_cleanly([kind, "--config", path, "--out", out], out)


@settings(max_examples=200, deadline=None)
@given(hamiltonian=st.one_of(st.just("2\n1\n0\n0\n-1\n"), operator_texts()),
       rho0=st.one_of(st.just(RHO), operator_texts()),
       delta_h=st.one_of(st.none(), operator_texts()),
       lindblad=st.lists(operator_texts(), max_size=2))
@example(hamiltonian=HERMITIAN_OVERFLOW["diagonal"], rho0=RHO, delta_h=None, lindblad=[])
@example(hamiltonian=HERMITIAN_OVERFLOW["antisymmetric"], rho0=RHO, delta_h=None, lindblad=[])
@example(hamiltonian="2\n1\n0\n0\n-1\n", rho0="2\n1e308\n0\n0\n1e308\n", delta_h=None,
         lindblad=[])  # the trace overflows
@example(hamiltonian="1\n1e308\n", rho0=RHO, delta_h="1\n1e308\n", lindblad=[])  # H + dH does
def test_generated_operator_files_keep_the_exit_contract(hamiltonian, rho0, delta_h, lindblad):
    with tempfile.TemporaryDirectory() as tmp:
        def op(name, text):
            path = os.path.join(tmp, name)
            with open(path, "w") as fh:
                fh.write(text)
            return path

        argv = ["quantum-run", "--hamiltonian", op("h.op", hamiltonian),
                "--rho0", op("rho.op", rho0), "--t1", "0.05", "--dt", "0.01"]
        if delta_h is not None:
            argv += ["--delta-h", op("dh.op", delta_h)]
        if lindblad:
            argv += ["--lindblad", *(op(f"l{k}.op", t) for k, t in enumerate(lindblad))]
        out = os.path.join(tmp, "o")
        _exits_cleanly([*argv, "--out", out], out)
