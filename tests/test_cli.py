import json
import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg

from entroflow import GaussianDensity, Grid, cli, fokker_planck, quadratic_hamiltonian
from entroflow.cli import (
    BUILTIN_FACTORIES,
    ConfigError,
    ScenarioConfig,
    main,
    run_scenario,
)
from entroflow.paths import (
    current_drift,
    drift_field_rows,
    estimate_backward_drift,
    estimate_forward_drift,
)
from entroflow.quantum import save_operator, sigma_x
from entroflow.sde import ensemble_rows, ensemble_summary, simulate_overdamped


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
    assert "[files]" in capsys.readouterr().err
    for key in ("hamiltonian", "rho0"):
        kept = "\n".join(ln for ln in files.splitlines() if not ln.startswith(key))
        ini.write_text(QUANTUM_INI.format(kind="quantum-run", files=kept))
        assert main(["quantum-run", "--config", str(ini), "--out", str(tmp_path / "m")]) == 2
        assert f"missing [files] {key}" in capsys.readouterr().err


def test_quantum_builtins_diagonalise_each_operator_once(tmp_path, monkeypatch):
    # each state and Hamiltonian keeps its eigensystem: qubit-qrec diagonalises
    # H, H + dH and rho0 once; qubit-lindblad rho0, I/2 and each stored state
    eigh = np.linalg.eigh
    calls = []
    monkeypatch.setattr(np.linalg, "eigh", lambda M: calls.append(1) or eigh(M))
    for name, limit in (("qubit-qrec", 3), ("qubit-lindblad", 103)):
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
    # grids.MASS_TOL, so it must be caught before a GridDensity is built
    solve_banded = scipy.linalg.solve_banded

    def leaky(*args, **kwargs):
        return solve_banded(*args, **kwargs) * (1.0 + 1e-9)

    monkeypatch.setattr(scipy.linalg, "solve_banded", leaky)
    out = tmp_path / "o"
    assert main(["control-run", "--scenario", "ou-relax", "--out", str(out)]) == 3
    assert "mass drift" in capsys.readouterr().err
    assert not out.exists()


def test_krylov_failure_is_numerical_failure(tmp_path, monkeypatch, capsys):
    def stalled(A, b, x0=None, **kwargs):
        return x0, 7

    def run_2d(cfg, w):
        grid = Grid((-4.0, -4.0), (4.0, 4.0), (12, 12))
        rho0 = GaussianDensity([0.0, 0.0], np.eye(2)).sample_on(grid)
        ham = quadratic_hamiltonian(np.eye(2), kT=1.0, sigma2=2.0)
        fokker_planck.evolve(fokker_planck.HamiltonianFlow(ham), rho0, 0.0, 0.1, 0.05)

    monkeypatch.setattr(scipy.sparse.linalg, "bicgstab", stalled)
    monkeypatch.setitem(cli.RUNNERS, "fp-run", run_2d)
    assert main(["fp-run", "--out", str(tmp_path / "o")]) == 3
    assert "BiCGSTAB" in capsys.readouterr().err


def test_linalg_error_is_numerical_failure(tmp_path, monkeypatch, capsys):
    def fail(cfg, w):
        raise np.linalg.LinAlgError("singular matrix")

    monkeypatch.setitem(cli.RUNNERS, "quantum-run", fail)
    assert main(["quantum-run", "--scenario", "qubit-lindblad",
                 "--out", str(tmp_path / "o")]) == 3
    assert "numerical failure" in capsys.readouterr().err


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
                           ("n_traj", "0")):
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
    ("model", "kT = 1e-308"), ("numerics", "grid_lo = -1e308\ngrid_hi = 1e308")],
    ids=["q", "sigma2", "alpha", "kT", "box"])
def test_huge_finite_values_rejected_without_warning(tmp_path, capsys, section, body):
    # finite inputs whose drift or cell width overflows: the finiteness checks
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
    beta = estimate_forward_drift(ens, pool, grid)
    gamma = estimate_backward_drift(ens, pool, grid)
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
