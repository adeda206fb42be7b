"""Scenario runner: named experiments, config files, CSV/JSON artifacts.

Subcommands
-----------
fp-run, control-run, decompose : grid Fokker-Planck runs (uncontrolled,
    gain-modulated, and the rate-decomposition CSV t,D,total_rate,pepr,epur,
    fd_check_residual);
sde-run      : Monte Carlo ensembles (--model overdamped|polymer);
quantum-run  : Lindblad propagation from operator files;
paths-run    : drift-field estimation on a stationary ensemble;
list         : the builtin scenarios.

Every run writes its CSVs plus a manifest.json mapping each artifact to its
sha256; identical config and seed give byte-identical artifacts (floats are
printed with 17 significant digits, nothing timestamps the outputs).  Exit
codes: 0 ok, 2 usage/validation, 3 numerical failure (partial outputs are
removed on failure).
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from .control import (
    GainSchedule,
    decomposition_curve,
    evolve_modulated,
)
from .fokker_planck import (
    ConvergenceError,
    MassDriftError,
    PositivityError,
    StabilityError,
    admissible_gain,
)
from .grids import Grid, density_covariance, density_mean, time_steps
from .paths import (
    current_drift,
    drift_fields_to_csv,
    estimate_backward_drift,
    estimate_forward_drift,
    finite_energy_estimate,
    osmotic_residual,
)
from .quantum import (
    DensityOperator,
    HamiltonianOperator,
    LindbladSpec,
    depolarizing_jump_operators,
    dissipative_production_rate,
    evolve_closed,
    gibbs_state,
    lindblad_evolve,
    load_operator,
    relative_entropy as q_relative_entropy,
    relative_entropy_rate as q_relative_entropy_rate,
    sigma_x,
    sigma_y,
    spectral_entropy,
    spectral_purity,
)
from .sde import (
    TrajectoryDivergence,
    ensemble_summary_csv,
    ensemble_to_csv,
    estimate_density,
    harmonic_cantilever,
    kinetic_temperature,
    simulate_overdamped,
    simulate_polymer,
)
from .thermo import GaussianDensity, gibbs_density, quadratic_hamiltonian

NUMERICAL_ERRORS = (PositivityError, StabilityError, ConvergenceError, MassDriftError,
                    TrajectoryDivergence, np.linalg.LinAlgError)

KINDS = ("fp-run", "control-run", "decompose", "sde-run", "quantum-run", "paths-run")


class ConfigError(ValueError):
    """Invalid scenario configuration (exit code 2)."""


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

_SECTION_KEYS = {
    "scenario": {"name", "kind"},
    "model": {"hamiltonian", "q", "kT", "sigma2", "model", "spring_k", "mass",
              "gamma", "alpha_c", "temperature"},
    "control": {"alpha", "alpha_table"},
    "numerics": {"grid_lo", "grid_hi", "grid_cells", "dt", "t1", "n_traj",
                 "seed", "mean0", "var0", "store_every", "window_lo", "t_index"},
    "outputs": {"dir"},
    "files": {"hamiltonian", "rho0", "delta_h", "lindblad"},
}


@dataclass
class ScenarioConfig:
    """Typed scenario description; all numeric constraints re-checked here."""

    name: str
    kind: str
    model: dict = field(default_factory=dict)
    control: dict = field(default_factory=dict)
    numerics: dict = field(default_factory=dict)
    outputs: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"unknown scenario kind {self.kind!r}")
        kT = float(self.model.get("kT", 1.0))
        sigma2 = float(self.model.get("sigma2", 2.0))
        if kT <= 0.0:
            raise ConfigError("kT must be positive")
        if sigma2 < 0.0:
            raise ConfigError("sigma2 must be nonnegative")
        if "alpha" in self.control:
            admissible_gain(float(self.control["alpha"]), sigma2)
        dt = float(self.numerics.get("dt", 1e-3))
        t1 = float(self.numerics.get("t1", 0.1))
        if not (np.isfinite(dt) and np.isfinite(t1)) or dt <= 0.0 or t1 <= 0.0:
            raise ConfigError("dt and t1 must be finite and positive")
        cells = int(self.numerics.get("grid_cells", 1024))
        if cells < 2:
            raise ConfigError("grid_cells must be >= 2")
        if float(self.numerics.get("grid_hi", 8.0)) <= float(self.numerics.get("grid_lo", -8.0)):
            raise ConfigError("grid_hi must exceed grid_lo")
        if int(self.numerics.get("store_every", 1)) < 1:
            raise ConfigError("store_every must be >= 1")
        if not np.isfinite(float(self.numerics.get("mean0", 0.0))):
            raise ConfigError("mean0 must be finite")
        if not 0.0 <= float(self.numerics.get("var0", 1.0)) < np.inf:
            raise ConfigError("var0 must be finite and nonnegative")

    @classmethod
    def from_ini(cls, path) -> "ScenarioConfig":
        parser = configparser.ConfigParser()
        parser.optionxform = str  # preserve key case (kT)
        try:  # duplicate keys, a missing section header, a bad % interpolation
            read = parser.read(path)
            bodies = {sec: dict(parser.items(sec)) for sec in parser.sections()}
        except configparser.Error as e:
            raise ConfigError(f"malformed config file {path}: {' '.join(str(e).split())}"
                              ) from None
        if not read:
            raise ConfigError(f"cannot read config file {path}")
        sections = {}
        for sec, body in bodies.items():
            if sec not in _SECTION_KEYS:
                raise ConfigError(f"unknown section [{sec}]")
            unknown = set(body) - _SECTION_KEYS[sec]
            if unknown:
                raise ConfigError(f"unknown key(s) in [{sec}]: {sorted(unknown)}")
            sections[sec] = body
        scen = sections.get("scenario", {})
        if "kind" not in scen:
            raise ConfigError("missing [scenario] kind")
        model = sections.get("model", {})
        if "files" in sections:
            if scen["kind"] != "quantum-run":
                raise ConfigError("[files] is only valid with kind = quantum-run")
            files = sections["files"]
            for key in ("hamiltonian", "rho0"):
                if not files.get(key):
                    raise ConfigError(f"missing [files] {key}")
            model["files"] = dict(files, lindblad=files.get("lindblad", "").split())
        return cls(name=scen.get("name", "custom"), kind=scen["kind"],
                   model=model,
                   control=sections.get("control", {}),
                   numerics=sections.get("numerics", {}),
                   outputs=sections.get("outputs", {}))


def _ou_numerics(**over):
    base = dict(grid_lo=-8.0, grid_hi=8.0, grid_cells=1024, dt=1e-3, t1=0.2,
                seed=42, mean0=1.0, var0=2.0, store_every=10)
    base.update(over)
    return base


BUILTIN_FACTORIES = {
    "ou-relax": lambda: ScenarioConfig(
        "ou-relax", "control-run",
        model=dict(hamiltonian="quadratic", q=1.0, kT=1.0, sigma2=2.0),
        control=dict(alpha=0.0), numerics=_ou_numerics()),
    "ou-modulated": lambda: ScenarioConfig(
        "ou-modulated", "control-run",
        model=dict(hamiltonian="quadratic", q=1.0, kT=1.0, sigma2=2.0),
        control=dict(alpha=1.0), numerics=_ou_numerics()),
    "polymer-cooling": lambda: ScenarioConfig(
        "polymer-cooling", "sde-run",
        model=dict(model="polymer", spring_k=1.0, mass=1.0, gamma=1.0,
                   temperature=1.0),
        numerics=dict(n_traj=1500, dt=5e-3, t1=12.0, seed=7, window_lo=4.0)),
    "qubit-qrec": lambda: ScenarioConfig(
        "qubit-qrec", "quantum-run",
        model=dict(model="qubit-qrec"),
        numerics=dict(dt=1e-3, t1=0.5)),
    "qubit-lindblad": lambda: ScenarioConfig(
        "qubit-lindblad", "quantum-run",
        model=dict(model="qubit-lindblad", gamma=1.0),
        numerics=dict(dt=1e-3, t1=1.0, store_every=10)),
    "paths-osmotic": lambda: ScenarioConfig(
        "paths-osmotic", "paths-run",
        model=dict(hamiltonian="quadratic", q=1.0, kT=1.0, sigma2=2.0),
        numerics=dict(n_traj=100_000, dt=5e-3, t1=1.0, seed=42,
                      grid_lo=-4.0, grid_hi=4.0, grid_cells=64, t_index=100)),
}

BUILTIN_DESCRIPTIONS = {
    "ou-relax": "uncontrolled OU relaxation: divergence decay and rate decomposition",
    "ou-modulated": "gain-1 feedback OU run: doubled decay rate",
    "polymer-cooling": "velocity-feedback cantilever: kinetic temperature vs gain",
    "qubit-qrec": "closed 2-level system: perturbed-Hamiltonian divergence rate vs FD",
    "qubit-lindblad": "depolarizing qubit: monotone divergence and dissipative rate",
    "paths-osmotic": "stationary OU ensemble: drift fields, osmotic relation, energy",
}


# ---------------------------------------------------------------------------
# CSV / manifest plumbing
# ---------------------------------------------------------------------------

def _fmt(v) -> str:
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return f"{float(v):.17g}"


class ArtifactWriter:
    def __init__(self, out_dir):
        self.out_dir = out_dir
        self.created = not os.path.isdir(out_dir)
        os.makedirs(out_dir, exist_ok=True)
        self.files: list[str] = []

    def path(self, name: str) -> str:
        p = os.path.join(self.out_dir, name)
        self.files.append(p)
        return p

    def write_csv(self, name: str, header, rows) -> str:
        p = self.path(name)
        with open(p, "w") as fh:
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(_fmt(v) for v in row) + "\n")
        return p

    def manifest(self, config: ScenarioConfig, seed) -> str:
        entries = {}
        for p in self.files:
            with open(p, "rb") as fh:
                entries[os.path.basename(p)] = hashlib.sha256(fh.read()).hexdigest()
        p = os.path.join(self.out_dir, "manifest.json")
        with open(p, "w") as fh:
            json.dump({"scenario": config.name, "kind": config.kind,
                       "seed": seed, "files": entries}, fh, indent=2,
                      sort_keys=True)
            fh.write("\n")
        return p

    def cleanup(self) -> None:
        """Remove the written files, and the directory if this run made it."""
        for p in self.files:
            if os.path.exists(p):
                os.remove(p)
        if self.created and not os.listdir(self.out_dir):
            os.rmdir(self.out_dir)


# ---------------------------------------------------------------------------
# runners
# ---------------------------------------------------------------------------

def _grid_model(cfg: ScenarioConfig):
    num = cfg.numerics
    ham = quadratic_hamiltonian(float(cfg.model.get("q", 1.0)),
                                kT=float(cfg.model.get("kT", 1.0)),
                                sigma2=float(cfg.model.get("sigma2", 2.0)))
    grid = Grid((float(num.get("grid_lo", -8.0)),),
                (float(num.get("grid_hi", 8.0)),),
                (int(num.get("grid_cells", 1024)),))
    rho0 = GaussianDensity([float(num.get("mean0", 1.0))],
                           [[float(num.get("var0", 2.0))]]).sample_on(grid)
    return ham, grid, rho0


def _seed(cfg: ScenarioConfig) -> int:
    """The seed a run uses and its manifest records: the configured one, else
    the default of its kind (42 for paths-run, 0 otherwise)."""
    return int(cfg.numerics.get("seed", 42 if cfg.kind == "paths-run" else 0))


def _gain(cfg: ScenarioConfig):
    if "alpha_table" in cfg.control:
        return GainSchedule.from_csv(cfg.control["alpha_table"])
    return float(cfg.control.get("alpha", 0.0))


def run_grid_flow(cfg: ScenarioConfig, w: ArtifactWriter) -> None:
    """fp-run / control-run / decompose: one trajectory plus its CSVs."""
    ham, grid, rho0 = _grid_model(cfg)
    num = cfg.numerics
    dt = float(num.get("dt", 1e-3))
    t1 = float(num.get("t1", 0.2))
    store = int(num.get("store_every", 10))
    alpha = _gain(cfg) if cfg.kind != "fp-run" else 0.0
    traj = evolve_modulated(ham, alpha, rho0, t1, dt, store_every=store)

    if cfg.kind == "fp-run":
        rows = ((t, i, v) for t, row in zip(traj.times, traj.values)
                for i, v in enumerate(row))
        w.write_csv("trajectory.csv", ["t", "cell_index", "density"], rows)
        divergence = traj.divergence_curve(gibbs_density(ham, grid))
    else:
        curve = decomposition_curve(traj, ham, alpha)
        divergence = curve["D"]

    if cfg.kind in ("fp-run", "control-run"):
        rows = ((t, mass, density_mean(grid, v, traj.mass)[0],
                 density_covariance(grid, v, traj.mass)[0, 0], D)
                for t, v, mass, D in zip(traj.times, traj.values, traj.mass_curve(),
                                         divergence))
        w.write_csv("moments.csv", ["t", "mass", "mean", "cov", "D_to_equilibrium"],
                    rows)

    if cfg.kind != "fp-run":
        cols = ["t", "D", "total_rate", "pepr", "epur", "fd_check_residual"]
        rows = zip(*(curve[c] for c in cols))
        w.write_csv("divergence.csv", cols, rows)


def run_sde(cfg: ScenarioConfig, w: ArtifactWriter) -> None:
    num = cfg.numerics
    seed = _seed(cfg)
    dt = float(num.get("dt", 1e-3))
    t1 = float(num.get("t1", 1.0))
    n = int(num.get("n_traj", 1000))
    model = cfg.model.get("model", "overdamped")
    if model == "overdamped":
        ham = quadratic_hamiltonian(float(cfg.model.get("q", 1.0)),
                                    kT=float(cfg.model.get("kT", 1.0)),
                                    sigma2=float(cfg.model.get("sigma2", 2.0)))
        mean0 = float(num.get("mean0", 0.0))
        var0 = float(num.get("var0", 1.0))
        x0 = lambda rng, size: mean0 + np.sqrt(var0) * rng.standard_normal((size, 1))
        ens = simulate_overdamped(ham, None, x0, n, dt, t1, seed)
        ensemble_to_csv(ens, w.path("paths.csv"))
        ensemble_summary_csv(ens, w.path("summary.csv"))
    elif model == "polymer":
        gamma = float(cfg.model.get("gamma", 1.0))
        window_lo = float(num.get("window_lo", t1 / 3.0))
        gains = [0.0, 0.5 * gamma, gamma, 2.0 * gamma]
        if "alpha_c" in cfg.model:
            gains = [float(cfg.model["alpha_c"])]
        rows = []
        last = None
        for ac in gains:
            spec = harmonic_cantilever(
                spring_k=float(cfg.model.get("spring_k", 1.0)),
                mass=float(cfg.model.get("mass", 1.0)),
                gamma=gamma, control_gain=ac,
                temperature=float(cfg.model.get("temperature", 1.0)))
            ens = simulate_polymer(spec, n, dt, t1, seed)
            kt = kinetic_temperature(ens, spec, (window_lo, t1))
            rows.append((ac, kt.values[0], kt.stderr[0]))
            last = (ens, spec)
        w.write_csv("temperature.csv", ["alpha_c", "T_kin", "stderr"], rows)
        ensemble_summary_csv(last[0], w.path("summary.csv"), spec=last[1])
    else:
        raise ConfigError(f"unknown sde model {model!r}")


def _qubit_qrec_rows(dt, t1):
    H = HamiltonianOperator(np.diag([1.0, -1.0]).astype(complex))
    dH = HamiltonianOperator(sigma_x)
    Ht = HamiltonianOperator(H.matrix + dH.matrix)
    rho0 = DensityOperator(0.5 * (np.eye(2) + 0.5 * sigma_y))
    rho_tilde0 = gibbs_state(H, 1.0)

    def states(t):
        return evolve_closed(H, rho0, t), evolve_closed(Ht, rho_tilde0, t)

    eps = 1e-5
    for t in np.arange(0.0, t1 + dt / 2, dt):
        rho_t, rho_tilde_t = states(t)
        rate = q_relative_entropy_rate(rho_t, dH, rho_tilde_t)
        fd = (q_relative_entropy(*states(t + eps))
              - q_relative_entropy(*states(t - eps))) / (2.0 * eps)
        yield t, q_relative_entropy(rho_t, rho_tilde_t), rate, abs(rate - fd)


def run_quantum(cfg: ScenarioConfig, w: ArtifactWriter) -> None:
    num = cfg.numerics
    dt = float(num.get("dt", 1e-3))
    t1 = float(num.get("t1", 1.0))
    model = cfg.model.get("model")
    if model == "qubit-qrec":
        w.write_csv("rates.csv", ["t", "D", "rate", "fd_residual"],
                    _qubit_qrec_rows(dt, t1))
        return
    if model == "qubit-lindblad":
        gamma = float(cfg.model.get("gamma", 1.0))
        spec = LindbladSpec(HamiltonianOperator(np.zeros((2, 2))),
                            depolarizing_jump_operators(gamma))
        rho0 = DensityOperator(np.diag([0.9, 0.1]))
        store = int(num.get("store_every", 10))
        traj = lindblad_evolve(spec, rho0, t1, dt, store_every=store)
        mixed = DensityOperator.maximally_mixed(2)
        rows = ((t, np.trace(s.matrix).real, q_relative_entropy(s, mixed),
                 dissipative_production_rate(s, spec, mixed))
                for t, s in zip(traj.times, traj.states))
        w.write_csv("lindblad.csv", ["t", "trace", "D", "dissipative_rate"], rows)
        return
    # file-driven run
    files = cfg.model.get("files")
    if not files:
        raise ConfigError("quantum-run needs a builtin model or operator files")
    H = HamiltonianOperator(load_operator(files["hamiltonian"]))
    if files.get("delta_h"):
        H = HamiltonianOperator(H.matrix + load_operator(files["delta_h"]), H.hbar)
    jumps = tuple(load_operator(p) for p in files.get("lindblad", []))
    rho0 = DensityOperator(load_operator(files["rho0"]))
    spec = LindbladSpec(H, jumps)
    store = int(num.get("store_every", 1))
    traj = lindblad_evolve(spec, rho0, t1, dt, store_every=store)
    traces = np.trace(traj.matrices, axis1=1, axis2=2).real
    rows = zip(traj.times, traces, spectral_purity(traj.spectra),
               spectral_entropy(traj.spectra))
    w.write_csv("evolution.csv", ["t", "trace", "purity", "entropy"], rows)


def run_paths(cfg: ScenarioConfig, w: ArtifactWriter) -> None:
    num = cfg.numerics
    ham = quadratic_hamiltonian(float(cfg.model.get("q", 1.0)),
                                kT=float(cfg.model.get("kT", 1.0)),
                                sigma2=float(cfg.model.get("sigma2", 2.0)))
    n = int(num.get("n_traj", 30_000))
    dt = float(num.get("dt", 5e-3))
    t1 = float(num.get("t1", 0.6))
    seed = _seed(cfg)
    n_times = time_steps(0.0, t1, dt) + 1
    k = int(num.get("t_index", n_times // 2))
    if not 0 <= k < n_times:
        raise ConfigError(f"t_index must lie in [0, {n_times}), got {k}")
    x0 = lambda rng, size: rng.standard_normal((size, 1))
    ens = simulate_overdamped(ham, None, x0, n, dt, t1, seed)
    grid = Grid((float(num.get("grid_lo", -4.0)),),
                (float(num.get("grid_hi", 4.0)),),
                (int(num.get("grid_cells", 48)),))
    pool = list(range(max(1, k - 80), min(n_times - 1, k + 80)))
    beta = estimate_forward_drift(ens, pool, grid)
    gamma = estimate_backward_drift(ens, pool, grid)
    v = current_drift(beta, gamma)
    drift_fields_to_csv(beta, gamma, v, w.path("fields.csv"))
    p_hat = estimate_density(ens, k, grid)
    resid = osmotic_residual(beta, gamma, p_hat, ham.sigma2)
    fe = finite_energy_estimate(ens, lambda x: ham.drift(x))
    w.write_csv("summary.csv",
                ["osmotic_residual", "finite_energy", "finite_energy_se"],
                [(resid, fe.value, fe.stderr)])


RUNNERS = {
    "fp-run": run_grid_flow,
    "control-run": run_grid_flow,
    "decompose": run_grid_flow,
    "sde-run": run_sde,
    "quantum-run": run_quantum,
    "paths-run": run_paths,
}


def run_scenario(cfg: ScenarioConfig, out_dir=None, seed=None) -> dict:
    """Execute a scenario; returns the parsed manifest.

    Partial outputs are removed if the run fails.
    """
    if seed is not None:
        cfg.numerics["seed"] = int(seed)
    out = out_dir or cfg.outputs.get("dir") or cfg.name
    w = ArtifactWriter(out)
    try:
        RUNNERS[cfg.kind](cfg, w)
    except Exception:
        w.cleanup()
        raise
    manifest_path = w.manifest(cfg, _seed(cfg))
    with open(manifest_path) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_common(p):
    p.add_argument("--scenario", help="builtin scenario name")
    p.add_argument("--config", help="INI scenario file")
    p.add_argument("--out", help="output directory")
    p.add_argument("--seed", type=int, help="seed override")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="entroflow",
                                description="entropy production laboratory")
    sub = p.add_subparsers(dest="command", required=True)

    listp = sub.add_parser("list", help="list builtin scenarios")
    listp.add_argument("--json", action="store_true")

    for kind in KINDS:
        sp = sub.add_parser(kind, help=f"run a {kind} scenario")
        _add_common(sp)
        if kind == "control-run":
            sp.add_argument("--alpha", type=float)
            sp.add_argument("--alpha-table", help="CSV t,alpha gain schedule")
            sp.add_argument("--t1", type=float)
            sp.add_argument("--dt", type=float)
        if kind == "sde-run":
            sp.add_argument("--model", choices=["overdamped", "polymer"])
            sp.add_argument("--n", type=int)
            sp.add_argument("--dt", type=float)
            sp.add_argument("--t1", type=float)
            sp.add_argument("--alpha-c", type=float)
            sp.add_argument("--gamma", type=float)
        if kind == "quantum-run":
            sp.add_argument("--hamiltonian")
            sp.add_argument("--delta-h")
            sp.add_argument("--lindblad", nargs="*", default=[])
            sp.add_argument("--rho0")
            sp.add_argument("--t1", type=float)
            sp.add_argument("--dt", type=float)
    return p


def _config_from_args(args) -> ScenarioConfig:
    if args.config:
        cfg = ScenarioConfig.from_ini(args.config)
        if cfg.kind != args.command:
            raise ConfigError(
                f"config kind {cfg.kind!r} does not match subcommand {args.command!r}")
        return cfg
    if args.scenario:
        if args.scenario not in BUILTIN_FACTORIES:
            raise ConfigError(f"unknown scenario {args.scenario!r}; see `entroflow list`")
        cfg = BUILTIN_FACTORIES[args.scenario]()
        if cfg.kind != args.command:
            raise ConfigError(
                f"builtin {args.scenario!r} is a {cfg.kind} scenario")
        return cfg
    # assemble from direct flags
    model: dict = {}
    control: dict = {}
    numerics: dict = {}
    if args.command == "control-run":
        if getattr(args, "alpha", None) is not None:
            control["alpha"] = args.alpha
        if getattr(args, "alpha_table", None):
            control["alpha_table"] = args.alpha_table
    if args.command == "sde-run":
        model["model"] = args.model or "overdamped"
        if args.gamma is not None:
            model["gamma"] = args.gamma
        if args.alpha_c is not None:
            model["alpha_c"] = args.alpha_c
        if args.n is not None:
            numerics["n_traj"] = args.n
    if args.command == "quantum-run":
        if not args.hamiltonian or not args.rho0:
            raise ConfigError("quantum-run needs --hamiltonian and --rho0 "
                              "(or --scenario/--config)")
        model["files"] = {"hamiltonian": args.hamiltonian,
                          "delta_h": args.delta_h,
                          "lindblad": list(args.lindblad),
                          "rho0": args.rho0}
    for key in ("dt", "t1"):
        if getattr(args, key, None) is not None:
            numerics[key] = getattr(args, key)
    return ScenarioConfig(name=args.command, kind=args.command, model=model,
                          control=control, numerics=numerics)


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 2

    if args.command == "list":
        if args.json:
            print(json.dumps(BUILTIN_DESCRIPTIONS, indent=2, sort_keys=True))
        else:
            for name in BUILTIN_FACTORIES:
                print(f"{name:18s} {BUILTIN_DESCRIPTIONS[name]}")
        return 0

    try:
        cfg = _config_from_args(args)
        manifest = run_scenario(cfg, out_dir=args.out, seed=args.seed)
    except NUMERICAL_ERRORS as e:  # before ValueError: LinAlgError subclasses it
        print(f"numerical failure: {e}", file=sys.stderr)
        return 3
    except (ConfigError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    for name in sorted(manifest["files"]):
        print(f"{name}  sha256={manifest['files'][name][:16]}...")
    return 0


if __name__ == "__main__":
    sys.exit(main())
