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

A scenario sets keys in its [model], [control] and [numerics] sections.
``KIND_KEYS`` lists the keys each kind reads with their defaults;
``ScenarioConfig.values`` casts and checks each key once and rejects a key
the kind does not read.  A builtin (``BUILTINS``) is a kind, a description
and only the keys it sets over those defaults.  A command runs the scenario
of --config or of --scenario, or else its kind's defaults; each key the kind
reads is a flag, never abbreviated (--n for n_traj; quantum-run's [files]
keys too), that sets the key over it as the string an INI file gives.  A
runner, ``RUNNERS[kind](kind, values, writer)``, writes the CSVs and returns
its run record or None; a manifest.json maps each CSV to its sha256, and
identical config and seed give byte-identical artifacts (floats are printed
with 17 significant digits, nothing timestamps the outputs).  A run that
succeeds writes run.json, in no manifest: the values it ran and the runner's
record (a grid run's boundary certificates (`grids.boundary_certificate`),
stepper health and largest interior FD residual, a paths run's binning health
(`paths.IncrementBins.health`) and drift z-scores, an ensemble run's escape
margin).  A cut box still exits 0.  Exit codes: 0 ok, 2 usage/validation (an
unknown flag is its subcommand's error, printed with that subcommand's usage),
an unreadable input file or a size too large to allocate, 3 numerical failure:
any ``grids.NumericalFailure`` or numpy ``LinAlgError`` (a failed run's CSVs
and any run.json are removed).
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import os
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from .control import GainSchedule, decomposition_curve
from .fokker_planck import admissible_gain, evolve
from .grids import (Grid, NumericalFailure, boundary_certificate, density_covariance,
                    density_mean, time_steps)
from .paths import EnergySum, IncrementBins, current_drift, drift_field_rows, osmotic_residual
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
    PathRecord,
    TimeMoments,
    WindowTemperatures,
    ensemble_rows,
    harmonic_cantilever,
    stream_overdamped,
    stream_polymer,
)
from .thermo import GaussianDensity, gibbs_density, quadratic_hamiltonian
from .tolerances import QREC_FD_STEP


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


def _n_times(c) -> int:
    return time_steps(0.0, c["t1"], c["dt"]) + 1


def _n_times_pooled(c) -> int:
    if (n := _n_times(c)) < 3:  # paths-run's drifts pool the interior times: one step has none
        raise ValueError(f"paths-run needs an interior time: t1 = {c['t1']!r} is one "
                         f"step of dt = {c['dt']!r}")
    return n


@dataclass(frozen=True)
class _Only:
    """A key read only while the key ``dep``, resolved before it, is one of
    ``values``; ``default`` as in ``KIND_KEYS``."""

    dep: str
    values: tuple
    default: object


def _only(dep, values, **keys):
    return {key: _Only(dep, values, default) for key, default in keys.items()}


# The keys each kind reads, in the order they are resolved, with their
# defaults: a tuple lists the admissible values (the first is the default),
# None leaves the key unset, a callable derives it from the keys before it,
# and an ``_Only`` is a key the run reads under some settings only.
_OU = dict(hamiltonian=("quadratic",), q=1.0, kT=1.0, sigma2=2.0)
_CLOCK = dict(seed=0, dt=1e-3)
_GRID = dict(_OU, grid_lo=-8.0, grid_hi=8.0, grid_cells=1024, mean0=1.0, var0=2.0,
             **_CLOCK, t1=0.2, store_every=10)
_GAIN = dict(_GRID, alpha_table=None, **_only("alpha_table", (None,), alpha=0.0))
KIND_KEYS = {
    "fp-run": _GRID,
    "control-run": _GAIN,
    "decompose": _GAIN,
    "sde-run": dict(model=("overdamped", "polymer"), n_traj=1000, **_CLOCK, t1=1.0,
                    **_only("model", ("overdamped",), **_OU, mean0=0.0, var0=1.0),
                    **_only("model", ("polymer",), spring_k=1.0, mass=1.0, gamma=1.0,
                            temperature=1.0, alpha_c=None,
                            window_lo=lambda c: c["t1"] / 3.0)),
    "quantum-run": dict(model=(None, "qubit-qrec", "qubit-lindblad"), **_CLOCK, t1=1.0,
                        **_only("model", (None,), files=None),
                        **_only("model", ("qubit-lindblad",), gamma=1.0),
                        **_only("model", (None, "qubit-lindblad"), store_every=1)),
    "paths-run": dict(_OU, n_traj=30_000, seed=42, dt=5e-3, t1=0.6,
                      t_index=lambda c: _n_times(c) // 2,
                      grid_lo=-4.0, grid_hi=4.0, grid_cells=48),
}

_INTS = {"grid_cells", "n_traj", "seed", "store_every", "t_index"}
_STRS = {"hamiltonian", "model", "alpha_table"}

# key -> (test of the value a run uses, given the keys resolved before it;
# what the value must do).  A test that raises ValueError gives its own reason,
# after "key = value", or after the key if what is None (the reason names the value).
_CHECKS = {
    "q": (lambda v, c: v > 0.0, "be positive"),
    "kT": (lambda v, c: v > 0.0, "be positive"),
    "sigma2": (lambda v, c: v >= 0.0, "be nonnegative"),
    "alpha": (lambda v, c: admissible_gain(v, c["sigma2"]) == v, None),
    "var0": (lambda v, c: v > 0.0 if "grid_cells" in c else v >= 0.0,  # a grid needs a spread
             lambda c: "be positive" if "grid_cells" in c else "be nonnegative"),
    "grid_cells": (lambda v, c: v >= 2, "be >= 2"),
    "grid_hi": (lambda v, c: v > c["grid_lo"], "exceed grid_lo"),
    "dt": (lambda v, c: v > 0.0, "be positive"),
    "t1": (lambda v, c: _n_times(c) > 1, ""),
    "store_every": (lambda v, c: v >= 1, "be >= 1"),
    "n_traj": (lambda v, c: v >= 2, "be >= 2"),  # every ensemble writes sample covariances
    "seed": (lambda v, c: 0 <= v < 2**64, "lie in [0, 2**64)"),
    "mass": (lambda v, c: v > 0.0, "be positive"),
    "gamma": (lambda v, c: v >= 0.0, "be nonnegative"),
    "alpha_c": (lambda v, c: v is None or v >= 0.0, "be nonnegative"),
    "files": (lambda v, c: bool(v and v.get("hamiltonian") and v.get("rho0")),
              "name the hamiltonian and rho0 operator files when no model is set"),
    "t_index": (lambda v, c: 0 <= v < _n_times_pooled(c), lambda c: f"lie in [0, {_n_times(c)})"),
}


def _cast(key, raw):
    """``raw`` as the type of ``key``.  A float must be finite, except the
    gain, whose own check calls a NaN or infinite gain ill-posed."""
    if raw is None or key == "files":  # unset, or the operator file paths
        return raw
    if key in _STRS:
        return str(raw)
    try:
        v = int(raw) if key in _INTS else float(raw)
        if key in _INTS and not isinstance(raw, str) and v != raw:
            raise ValueError  # 2.5 is no integer
    except (TypeError, ValueError, OverflowError):
        what = "an integer" if key in _INTS else "a number"
        raise ConfigError(f"{key} must be {what}, got {raw!r}") from None
    if key not in _INTS and key != "alpha" and not np.isfinite(v):
        raise ConfigError(f"{key} must be finite, got {raw!r}")
    return v


@dataclass
class ScenarioConfig:
    """A scenario: its kind and the keys it sets, checked by :meth:`values`."""

    name: str
    kind: str
    model: dict = field(default_factory=dict)
    control: dict = field(default_factory=dict)
    numerics: dict = field(default_factory=dict)
    outputs: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in KIND_KEYS:
            raise ConfigError(f"unknown scenario kind {self.kind!r}")
        self.values()

    def values(self) -> dict:
        """Every key of ``KIND_KEYS[kind]``: set or defaulted, cast and checked.

        Raises ConfigError naming the first key whose value a run cannot use,
        then any key set that this kind, with these settings, does not read.
        """
        given = {**self.model, **self.control, **self.numerics}
        vals, skipped = {}, {}
        for key, default in KIND_KEYS[self.kind].items():
            if isinstance(default, _Only):
                if vals[default.dep] not in default.values:
                    skipped[key] = f" with {default.dep} = {vals[default.dep]}"
                    continue
                default = default.default
            choices = default if isinstance(default, tuple) else None
            raw = given.get(key, choices[0] if choices else default)
            v = vals[key] = _cast(key, raw(vals) if callable(raw) else raw)
            if choices and v not in choices:
                raise ConfigError(f"{key} must be one of {[c for c in choices if c]}, got {v!r}")
            ok, what = _CHECKS.get(key, (lambda v, c: True, ""))
            try:
                good = ok(v, vals)
            except ValueError as e:
                named = key if what is None else f"{key} = {v!r}"
                raise ConfigError(f"{named}: {e}") from None
            if not good:
                what = what(vals) if callable(what) else what
                raise ConfigError(f"{key} must {what}, got {v!r}")
        unread = sorted(set(given) - set(vals))
        if unread:
            raise ConfigError(f"{self.kind} does not read "
                              + ", ".join(k + skipped.get(k, "") for k in unread))
        return vals

    @classmethod
    def from_ini(cls, path) -> "ScenarioConfig":
        return cls(**cls.ini_fields(path))

    @staticmethod
    def ini_fields(path) -> dict:
        """The fields of the scenario the INI file ``path`` names, unchecked."""
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
            files = sections["files"]
            model["files"] = dict(files, lindblad=files.get("lindblad", "").split())
        return dict(name=scen.get("name", "custom"), kind=scen["kind"], model=model,
                    **{s: sections.get(s, {}) for s in ("control", "numerics", "outputs")})


def _sections(keys: dict) -> dict:
    """``keys`` filed under the [model], [control] and [numerics] sections."""
    return {sec: {k: v for k, v in keys.items() if k in _SECTION_KEYS[sec]}
            for sec in ("model", "control", "numerics")}


# name -> (kind, description, the keys that make the experiment; every other
# key keeps its KIND_KEYS default)
BUILTINS = {
    "ou-relax": ("control-run",
                 "uncontrolled OU relaxation: divergence decay and rate decomposition",
                 dict(seed=42)),
    "ou-modulated": ("control-run", "gain-1 feedback OU run: doubled decay rate",
                     dict(alpha=1.0, seed=42)),
    "polymer-cooling": ("sde-run", "velocity-feedback cantilever: kinetic temperature vs gain",
                        dict(model="polymer", n_traj=1500, dt=5e-3, t1=12.0, seed=7)),
    "qubit-qrec": ("quantum-run",
                   "closed 2-level system: perturbed-Hamiltonian divergence rate vs FD",
                   dict(model="qubit-qrec", t1=0.5)),
    "qubit-lindblad": ("quantum-run",
                       "depolarizing qubit: monotone divergence and dissipative rate",
                       dict(model="qubit-lindblad", store_every=10)),
    "paths-osmotic": ("paths-run",
                      "stationary OU ensemble: drift fields, osmotic relation, energy",
                      dict(n_traj=100_000, t1=1.0, grid_cells=64)),
}

BUILTIN_FACTORIES = {
    name: (lambda name=name, kind=kind, keys=keys:
           ScenarioConfig(name, kind, **_sections(keys)))
    for name, (kind, _, keys) in BUILTINS.items()}


# ---------------------------------------------------------------------------
# CSV / manifest plumbing
# ---------------------------------------------------------------------------

def _fmt(v) -> str:
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return f"{float(v):.17g}"


def _write_json(path: str, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


class ArtifactWriter:
    def __init__(self, out_dir):
        self.out_dir = out_dir
        self.created = not os.path.isdir(out_dir)
        os.makedirs(out_dir, exist_ok=True)
        self.files: list[str] = []

    def write_csv(self, name: str, header, rows) -> str:
        """Write ``header`` and ``rows`` as ``name``; the one place artifacts are
        formatted (ints as ints, floats with 17 significant digits)."""
        p = os.path.join(self.out_dir, name)
        self.files.append(p)
        with open(p, "w") as fh:
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(_fmt(v) for v in row) + "\n")
        return p

    def manifest(self, config: ScenarioConfig, seed) -> dict:
        """Write manifest.json, the sha256 of each CSV written, and return it."""
        entries = {}
        for p in self.files:
            with open(p, "rb") as fh:
                entries[os.path.basename(p)] = hashlib.sha256(fh.read()).hexdigest()
        manifest = {"scenario": config.name, "kind": config.kind, "seed": seed,
                    "files": entries}
        _write_json(os.path.join(self.out_dir, "manifest.json"), manifest)
        return manifest

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

def _ou_hamiltonian(c: dict):
    return quadratic_hamiltonian(c["q"], kT=c["kT"], sigma2=c["sigma2"])


def _boundary_record(traj, equilibrium) -> dict:
    """The boundary certificate of the initial density, the equilibrium and
    the stored density with the largest ratio (at time ``t``)."""
    ratios, suspect = boundary_certificate(traj.grid, traj.values)
    eq_ratio, eq_suspect = boundary_certificate(traj.grid, equilibrium.values)
    k = int(np.argmax(ratios))
    entry = lambda ratio, flag: {"ratio": float(ratio), "suspect": bool(flag)}
    return {"initial": entry(ratios[0], suspect[0]),
            "equilibrium": entry(eq_ratio, eq_suspect),
            "worst_stored": {**entry(ratios[k], suspect[k]), "t": float(traj.times[k])}}


def run_grid_flow(kind: str, c: dict, w: ArtifactWriter) -> dict:
    """fp-run / control-run / decompose: one trajectory plus its CSVs; returns
    the run record of its boundary certificates, its stepper's health and,
    with a rate split, its largest interior ``fd_check_residual``."""
    ham = _ou_hamiltonian(c)
    grid = Grid((c["grid_lo"],), (c["grid_hi"],), (c["grid_cells"],))
    rho0 = GaussianDensity([c["mean0"]], [[c["var0"]]]).sample_on(grid)
    if kind == "fp-run":
        alpha = 0.0
    elif c["alpha_table"] is not None:
        alpha = GainSchedule.from_csv(c["alpha_table"])
    else:
        alpha = c["alpha"]
    traj = evolve(ham, alpha, rho0, 0.0, c["t1"], c["dt"], store_every=c["store_every"])
    equilibrium = gibbs_density(ham, grid)

    if kind == "fp-run":
        rows = ((t, i, v) for t, row in zip(traj.times, traj.values)
                for i, v in enumerate(row))
        w.write_csv("trajectory.csv", ["t", "cell_index", "density"], rows)
        divergence = traj.divergence_curve(equilibrium)
    else:
        curve = decomposition_curve(traj, ham, alpha)
        divergence = curve["D"]

    if kind in ("fp-run", "control-run"):
        means = (density_mean(grid, v) for v in traj.values)
        rows = ((t, mass, m[0], density_covariance(grid, v, m)[0, 0], D)
                for t, v, m, mass, D in zip(traj.times, traj.values, means,
                                            traj.mass_curve(), divergence))
        w.write_csv("moments.csv", ["t", "mass", "mean", "cov", "D_to_equilibrium"],
                    rows)

    if kind != "fp-run":
        cols = ["t", "D", "total_rate", "pepr", "epur", "fd_check_residual"]
        rows = zip(*(curve[c] for c in cols))
        w.write_csv("divergence.csv", cols, rows)
    record = {"boundary": _boundary_record(traj, equilibrium), "stepper": traj.health}
    if kind != "fp-run":  # the end rows are one-sided differences
        resid, times = curve["fd_check_residual"][1:-1], curve["t"][1:-1]
        k = int(np.argmax(resid)) if resid.size else None
        record["fd_check_residual"] = None if k is None else {
            "max": float(resid[k]), "t": float(times[k])}
    return record


def run_sde(kind: str, c: dict, w: ArtifactWriter) -> dict:
    """An overdamped ensemble, stored as it streams, or the polymer's gains,
    streamed; returns the run record of its escape margin."""
    n, dt, t1, seed = c["n_traj"], c["dt"], c["t1"], c["seed"]
    n_times = _n_times(c)
    times = dt * np.arange(n_times)
    if c["model"] == "overdamped":
        mean0, sd0 = c["mean0"], np.sqrt(c["var0"])
        x0 = lambda rng, size: mean0 + sd0 * rng.standard_normal((size, 1))
        record, moments = PathRecord(n, n_times, 1), TimeMoments(n_times, 1)
        escape = stream_overdamped(_ou_hamiltonian(c), None, x0, n, dt, t1, seed,
                                   (record.add, moments.add))
        w.write_csv("paths.csv", *ensemble_rows(record.ensemble(times, dt)))
        w.write_csv("summary.csv", *moments.summary(times))
        return {"escape": escape}
    gamma = c["gamma"]
    gains = [0.0, 0.5 * gamma, gamma, 2.0 * gamma] if c["alpha_c"] is None else [c["alpha_c"]]
    spec = harmonic_cantilever(spring_k=c["spring_k"], mass=c["mass"], gamma=gamma,
                               temperature=c["temperature"])
    width = 2 * spec.n_coords
    temps = WindowTemperatures(spec, len(gains), n, times, (c["window_lo"], t1))
    # the gains step as one gain-major state; summary.csv reads the last gain's moments
    last = TimeMoments(n_times, width, column=width * (len(gains) - 1))
    escape = stream_polymer(spec, gains, n, dt, t1, seed, (temps.add, last.add))
    rows = [(ac, kt.values[0], kt.stderr[0]) for ac, kt in zip(gains, temps.estimates())]
    w.write_csv("temperature.csv", ["alpha_c", "T_kin", "stderr"], rows)
    w.write_csv("summary.csv", *last.summary(times, spec))
    return {"escape": escape}


def _qubit_qrec_rows(times):
    H = HamiltonianOperator(np.diag([1.0, -1.0]).astype(complex))
    dH = HamiltonianOperator(sigma_x)
    Ht = HamiltonianOperator(H.matrix + dH.matrix)
    rho0 = DensityOperator(0.5 * (np.eye(2) + 0.5 * sigma_y))
    rho_tilde0 = gibbs_state(H, 1.0)

    def states(t):
        return evolve_closed(H, rho0, t), evolve_closed(Ht, rho_tilde0, t)

    for t in times:
        rho_t, rho_tilde_t = states(t)
        rate = q_relative_entropy_rate(rho_t, dH, rho_tilde_t)
        fd = (q_relative_entropy(*states(t + QREC_FD_STEP))
              - q_relative_entropy(*states(t - QREC_FD_STEP))) / (2.0 * QREC_FD_STEP)
        yield t, q_relative_entropy(rho_t, rho_tilde_t), rate, abs(rate - fd)


def run_quantum(kind: str, c: dict, w: ArtifactWriter) -> None:
    dt, t1 = c["dt"], c["t1"]
    if c["model"] == "qubit-qrec":
        w.write_csv("rates.csv", ["t", "D", "rate", "fd_residual"],
                    _qubit_qrec_rows(dt * np.arange(_n_times(c))))
        return
    if c["model"] == "qubit-lindblad":
        spec = LindbladSpec(HamiltonianOperator(np.zeros((2, 2))),
                            depolarizing_jump_operators(c["gamma"]))
        rho0 = DensityOperator(np.diag([0.9, 0.1]))
        traj = lindblad_evolve(spec, rho0, t1, dt, store_every=c["store_every"])
        mixed = DensityOperator.maximally_mixed(2)
        rows = ((t, np.trace(s.matrix).real, D, dissipative_production_rate(s, spec, mixed))
                for t, s, D in zip(traj.times, traj.states, traj.divergence_curve(mixed)))
        w.write_csv("lindblad.csv", ["t", "trace", "D", "dissipative_rate"], rows)
        return
    files = c["files"]
    H = HamiltonianOperator(load_operator(files["hamiltonian"]))
    if files.get("delta_h"):
        dH = load_operator(files["delta_h"])
        if dH.shape != H.matrix.shape:  # no broadcasting a 1x1 operator
            raise ValueError(f"{files['delta_h']}: delta_h and hamiltonian differ in size")
        with np.errstate(over="ignore"):  # an overflowed sum is not finite: rejected
            H = HamiltonianOperator(H.matrix + dH)
    jumps = tuple(load_operator(p) for p in files.get("lindblad", []))
    rho0 = DensityOperator(load_operator(files["rho0"]))
    spec = LindbladSpec(H, jumps)
    traj = lindblad_evolve(spec, rho0, t1, dt, store_every=c["store_every"])
    traces = np.trace(traj.matrices, axis1=1, axis2=2).real
    rows = zip(traj.times, traces, spectral_purity(traj.spectra),
               spectral_entropy(traj.spectra))
    w.write_csv("evolution.csv", ["t", "trace", "purity", "entropy"], rows)


def _drift_z(est, model: np.ndarray) -> dict | None:
    """The largest |z| = |estimate - model| / stderr over the occupied cells
    of the 1-D drift estimate ``est``, with the centre ``x`` of its cell."""
    z = np.abs(est.vectors - model)
    with np.errstate(divide="ignore"):  # no stderr: an empty cell, or a noiseless run
        np.divide(z, est.stderr, out=z, where=z > 0.0)  # whose exact estimate has z 0
    z, x = z[est.mask].reshape(-1), est.grid.centers()[est.mask].reshape(-1)
    k = int(np.argmax(z)) if z.size else None
    return None if k is None else {"max": float(z[k]), "x": float(x[k])}


def run_paths(kind: str, c: dict, w: ArtifactWriter) -> dict:
    """From the Gibbs density N(0, kT / q), bins the drifts around ``t_index``,
    whose counts are the osmotic density, and sums the energy as the ensemble
    steps, storing no state array; returns the run record of the binning
    health and drift z-scores per lag and the escape margin."""
    ham = _ou_hamiltonian(c)
    k, n_times, n, dt = c["t_index"], _n_times(c), c["n_traj"], c["dt"]
    # drawn under the march's error state, which rejects a spread that overflows
    x0 = lambda rng, size: np.sqrt(c["kT"]) / np.sqrt(c["q"]) * rng.standard_normal((size, 1))
    grid = Grid((c["grid_lo"],), (c["grid_hi"],), (c["grid_cells"],))
    bins = IncrementBins(grid, range(max(1, k - 80), min(n_times - 1, k + 80)), dt)
    energy = EnergySum(n, dt, ham.drift)
    escape = stream_overdamped(ham, None, x0, n, dt, c["t1"], c["seed"], (bins.add, energy.add))
    beta, gamma = bins.estimate(+1), bins.estimate(-1)
    v = current_drift(beta, gamma)
    w.write_csv("fields.csv", *drift_field_rows(beta, gamma, v))
    resid = osmotic_residual(beta, gamma, bins.density(), ham.sigma2)
    fe = energy.estimate()
    w.write_csv("summary.csv",
                ["osmotic_residual", "finite_energy", "finite_energy_se"],
                [(resid, fe.value, fe.stderr)])
    # stationary and reversible, so the forward drift is the model's, the backward its negative
    drift = ham.drift(grid.centers().reshape(-1, 1))
    return {"drift_bins": {name: {**bins.health(lag), "drift_z": _drift_z(est, lag * drift)}
                           for name, lag, est in (("forward", +1, beta),
                                                  ("backward", -1, gamma))},
            "escape": escape}


RUNNERS = {
    "fp-run": run_grid_flow,
    "control-run": run_grid_flow,
    "decompose": run_grid_flow,
    "sde-run": run_sde,
    "quantum-run": run_quantum,
    "paths-run": run_paths,
}


def run_scenario(cfg: ScenarioConfig, out_dir=None, seed=None) -> dict:
    """Execute a scenario, checked once, and return its manifest.  The values
    it ran and the record the runner returns, if any, are written as run.json
    once it succeeds; a failed run removes its CSVs and any run.json."""
    if seed is not None:  # the caller's config keeps its own seed
        cfg = replace(cfg, numerics={**cfg.numerics, "seed": seed})
    c = cfg.values()
    w = ArtifactWriter(out_dir or cfg.outputs.get("dir") or cfg.name)
    record = os.path.join(w.out_dir, "run.json")  # in no manifest
    try:
        _write_json(record, {"values": c, **(RUNNERS[cfg.kind](cfg.kind, c, w) or {})})
    except Exception:
        if os.path.exists(record):  # one cut short, or an earlier run's
            os.remove(record)
        w.cleanup()
        raise
    return w.manifest(cfg, c["seed"])


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

class _CommandParser(argparse.ArgumentParser):
    """A subcommand's parser, which rejects an argument it does not know
    itself, with its own usage and flags; argparse would hand it back to the
    top-level parser, whose usage names only the subcommands."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extra = super().parse_known_args(args, namespace)
        if extra:
            self.error(f"unrecognized arguments: {' '.join(extra)}")
        return namespace, extra


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="entroflow",
                                description="entropy production laboratory")
    sub = p.add_subparsers(dest="command", required=True, parser_class=_CommandParser)

    listp = sub.add_parser("list", help="list builtin scenarios")
    listp.add_argument("--json", action="store_true")

    for kind, keys in KIND_KEYS.items():
        # every key the kind reads is a flag, spelled exactly: no abbreviations
        sp = sub.add_parser(kind, help=f"run a {kind} scenario", allow_abbrev=False)
        source = sp.add_mutually_exclusive_group()
        source.add_argument("--scenario", help="builtin scenario name")
        source.add_argument("--config", help="INI scenario file")
        sp.add_argument("--out", help="output directory")
        for key in [k for k in keys if k != "files"]:
            sp.add_argument("--n" if key == "n_traj" else "--" + key.replace("_", "-"),
                            dest=key, help=f"sets {key}")
        for key in sorted(_SECTION_KEYS["files"]) if "files" in keys else ():
            sp.add_argument("--" + key.replace("_", "-"), dest=key, help=f"sets files {key}",
                            nargs="*" if key == "lindblad" else None)
    return p


def _config_from_args(args) -> ScenarioConfig:
    """The scenario of --config or --scenario, else the kind's defaults, with
    the key of each flag given set over it as the string an INI file gives."""
    base = {"name": args.command, "kind": args.command}
    if args.config:
        base = ScenarioConfig.ini_fields(args.config)  # checked once the flags are set
    elif args.scenario:
        if args.scenario not in BUILTIN_FACTORIES:
            raise ConfigError(f"unknown scenario {args.scenario!r}; see `entroflow list`")
        base = vars(BUILTIN_FACTORIES[args.scenario]())
    if base["kind"] != args.command:
        raise ConfigError(f"{args.config or args.scenario!r} is a {base['kind']} scenario, "
                          f"not {args.command}")
    read = KIND_KEYS[args.command]
    given = lambda keys: {k: v for k in keys if (v := getattr(args, k, None)) is not None}
    over = _sections(given(read))  # files has no flag of its own
    files = given(_SECTION_KEYS["files"]) if "files" in read else {}
    if files:
        over["model"]["files"] = {**base.get("model", {}).get("files", {}), **files}
    return ScenarioConfig(**{**base, **{s: {**base.get(s, {}), **keys}
                                        for s, keys in over.items()}})


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 2

    if args.command == "list":
        if args.json:
            print(json.dumps({name: text for name, (_, text, _) in BUILTINS.items()},
                             indent=2, sort_keys=True))
        else:
            for name, (_, text, _) in BUILTINS.items():
                print(f"{name:18s} {text}")
        return 0

    try:
        cfg = _config_from_args(args)
        manifest = run_scenario(cfg, out_dir=args.out)
    except (NumericalFailure, np.linalg.LinAlgError) as e:  # LinAlgError is a ValueError
        print(f"numerical failure: {e}", file=sys.stderr)
        return 3
    except (ValueError, OSError, MemoryError) as e:  # ConfigError is a ValueError
        print(f"error: {str(e) or 'out of memory'}", file=sys.stderr)
        return 2
    for name in sorted(manifest["files"]):
        print(f"{name}  sha256={manifest['files'][name][:16]}...")
    return 0


if __name__ == "__main__":
    sys.exit(main())
