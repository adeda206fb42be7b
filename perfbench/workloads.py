"""The benchmark's four workloads: seeded inputs, one pass, correctness gates.

Each workload builds its inputs from the seed in ``__init__`` (this is the
set-up the ``setup_s`` metric times) and then runs closed-loop passes.  A
pass is a fixed list of operations; an operation fails when a call raises or
when one of its gates misses.  The gates use the tolerances of
``tests/test_acceptance.py`` and are computed here, independently of the
package: masses, divergences and Gibbs densities from plain numpy, CSV
artifacts re-read from disk, sha256 digests recomputed from the written
bytes, and exact open-system states from the matrix exponential of the
Lindblad superoperator.
"""

from __future__ import annotations

import hashlib
import json
import os
from contextlib import contextmanager

import numpy as np
import scipy.linalg

from entroflow import cli, control, grids, thermo


class GateMiss(Exception):
    """A correctness gate was missed."""


def gate(ok, what):
    if not ok:
        raise GateMiss(what)


class Pass:
    """Outcome of one pass: operations attempted and failed, artifact digests."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.attempted = 0
        self.failures = []
        self.digests = {}
        self.bytes_written = 0

    @contextmanager
    def op(self, name):
        self.attempted += 1
        try:
            if self.tracer is None:
                yield
            else:
                with self.tracer.span(f"bench.op.{name}"):
                    yield
        except Exception as exc:  # a failed operation is counted, not fatal
            self.failures.append(f"{name}: {type(exc).__name__}: {exc}")

    def digest(self, key, data):
        self.digests[key] = hashlib.sha256(data).hexdigest()

    def artifacts(self, op, out_dir, manifest, expected):
        """Check a run_scenario manifest against the bytes on disk."""
        gate(set(manifest["files"]) == set(expected),
             f"{op}: manifest lists {sorted(manifest['files'])}")
        with open(os.path.join(out_dir, "manifest.json"), "rb") as fh:
            raw = fh.read()
        gate(json.loads(raw) == manifest, f"{op}: returned manifest != manifest.json")
        self.bytes_written += len(raw)
        for name, sha in manifest["files"].items():
            with open(os.path.join(out_dir, name), "rb") as fh:
                data = fh.read()
            self.bytes_written += len(data)
            self.digest(f"{op}/{name}", data)
            gate(self.digests[f"{op}/{name}"] == sha, f"{op}: sha256 mismatch for {name}")


def read_csv(path):
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _rng(seed, stream):
    return np.random.default_rng([seed, stream])


class Workload:
    name = ""
    # Operations whose solver steps ``fokker_planck.splu_per_step`` counts,
    # with their steps per pass, and simulate_feedback steps per pass.
    per_step_ops: dict = {}
    feedback_steps = 0

    def __init__(self, seed, workdir):
        self.workdir = workdir

    def run_pass(self, p: Pass) -> None:
        raise NotImplementedError

    def scenario(self, p, op, cfg, expected, seed=None):
        out = os.path.join(self.workdir, op)
        manifest = cli.run_scenario(cfg, out_dir=out, seed=seed)
        p.artifacts(op, out, manifest, expected)
        return out


# ---------------------------------------------------------------------------

def _oracle_kl(p, q, cell_volume):
    supp = p > 0.0
    return float(np.sum(p[supp] * np.log(p[supp] / q[supp])) * cell_volume)


class Grid2DScheduled(Workload):
    """Solver-bound: a 2-D quadratic well under a scheduled feedback gain.

    Why: the sparse LU is refactored at every scheduled step and twice per
    feedback step, so ``fokker_planck`` dominates; only a handful of
    densities are stored, so post-processing is negligible.  A solver change
    that assembles the operator once (ROADMAP item 2) must show here, and the
    constant-gain run is its "scheduled within 2x of constant" reference.
    """

    name = "grid-2d-scheduled"
    Q = np.diag([1.0, 2.0])
    CELLS = 128
    BOX = 8.0
    DT, STEPS, STORE = 2.5e-3, 40, 10
    GIBBS_STEPS = 10
    FB_DT, FB_STEPS = 1e-4, 5
    per_step_ops = {"scheduled": STEPS, "gibbs": GIBBS_STEPS}
    feedback_steps = FB_STEPS

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        rng = _rng(seed, 1)
        self.t1 = self.STEPS * self.DT
        self.ham = thermo.quadratic_hamiltonian(self.Q, kT=1.0, sigma2=2.0)
        self.grid = grids.Grid((-self.BOX, -self.BOX), (self.BOX, self.BOX),
                               (self.CELLS, self.CELLS))
        mean = np.array([1.0, -0.5]) + rng.uniform(-0.2, 0.2, 2)
        cov = np.array([[1.5, 0.3], [0.3, 0.8]]) * rng.uniform(0.9, 1.1) \
            + np.diag(rng.uniform(-0.1, 0.1, 2))
        self.rho0 = thermo.GaussianDensity(mean, cov).sample_on(self.grid)
        knots = np.linspace(0.0, self.t1, 5)
        gains = rng.uniform(0.2, 1.5, knots.size)
        table = os.path.join(workdir, "gain.csv")
        with open(table, "w") as fh:
            fh.write("t,alpha\n")
            fh.writelines(f"{t:.17g},{a:.17g}\n" for t, a in zip(knots, gains))
        self.gain = control.GainSchedule.from_csv(table)
        self.alpha_const = float(np.trapezoid(gains, knots) / self.t1)
        self.gibbs = thermo.gibbs_density(self.ham, self.grid)

        # Oracle: cell centres, volume and Gibbs density from plain numpy.
        dx = 2.0 * self.BOX / self.CELLS
        c = -self.BOX + dx * (np.arange(self.CELLS) + 0.5)
        x, y = np.meshgrid(c, c, indexing="ij")
        energy = 0.5 * (self.Q[0, 0] * x**2 + self.Q[1, 1] * y**2)
        w = np.exp(-(energy - energy.min()))
        self.cell_volume = dx * dx
        self.oracle_gibbs = w / (w.sum() * self.cell_volume)

    def _densities(self, p, op, traj, count):
        values = np.stack([d.values for d in traj.densities])
        gate(len(traj) == count, f"{op}: {len(traj)} stored densities, expected {count}")
        masses = values.sum(axis=(1, 2)) * self.cell_volume
        gate(np.max(np.abs(masses - masses[0])) <= 1e-7, f"{op}: mass drift")
        gate(values.min() >= 0.0, f"{op}: negative density")
        p.digest(f"{op}/densities", values.tobytes())
        return values

    def _divergence(self, values):
        return np.array([_oracle_kl(v, self.oracle_gibbs, self.cell_volume) for v in values])

    def run_pass(self, p):
        with p.op("scheduled"):
            traj = control.evolve_modulated(self.ham, self.gain, self.rho0, self.t1,
                                            self.DT, store_every=self.STORE)
            curve = control.decomposition_curve(traj, self.ham, self.gain)
            values = self._densities(p, "scheduled", traj, self.STEPS // self.STORE + 1)
            D = self._divergence(values)
            gate(np.all(np.diff(D) < 0.0), "scheduled: divergence not strictly decreasing")
            gate(np.allclose(curve["D"], D, rtol=1e-9, atol=0.0),
                 "scheduled: decomposition_curve D differs from the oracle")
            gate(np.all(np.abs(curve["total_rate"] - (curve["epur"] - curve["pepr"]))
                        <= 1e-12), "scheduled: -PEPR + EPuR != total rate")
            p.digest("scheduled/curve", np.stack(
                [curve[k] for k in ("t", "D", "total_rate", "pepr", "epur",
                                    "fd_check_residual")]).tobytes())

        with p.op("constant"):
            traj = control.evolve_modulated(self.ham, self.alpha_const, self.rho0,
                                            self.t1, self.DT, store_every=self.STEPS)
            values = self._densities(p, "constant", traj, 2)
            D = self._divergence(values)
            gate(D[1] < D[0], "constant: divergence did not decrease")

        with p.op("gibbs"):
            gate(not self.gibbs.boundary_suspect, "gibbs: boundary_suspect")
            gate(np.max(np.abs(self.gibbs.values - self.oracle_gibbs)) < 1e-12,
                 "gibbs: gibbs_density differs from the oracle")
            traj = control.evolve_modulated(self.ham, self.gain, self.gibbs,
                                            self.GIBBS_STEPS * self.DT, self.DT,
                                            store_every=self.GIBBS_STEPS)
            values = self._densities(p, "gibbs", traj, 2)
            gate(np.max(np.abs(values - self.oracle_gibbs)) < 1e-6,
                 "gibbs: Gibbs density not invariant")

        with p.op("feedback"):
            t1 = self.FB_STEPS * self.FB_DT
            direct = control.simulate_feedback(self.ham, 1.0, self.rho0, t1, self.FB_DT,
                                               store_every=self.FB_STEPS)
            linear = control.evolve_modulated(self.ham, 1.0, self.rho0, t1, self.FB_DT,
                                              store_every=self.FB_STEPS)
            a = self._densities(p, "feedback", direct, 2)
            b = self._densities(p, "feedback-linear", linear, 2)
            gate(np.max(np.abs(a - b)) < 1e-6, "feedback: direct vs linear solve")


class Grid1DDense(Workload):
    """Post-processing- and storage-bound: a dense 1-D control-run via the CLI.

    Why: the operator is static, so there is one banded assembly, and every
    one of the 1001 steps is stored and validated; ``decomposition_curve``,
    the moment and divergence rows and the CSV and sha256 writing cost about
    twice the solve.  Array-backed trajectories (ROADMAP item 4) must show
    here; a solver that stops refactoring (item 2) predicts no change.
    """

    name = "grid-1d-dense"
    ALPHA, SIGMA2 = 1.0, 2.0
    STEPS = 1000
    per_step_ops = {"control-run": STEPS}

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        rng = _rng(seed, 2)
        self.mean0 = float(rng.uniform(0.5, 1.5))
        self.var0 = float(rng.uniform(1.5, 2.5))
        self.cfg = cli.ScenarioConfig(
            "bench-grid-1d", "control-run",
            model=dict(hamiltonian="quadratic", q=1.0, kT=1.0, sigma2=self.SIGMA2),
            control=dict(alpha=self.ALPHA),
            numerics=dict(grid_lo=-8.0, grid_hi=8.0, grid_cells=2048, dt=1e-3,
                          t1=self.STEPS * 1e-3, seed=seed, mean0=self.mean0,
                          var0=self.var0, store_every=1))

    def run_pass(self, p):
        with p.op("control-run"):
            out = self.scenario(p, "control-run", self.cfg,
                                ("moments.csv", "divergence.csv"))
            div = read_csv(os.path.join(out, "divergence.csv"))
            moments = read_csv(os.path.join(out, "moments.csv"))
            gate(div.shape[0] == self.STEPS + 1 and moments.shape[0] == self.STEPS + 1,
                 "control-run: not every step stored")
            m, v = self.mean0, self.var0
            exact = -(0.5 * self.SIGMA2 + self.ALPHA) * (m**2 + (v - 1.0) ** 2 / v)
            gate(abs(div[0, 2] - exact) <= 0.01 * abs(exact),
                 f"control-run: rate at t=0 {div[0, 2]!r} vs closed form {exact!r}")
            gate(np.max(div[1:-1, 5]) < 1e-3, "control-run: interior fd_check_residual")
            gate(np.max(np.abs(moments[:, 1] - 1.0)) <= 1e-7, "control-run: mass drift")


class Ensembles(Workload):
    """Monte Carlo- and memory-bound: the two ensemble builtins via the CLI.

    Why: all the work is in ``sde`` stepping, ``paths`` binning (320
    ``bincount`` passes) and ``ensemble_summary_csv`` (2401 ``np.cov``
    calls), and paths-osmotic holds a 161 MB state array, so this workload
    carries the ``peak_rss_mb`` signal for streamed ensembles and gain
    batching (ROADMAP item 4).
    """

    name = "ensembles"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.polymer_seed = int(_rng(seed, 3).integers(0, 2**31))

    def run_pass(self, p):
        with p.op("polymer-cooling"):
            out = self.scenario(p, "polymer-cooling",
                                cli.BUILTIN_FACTORIES["polymer-cooling"](),
                                ("temperature.csv", "summary.csv"), self.polymer_seed)
            data = read_csv(os.path.join(out, "temperature.csv"))
            gains, temps, errs = data[:, 0], data[:, 1], data[:, 2]
            gate(list(gains) == [0.0, 0.5, 1.0, 2.0], "polymer-cooling: gains")
            gate(temps[2] < 1.0 - 3.0 * errs[2], "polymer-cooling: no cooling at alpha=gamma")
            gate(np.all(np.diff(temps) < 0.0), "polymer-cooling: not monotone in the gain")
            gate(temps[0] - temps[-1] > 3.0 * (errs[0] + errs[-1]),
                 "polymer-cooling: cooling within noise")

        # paths-osmotic keeps its builtin seed: its acceptance gates are
        # certified at that seed only.  At other seeds the osmotic residual
        # sits at the estimator's noise floor (0.09-0.14 on seeds 40-51, 5 of
        # 12 above the 0.1 gate), so a seeded run would fail at random.
        with p.op("paths-osmotic"):
            out = self.scenario(p, "paths-osmotic", cli.BUILTIN_FACTORIES["paths-osmotic"](),
                                ("fields.csv", "summary.csv"))
            resid, energy, se = read_csv(os.path.join(out, "summary.csv"))[0]
            gate(resid < 0.1, f"paths-osmotic: osmotic residual {resid!r}")
            gate(np.isfinite(energy) and abs(energy - 1.0) < 3.0 * se,
                 f"paths-osmotic: finite energy {energy!r} +- {se!r}")


def _write_operator(path, M):
    with open(path, "w") as fh:
        fh.write(f"{M.shape[0]}\n")
        fh.writelines(f"{v.real:.17g}{v.imag:+.17g}i\n" for v in M.reshape(-1))


def _liouvillian(H, jumps):
    """Row-major superoperator: vec(A X B) = (A kron B^T) vec(X)."""
    n = H.shape[0]
    eye = np.eye(n)
    L = -1j * (np.kron(H, eye) - np.kron(eye, H.T))
    for J in jumps:
        JdJ = J.conj().T @ J
        L += np.kron(J, J.conj()) - 0.5 * np.kron(JdJ, eye) - 0.5 * np.kron(eye, JdJ.T)
    return L


def _purity_entropy(rho):
    lam = np.linalg.eigvalsh(rho)
    lam = lam[lam > 1e-12]
    return float(np.real(np.trace(rho @ rho))), float(-np.sum(lam * np.log(lam)))


class QuantumNLevel(Workload):
    """Quantum-bound: the qubit builtins plus file-driven n-level Lindblad runs.

    Why: RK4 with a per-step ``eigh`` projection and five ``evolve_closed``
    calls per qubit-qrec row dominate.  Without this workload the
    ``quantum`` layer does most of the work nowhere, and exact propagation
    (ROADMAP item 3) could not show.
    """

    name = "quantum-nlevel"
    LEVELS = (4, 8, 16)
    N_JUMPS = 3
    T1, DT = 1.0, 1e-3
    QUBIT_T1, QUBIT_GAMMA, QUBIT_P0 = 1.0, 1.0, 0.9

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        rng = _rng(seed, 4)
        self.runs = []
        for n in self.LEVELS:
            def gauss():
                return (rng.standard_normal((n, n))
                        + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0 * n)
            B = gauss()
            H = B + B.conj().T
            jumps = [np.sqrt(0.5) * gauss() for _ in range(self.N_JUMPS)]
            G = gauss()
            rho0 = G @ G.conj().T + 0.1 * np.eye(n) / n
            rho0 = 0.5 * (rho0 + rho0.conj().T)
            rho0 /= np.trace(rho0).real
            files = {"hamiltonian": os.path.join(workdir, f"H{n}.op"),
                     "rho0": os.path.join(workdir, f"rho0_{n}.op"),
                     "lindblad": [os.path.join(workdir, f"L{n}_{k}.op")
                                  for k in range(self.N_JUMPS)],
                     "delta_h": None}
            _write_operator(files["hamiltonian"], H)
            _write_operator(files["rho0"], rho0)
            for path, J in zip(files["lindblad"], jumps):
                _write_operator(path, J)
            cfg = cli.ScenarioConfig(f"bench-nlevel-{n}", "quantum-run",
                                     model={"files": files},
                                     numerics={"dt": self.DT, "t1": self.T1})
            # Oracle: the exact state at t1 from the matrix exponential (the
            # files hold the same doubles: 17 significant digits round-trip).
            rho_t = (scipy.linalg.expm(self.T1 * _liouvillian(H, jumps))
                     @ rho0.reshape(-1)).reshape(n, n)
            self.runs.append((f"nlevel-{n}", cfg, _purity_entropy(rho_t)))

    def run_pass(self, p):
        with p.op("qubit-qrec"):
            out = self.scenario(p, "qubit-qrec", cli.BUILTIN_FACTORIES["qubit-qrec"](),
                                ("rates.csv",))
            rates = read_csv(os.path.join(out, "rates.csv"))
            gate(abs(rates[0, 2] + 1.0) <= 1e-8, "qubit-qrec: rate at t=0 != -1")
            gate(np.max(rates[:, 3]) < 1e-6, "qubit-qrec: FD residual")

        with p.op("qubit-lindblad"):
            out = self.scenario(p, "qubit-lindblad", cli.BUILTIN_FACTORIES["qubit-lindblad"](),
                                ("lindblad.csv",))
            rows = read_csv(os.path.join(out, "lindblad.csv"))
            gate(np.max(np.abs(rows[:, 1] - 1.0)) < 1e-10, "qubit-lindblad: trace")
            gate(np.all(np.diff(rows[:, 2]) < 1e-10), "qubit-lindblad: D increased")
            gate(np.all(rows[:, 3] <= 0.0), "qubit-lindblad: dissipative rate > 0")
            # Depolarizing noise shrinks the Bloch vector as exp(-gamma t).
            r = (2.0 * self.QUBIT_P0 - 1.0) * np.exp(-self.QUBIT_GAMMA * rows[:, 0])
            lam = np.stack([(1.0 + r) / 2.0, (1.0 - r) / 2.0])
            exact = np.sum(lam * np.log(2.0 * lam), axis=0)
            gate(np.max(np.abs(rows[:, 2] - exact)) < 1e-8, "qubit-lindblad: D vs exact")

        for op, cfg, (purity, entropy) in self.runs:
            with p.op(op):
                out = self.scenario(p, op, cfg, ("evolution.csv",))
                rows = read_csv(os.path.join(out, "evolution.csv"))
                gate(rows.shape[0] == round(self.T1 / self.DT) + 1, f"{op}: rows")
                gate(np.max(np.abs(rows[:, 1] - 1.0)) < 1e-10, f"{op}: trace")
                gate(abs(rows[-1, 2] - purity) < 1e-8, f"{op}: purity vs exact")
                gate(abs(rows[-1, 3] - entropy) < 1e-8, f"{op}: entropy vs exact")


WORKLOADS = {w.name: w for w in (Grid2DScheduled, Grid1DDense, Ensembles, QuantumNLevel)}
