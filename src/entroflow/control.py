"""Log-ratio feedback control of the convergence rate to equilibrium.

The feedback law

    u(x, t) = -alpha(t) grad log(rho^u_t / rho_bar)(x),      alpha > -sigma2/2,

is nonlinear in the density, but the controlled Fokker-Planck equation
collapses to a *linear* one: drift -(sigma2/2 + alpha(t)) grad H / kT with
diffusion sigma2 + 2 alpha(t).  The same flow of densities is produced by an
uncontrolled process with those rescaled coefficients, which still satisfy
the Einstein fluctuation-dissipation ratio kT, and the Gibbs density remains
invariant for every admissible gain.  The divergence then decays at the
gain-modulated rate

    d/dt D(rho^u||rho_bar) = -(sigma2/2 + alpha(t)) * Fisher(rho^u|rho_bar).

Two executable routes to the same flow live here:

* :func:`evolve_modulated` solves the linear equation directly: it is
  :func:`.fokker_planck.evolve` from t = 0, with the gain its argument
  beside the Hamiltonian;
* :func:`simulate_feedback` steps the nonlinear law self-consistently
  (predictor with the feedback frozen at the current density, then one
  fixed-point refinement at the step midpoint), as the cross-check.

For quadratic Hamiltonians the densities stay Gaussian and the grid solve
may be replaced by moment equations; :func:`gauss_markov_propagate`
solves them in closed form and serves as the cross-check.

A gain is a number or a callable of t such as a :class:`GainSchedule`;
:func:`.fokker_planck.clock_rate` turns it into sigma2/2 + alpha(t) for the
grid solver and the moment equations alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .fokker_planck import (
    DensityTrajectory,
    _Stepper,
    admissible_gain,
    check_mass,
    clock_rate,
    energy_slopes,
    evolve,
    gain_at,
    potential_drifts,
)
from .grids import Grid, GridDensity, NumericalFailure, VectorFieldGrid, march, time_steps
from .production import (
    check_decomposition_identity,
    floored_log,
    floored_log_ratio_gradient,
    log_ratio_gradient,
    split_rate,
    support_weight,
    weighted_inner,
)
from .thermo import GaussianDensity, HamiltonianSpec, gibbs_density, require_spd
from .tolerances import FD_RESIDUAL_FLOOR, MODULATED_RATE_RTOL, QUADRATIC_FORM_TOL


@dataclass(frozen=True)
class GainSchedule:
    """Time-dependent feedback gain alpha(t) (same units as sigma2/2)."""

    func: Callable[[float], float]

    def __call__(self, t: float) -> float:
        return float(self.func(t))

    @classmethod
    def constant(cls, value: float) -> "GainSchedule":
        return cls(lambda t: value)

    @classmethod
    def from_table(cls, times: Sequence[float], values: Sequence[float]) -> "GainSchedule":
        """Piecewise-linear interpolation, clamped outside the table range."""
        times = np.asarray(times, dtype=float)
        values = np.asarray(values, dtype=float)
        if times.ndim != 1 or times.shape != values.shape or times.size < 1:
            raise ValueError("need matching 1-D time/value tables")
        if not (np.all(np.isfinite(times)) and np.all(np.isfinite(values))):
            raise ValueError("gain table times and values must be finite")
        if np.any(np.diff(times) <= 0.0):
            raise ValueError("table times must be strictly increasing")
        return cls(lambda t: float(np.interp(t, times, values)))

    @classmethod
    def from_csv(cls, path) -> "GainSchedule":
        """Two-column CSV ``t,alpha``.  Blank lines are skipped; the first
        non-blank line is a header when none of its fields is a number, and
        every other non-blank line must hold exactly two numbers."""
        with open(path) as fh:
            lines = [(n, line) for n, line in enumerate(fh, 1) if line.strip()]
        rows = []
        for k, (n, line) in enumerate(lines):
            row = [_number(s) for s in line.split(",")]
            if k == 0 and all(v is None for v in row):
                continue  # the header
            if len(row) != 2 or None in row:
                raise ValueError(f"gain table {path} line {n}: expected two numbers "
                                 f"t,alpha, got {line.strip()!r}")
            rows.append(row)
        if not rows:
            raise ValueError(f"no numeric rows in gain table {path}")
        t, a = zip(*rows)
        return cls.from_table(t, a)


def _number(field: str) -> float | None:
    """The float a CSV field holds, or None when it holds none."""
    try:
        return float(field)
    except ValueError:
        return None


def feedback_control(rho_u: GridDensity, equilibrium: GridDensity,
                     alpha: float) -> VectorFieldGrid:
    """u = -alpha grad log(rho_u / equilibrium) on the shared stencil."""
    if np.any(equilibrium.values <= 0.0):  # zeros in rho_u take the floored log
        raise ValueError("nonpositive density")
    return VectorFieldGrid(rho_u.grid, -alpha * log_ratio_gradient(rho_u, equilibrium))


def evolve_modulated(ham: HamiltonianSpec, alpha, rho0: GridDensity,
                     t1: float, dt: float, store_every: int = 1) -> DensityTrajectory:
    """Solve the linear gain-modulated equation from t = 0 to t1.

    :func:`.fokker_planck.evolve` at t0 = 0: drift
    -(sigma2/2 + alpha(t)) grad H / kT and diffusion sigma2 + 2 alpha(t); the
    gain is sampled, and checked for admissibility, at every step midpoint.
    """
    # kept as a name of its own: the perfbench workloads call it by this signature
    return evolve(ham, alpha, rho0, 0.0, t1, dt, store_every=store_every)


def modulated_decay_rate(rho_u: GridDensity, ham: HamiltonianSpec,
                         alpha: float) -> float:
    """-(sigma2/2 + alpha) * Fisher(rho_u | gibbs): the modulated decay rate.

    Cross-checked against the production split with the feedback control
    u = -alpha grad log(rho_u / gibbs) substituted, from the same gradient;
    disagreement beyond MODULATED_RATE_RTOL raises.
    """
    admissible_gain(alpha, ham.sigma2)
    grid = rho_u.grid
    equilibrium = gibbs_density(ham, grid).values
    w = support_weight(rho_u.values, equilibrium)
    g = floored_log_ratio_gradient(grid, rho_u.values, equilibrium)
    rate = -(0.5 * ham.sigma2 + alpha) * weighted_inner(grid, g, g, w)
    total, _, _ = split_rate(grid, g, -alpha * g, w, ham.sigma2)
    if abs(rate - total) > MODULATED_RATE_RTOL * max(1.0, abs(rate)):
        raise NumericalFailure("modulated rate disagrees with production decomposition")
    return rate


# ---------------------------------------------------------------------------
# direct nonlinear simulation of the feedback law
# ---------------------------------------------------------------------------

def _feedback_faces(grid: Grid, slopes: Sequence[np.ndarray], kT: float,
                    rho_values: np.ndarray, a: float) -> list[np.ndarray]:
    """-a * grad log(rho/rho_bar) sampled at interior faces via differences.

    grad log rho_bar = -grad H / kT is taken from the energy ``slopes`` of
    :func:`energy_slopes`, the same face quantities the flux assembly uses.
    """
    logr = floored_log(rho_values)
    return [-a * (np.diff(logr, axis=ax) / grid.dx[ax] + slopes[ax] / kT)
            for ax in range(grid.ndim)]


def simulate_feedback(ham: HamiltonianSpec, alpha, rho0: GridDensity,
                      t1: float, dt: float, store_every: int = 1) -> DensityTrajectory:
    """Step the controlled equation with the feedback law evaluated on the fly.

    Per step: freeze u at the current density, take a Crank-Nicolson step, then
    refine once with u evaluated at the midpoint density (one fixed-point
    iteration, consistent with the scheme's second order).  Both solves have
    the positivity check of :func:`evolve`.  Agrees with
    :func:`evolve_modulated` up to the spatial consistency error of the two
    operator forms.  The face drift of a solve is the gain-free potential
    drift plus the face control; each solve loads it into the run's one
    stepper.
    """
    grid = rho0.grid
    slopes = energy_slopes(ham, grid)
    D = 0.5 * ham.sigma2
    plain = potential_drifts(ham, D, slopes)
    stepper = _Stepper(grid, dt)

    def solve(rho, controlled, a, t_end):
        u = _feedback_faces(grid, slopes, ham.kT, controlled, a)
        stepper.load(D, [b + u_ax for b, u_ax in zip(plain, u)])
        return stepper.advance(rho, 1.0, t_end)

    def step(k, rho):
        a = admissible_gain(gain_at(alpha, (k + 0.5) * dt), ham.sigma2)
        t_end = (k + 1) * dt
        rho_star = solve(rho, rho, a, t_end)
        return check_mass(grid, solve(rho, 0.5 * (rho + rho_star), a, t_end), t_end)

    return DensityTrajectory(grid, *march(step, rho0.values, 0.0, t1, dt, store_every))


# ---------------------------------------------------------------------------
# Gauss-Markov closed form (quadratic Hamiltonian)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GaussMarkovState:
    """First two moments of the Gaussian flow at one time."""

    time: float
    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        checked = GaussianDensity(self.mean, self.cov)
        object.__setattr__(self, "mean", checked.mean)
        object.__setattr__(self, "cov", checked.cov)

    def gaussian(self) -> GaussianDensity:
        return GaussianDensity(self.mean, self.cov)

    def divergence_to(self, equilibrium: GaussianDensity) -> float:
        return self.gaussian().kl_to(equilibrium)


def equilibrium_gaussian(Q, kT: float) -> GaussianDensity:
    """N(0, kT Q^{-1}): the Gibbs density of H = x^T Q x / 2."""
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    return GaussianDensity(np.zeros(Q.shape[0]), kT * np.linalg.inv(Q))


def gauss_markov_propagate(Q, ham: HamiltonianSpec, alpha,
                           state0: GaussMarkovState, t1: float, dt: float
                           ) -> list[GaussMarkovState]:
    """Exact moments of the gain-modulated linear flow on the time grid.

    With c(t) = sigma2/2 + alpha(t) every A(t) = -c(t) Q / kT commutes with
    every other, so with the clock tau = sum dt c(t_mid) (the time change
    the grid solver uses) and Sigma = kT Q^{-1},

        m = exp(-tau Q / kT) m0,
        P = exp(-tau Q / kT) (P0 - Sigma) exp(-tau Q / kT) + Sigma.

    The gain is sampled, and checked for admissibility, at every step
    midpoint.  The grid solver provides the independent cross-check.
    """
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    lam, V = require_spd(Q, "Q")
    probe = np.ones((1, Q.shape[0]))
    if abs(ham.energy(probe)[0] - 0.5 * probe[0] @ Q @ probe[0]) > QUADRATIC_FORM_TOL:
        raise ValueError("hamiltonian is not the quadratic form of Q")
    n = time_steps(state0.time, t1, dt)
    sigma = (V * (ham.kT / lam)) @ V.T
    out = [state0]
    tau = 0.0
    for k in range(n):
        tau += dt * clock_rate(ham, alpha, state0.time + (k + 0.5) * dt)
        E = (V * np.exp(-tau * lam / ham.kT)) @ V.T
        out.append(GaussMarkovState(state0.time + (k + 1) * dt, E @ state0.mean,
                                    E @ (state0.cov - sigma) @ E + sigma))
    return out


# ---------------------------------------------------------------------------
# rate curves along a trajectory (CLI plumbing)
# ---------------------------------------------------------------------------

def decomposition_curve(traj: DensityTrajectory, ham: HamiltonianSpec, alpha
                        ) -> dict[str, np.ndarray]:
    """Per stored time: divergence to equilibrium, rate split and FD residual.

    Columns: t, D, total_rate, pepr, epur, fd_check_residual.  Each stored
    row's rates come from the stored array: one log-ratio gradient g, the
    feedback control u = -alpha(t) g, alpha(t) checked admissible at the
    stored time, and :func:`production.split_rate`.  The
    equilibrium's positivity and -PEPR + EPuR = total are checked once per
    curve (each step's density was checked when it was taken).  The
    finite-difference residual compares total_rate to the central difference
    of D (one-sided at the ends).
    """
    grid = traj.grid
    equilibrium = gibbs_density(ham, grid)
    ref = equilibrium.values
    n_zero = np.count_nonzero(ref <= 0.0)  # the feedback law needs log(equilibrium)
    if n_zero:
        raise ValueError(f"equilibrium density underflows to zero on {n_zero} of "
                         f"{ref.size} cells; narrow the grid box")
    ts = traj.times
    D = traj.divergence_curve(equilibrium)
    total, pepr, epur = np.empty((3, len(traj)))
    for k, row in enumerate(traj.values):
        g = floored_log_ratio_gradient(grid, row, ref)
        a = admissible_gain(gain_at(alpha, ts[k]), ham.sigma2)
        total[k], pepr[k], epur[k] = split_rate(grid, g, -a * g, support_weight(row),
                                               ham.sigma2)
    check_decomposition_identity(total, pepr, epur)
    fd = np.gradient(D, ts, edge_order=1)
    resid = np.abs(fd - total) / np.maximum(np.abs(total), FD_RESIDUAL_FLOOR)
    return {"t": ts, "D": D, "total_rate": total, "pepr": pepr, "epur": epur,
            "fd_check_residual": resid}
