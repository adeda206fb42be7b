"""Conservative finite-volume solver for continuity-form evolutions

    d rho/dt + div(f rho) = (sigma2_eff / 2) Laplacian(rho)

on uniform rectangular grids with zero-flux boundaries.

Spatial scheme: exponentially-fitted (Chang-Cooper) face fluxes.  With the
Bernoulli function B(z) = z / (exp(z) - 1) and the face Peclet number
w = b dx / D, the flux between cells i and i+1 along an axis is

    F = (D/dx) * [B(-w) rho_i - B(w) rho_{i+1}],

which is second-order accurate, positivity-preserving (off-diagonal
coefficients are nonnegative) and reproduces the discrete equilibrium
exactly: F vanishes iff rho_{i+1}/rho_i = exp(w).  For drifts that come
from a Hamiltonian the face drift is taken from potential differences,
b dx / D = -(H_{i+1} - H_i)/kT, so the sampled Gibbs density is an exact
stationary point of the discrete operator for every admissible gain.

Time stepping: theta-scheme (default theta = 1/2, Crank-Nicolson), with the
operator sampled at step midpoints.  For a Hamiltonian flow the Peclet numbers
-(H_{i+1} - H_i)/kT do not depend on the gain, so the operator at time t is
exactly (D(t)/D_0) A_0: the gain only rescales the clock.  :func:`evolve`
takes only such flows, so it loads A_0 once per run and each step uses the
scale s = D(t_mid)/D_0, which is exactly 1.0 for a constant gain.  The grid
fixes the sparsity pattern of every operator on it; one stepper per run holds
that pattern, and loading an operator writes its face coefficients in place.  In
1-D the tridiagonal system (I - theta dt s A_0) x = b is solved directly
with a banded solver on the three bands of A_0, rebuilt only when s or the
operator changes.  In N-D it is solved with Jacobi-preconditioned BiCGSTAB,
warm-started from the current density, to the relative residual
``KRYLOV_RTOL`` (1e-14; every tolerance lives in `tolerances`).  Over 100
steps of a scheduled-gain run on 128^2 cells a residual of 1e-12 let the
mass drift by 1e-11; 1e-14 holds it at 4e-15 and keeps the densities within
2e-14 of the peak of a direct sparse-LU solve.  A solve that does not reach
it raises :class:`ConvergenceError`.

One loop, :func:`march`, steps a density for every caller, which hands it a
per-step function ``step(k, rho) -> rho``: :func:`evolve` the rescaled fixed
operator, :func:`.control.simulate_feedback` the gain-free potential drift
plus face controls, loaded into its one stepper per solve because they
change.  The
stored densities fill one preallocated read-only ``(n_times, *shape)``
array, the :class:`DensityTrajectory`; density objects are built on demand.

theta >= 1/2 is unconditionally stable; for theta < 1/2 every step is
validated against the Gershgorin bound of s A_0 and rejected with a
suggested dt.  Each invariant is checked once.  Positivity, in every step:
values below -POSITIVITY_TOL abort the run, tinier negatives are clamped to
zero.  Mass and finiteness, in :func:`march` for every stored density: the
fluxes telescope, so every column of the operator sums to zero and a step
keeps the total up to linear-solver roundoff; a quadrature mass off the
initial one by more than ``MASS_TOL``, or not finite, raises
:class:`MassDriftError`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from .grids import (
    Grid,
    GridDensity,
    NumericalFailure,
    VectorFieldGrid,
    face_sides,
    gradient,
    quadrature,
    require_same_grid,
    time_steps,
)
from .thermo import HamiltonianSpec, relative_entropy_rows
from .tolerances import (BERNOULLI_SERIES_CUTOFF, BOUNDARY_DECAY_TOL, KRYLOV_RTOL, MASS_TOL,
                         POSITIVITY_TOL)


class StabilityError(NumericalFailure):
    """Time step violates the stability bound of the chosen scheme."""


class PositivityError(NumericalFailure):
    """A step produced a negative density beyond the clamping tolerance."""


class ConvergenceError(NumericalFailure):
    """The Krylov solve of a step did not reach KRYLOV_RTOL."""


class MassDriftError(NumericalFailure):
    """Total mass drifted beyond MASS_TOL along a trajectory."""


def admissible_gain(a: float, sigma2: float) -> float:
    """Return the feedback gain ``a`` if the flow is well posed, a > -sigma2/2.

    At a = -sigma2/2 the rescaled diffusion sigma2 + 2a vanishes and the
    controlled equation stops being parabolic; an infinite gain has no
    finite drift.
    """
    if not -0.5 * sigma2 < a < np.inf:  # NaN fails too
        raise ValueError("ill-posed gain")
    return a


def bernoulli(z: np.ndarray) -> np.ndarray:
    """B(z) = z / (exp(z) - 1), stable for all z (B(0) = 1, B(+inf) = 0)."""
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    small = np.abs(z) < BERNOULLI_SERIES_CUTOFF
    out[small] = 1.0 - 0.5 * z[small] + z[small] ** 2 / 12.0
    with np.errstate(over="ignore"):
        zb = z[~small]
        out[~small] = zb / np.expm1(zb)
    return out


@dataclass(frozen=True)
class HamiltonianFlow:
    """Gain-modulated gradient flow of the Hamiltonian ``ham``.

    Drift -(sigma2/2 + alpha(t)) grad H / kT with diffusion
    sigma2 + 2 alpha(t): the linear equation that the log-ratio feedback of
    gain alpha produces (gain = 0 is the uncontrolled equation).  The
    potential part of the face drift uses sampled energy differences, so the
    sampled Gibbs density is exactly stationary for any admissible gain, and
    the friction/diffusion pair keeps the Einstein ratio kT by construction.
    The face Peclet numbers -(H_{i+1} - H_i)/kT do not depend on the gain,
    so the operator is D(t) A_0 for one fixed A_0: every such flow is a time
    change, loaded once per :func:`evolve` call.
    """

    ham: HamiltonianSpec
    gain: float | Callable[[float], float] = 0.0

    def half_diffusion(self, t: float) -> float:
        """D(t) = sigma2/2 + alpha(t), > 0 for an admissible gain."""
        gain = self.gain(t) if callable(self.gain) else self.gain
        return 0.5 * self.ham.sigma2 + admissible_gain(gain, self.ham.sigma2)

    def face_drifts(self, grid: Grid, t: float) -> list[np.ndarray]:
        coeff = -self.half_diffusion(t) / self.ham.kT
        with np.errstate(over="ignore", invalid="ignore"):  # _Stepper.load rejects inf/NaN
            return [coeff * g for g in energy_slopes(grid, self.ham.sample_energy(grid))]


def energy_slopes(grid: Grid, H: np.ndarray) -> list[np.ndarray]:
    """Per-axis (H_{i+1} - H_i)/dx at the interior faces."""
    return [np.diff(H, axis=a) / grid.dx[a] for a in range(grid.ndim)]


# ---------------------------------------------------------------------------
# the operator and its theta step
# ---------------------------------------------------------------------------

class _Stepper:
    """Theta step (I - theta dt s A) x = (I + (1 - theta) dt s A) rho.

    The grid fixes the CSR pattern of A: one diagonal slot per cell and two
    coupling slots per interior face.  :meth:`load` writes the coefficients
    of a diffusion and face drifts into them; the scale s rescales the clock
    (s = 1 for an operator used as loaded), and the solver is rebuilt only
    when the operator or s changes.  In 1-D the tridiagonal system is solved
    with a banded solver, in N-D with Jacobi-preconditioned BiCGSTAB,
    warm-started from the current density.
    """

    def __init__(self, grid: Grid, dt: float, theta: float):
        if not 0.0 <= theta <= 1.0:  # NaN fails too
            raise ValueError("theta must lie in [0, 1]")
        self.grid = grid
        self.dt = dt
        self.theta = theta
        n = grid.size
        idx = np.arange(n).reshape(grid.shape)
        self.faces = [(idx[lo].ravel(), idx[hi].ravel())
                      for lo, hi in map(face_sides, range(grid.ndim))]
        # (rows, cols) of the diagonal, then per axis of A[hi, lo] and A[lo, hi]
        entries = [(idx.ravel(), idx.ravel())]
        for lo, hi in self.faces:
            entries += [(hi, lo), (lo, hi)]
        rows, cols = (np.concatenate(e) for e in zip(*entries))
        order = np.lexsort((cols, rows))  # canonical CSR: by row, then column
        slot = np.empty_like(order)
        slot[order] = np.arange(order.size)
        indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=n))))
        self.A = scipy.sparse.csr_matrix((np.zeros(order.size), cols[order], indptr),
                                         shape=(n, n))
        self.diag_slots, *couplings = np.split(slot, np.cumsum([r.size for r, _ in entries[:-1]]))
        self.coupling_slots = list(zip(couplings[::2], couplings[1::2]))
        self.scale = None

    def load(self, D: float, face_drifts: Sequence[np.ndarray]) -> None:
        """Write the operator of diffusion ``D`` and ``face_drifts`` into A.

        The flux through a face is F = cl rho_lo - ch rho_hi, with
        Chang-Cooper coefficients for D > 0 and upwinding for D = 0; so
        A[hi, lo] = cl, A[lo, hi] = ch, and each column sums to zero.
        """
        data = self.A.data
        diag = np.zeros(self.grid.size)
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            for a, b in enumerate(face_drifts):
                if not np.all(np.isfinite(b)):
                    raise ValueError("drift not finite on grid")
                dx = self.grid.dx[a]
                if D > 0.0:
                    w = b * dx / D
                    lo_c = (D / dx) * bernoulli(-w)
                    hi_c = (D / dx) * bernoulli(w)
                else:
                    lo_c = np.maximum(b, 0.0)
                    hi_c = np.maximum(-b, 0.0)
                cl = (lo_c / dx).ravel()
                ch = (hi_c / dx).ravel()
                (i_lo, i_hi), (hi_lo, lo_hi) = self.faces[a], self.coupling_slots[a]
                data[hi_lo], data[lo_hi] = cl, ch
                # lo side, then hi side, per axis: this summation order fixes the
                # diagonal's rounding, and with it the bytes of every artifact
                diag[i_lo] -= cl
                diag[i_hi] -= ch
        # an overflowed coefficient leaves its diagonal entries inf or NaN
        if not np.all(np.isfinite(diag)):
            raise ValueError("operator coefficients overflow: the diffusion or drift is "
                             "too large for the cell width")
        data[self.diag_slots] = diag
        if self.grid.ndim == 1:
            self.bands = cl, diag, ch  # A[i+1, i], A[i, i], A[i, i+1]
        self.max_diag = float(np.max(np.abs(diag)))
        self.scale = None

    def advance(self, rho: np.ndarray, s: float, t_end: float) -> np.ndarray:
        """One checked step of the density array ``rho`` ending at ``t_end``."""
        rate = self.max_diag * s
        if self.theta < 0.5 and self.dt * (1.0 - 2.0 * self.theta) * rate > 1.0:
            raise StabilityError(
                f"dt={self.dt:.3e} violates the stability bound for theta={self.theta}; "
                f"use dt <= {1.0 / ((1.0 - 2.0 * self.theta) * rate):.3e}")
        if s != self.scale:
            self._rescale(s)
            self.scale = s
        out = self._solve(rho.ravel()).reshape(rho.shape)
        neg_min = out.min()
        if neg_min < -POSITIVITY_TOL:
            suggestion = (1.0 / ((1.0 - self.theta) * rate) if self.theta < 1.0
                          else self.dt / 2.0)
            raise PositivityError(
                f"positivity lost at t={t_end:.6g} "
                f"(min {neg_min:.3e}); try dt <= {suggestion:.3e}")
        return np.maximum(out, 0.0) if neg_min < 0.0 else out

    def _rescale(self, s):
        c = self.theta * self.dt * s
        e = self.dt * (1.0 - self.theta) * s
        if self.grid.ndim == 1:
            sub, diag, sup = self.bands
            self.ab = np.zeros((3, len(diag)))
            self.ab[0, 1:] = -c * sup
            self.ab[1, :] = 1.0 - c * diag
            self.ab[2, :-1] = -c * sub
            self.expl = (e * sub, e * diag, e * sup)
        else:
            # bitwise eye - c A: the pattern keeps explicit zeros, which
            # change no product
            self.implicit = self.A.copy()
            self.implicit.data *= -c
            self.implicit.data[self.diag_slots] += 1.0
            self.jacobi = scipy.sparse.diags(1.0 / self.implicit.data[self.diag_slots])
            self.explicit = e

    def _solve(self, rho):
        if self.grid.ndim == 1:
            sub, diag, sup = self.expl
            rhs = rho + diag * rho
            rhs[:-1] += sup * rho[1:]
            rhs[1:] += sub * rho[:-1]
            return scipy.linalg.solve_banded((1, 1), self.ab, rhs)
        rhs = rho + self.explicit * (self.A @ rho)
        x, info = scipy.sparse.linalg.bicgstab(self.implicit, rhs, x0=rho,
                                               rtol=KRYLOV_RTOL, atol=0.0,
                                               M=self.jacobi)
        if info != 0:
            raise ConvergenceError(
                f"BiCGSTAB did not reach relative residual {KRYLOV_RTOL:g} "
                f"(info={info})")
        return x


@dataclass
class DensityTrajectory:
    """Densities ``values[k]`` at ``times[k]`` in one read-only array.

    :func:`march` has checked each for quadrature mass ``mass`` and finiteness,
    its steps for positivity.
    """

    grid: Grid
    times: np.ndarray
    values: np.ndarray
    mass: float = 1.0

    def __len__(self) -> int:
        return len(self.times)

    @cached_property
    def densities(self) -> tuple[GridDensity, ...]:
        """The stored densities as validated objects, built on first use."""
        return tuple(GridDensity(self.grid, v, mass=self.mass) for v in self.values)

    def mass_curve(self) -> np.ndarray:
        return np.array([quadrature(self.grid, v) for v in self.values])

    def divergence_curve(self, reference: GridDensity) -> np.ndarray:
        require_same_grid(self, reference)
        return relative_entropy_rows(self.values, self.mass, reference)


def march(step: Callable[[int, np.ndarray], np.ndarray], rho0: GridDensity,
          t0: float, dt: float, n_steps: int, store_every: int) -> DensityTrajectory:
    """Apply ``step(k, rho) -> rho`` for k = 0 .. n_steps-1, starting at ``rho0``.

    Step k ends at t0 + (k+1) dt.  Every ``store_every``-th density and the
    last are written into one preallocated array.  A stored density whose
    quadrature mass differs from ``rho0.mass`` by more than
    ``MASS_TOL``, or is not finite, raises :class:`MassDriftError` (a
    numerical failure, not invalid input).
    """
    grid = rho0.grid
    n_stored = -(-n_steps // store_every) + 1
    times = np.empty(n_stored)
    values = np.empty((n_stored,) + grid.shape)
    times[0], values[0] = t0, rho0.values
    rho = rho0.values.copy()
    j = 0
    for k in range(n_steps):
        rho = step(k, rho)
        if (k + 1) % store_every == 0 or k == n_steps - 1:
            t = t0 + (k + 1) * dt
            mass = quadrature(grid, rho)
            if not abs(mass - rho0.mass) <= MASS_TOL:  # NaN and inf fail too
                raise MassDriftError(
                    f"mass drift at t={t:.6g}: {mass!r} != initial {rho0.mass!r}")
            j += 1
            times[j], values[j] = t, rho
    values.flags.writeable = False
    return DensityTrajectory(grid, times, values, rho0.mass)


def evolve(flow: HamiltonianFlow, rho0: GridDensity, t0: float, t1: float, dt: float,
           theta: float = 0.5, store_every: int = 1) -> DensityTrajectory:
    """Integrate the continuity-form equation from t0 to t1 with fixed dt.

    The operator D(t) A_0 of ``flow`` is assembled once, at the first step
    midpoint; each step rescales it by D(t_mid)/D_0, where every D > 0 since
    the gain is admissible.  With the default theta = 1/2 the scheme is
    second order in time and unconditionally stable.  For theta < 1/2 each
    step is validated against the Gershgorin stability bound and rejected
    with a suggestion.  Steps that drive any cell below -POSITIVITY_TOL raise
    :class:`PositivityError`; tinier negatives are clamped.
    """
    grid = rho0.grid
    n_steps = time_steps(t0, t1, dt)
    t_ref = t0 + 0.5 * dt
    D0 = flow.half_diffusion(t_ref)
    stepper = _Stepper(grid, dt, theta)
    stepper.load(D0, flow.face_drifts(grid, t_ref))

    def step(k, rho):
        s = flow.half_diffusion(t0 + (k + 0.5) * dt) / D0
        return stepper.advance(rho, s, t0 + (k + 1) * dt)

    return march(step, rho0, t0, dt, n_steps, store_every)


def continuity_velocity(rho: GridDensity, flow: HamiltonianFlow, t: float) -> VectorFieldGrid:
    """Velocity field v with d rho/dt + div(v rho) = 0 under ``flow``.

    v = -D (grad H / kT + grad log rho) with D = sigma2_eff/2 = sigma2/2 + alpha(t);
    this is the field to feed the relative-entropy rate formula when comparing
    against solver trajectories.
    """
    grid = rho.grid
    if np.any(rho.values <= 0.0):
        raise ValueError("log-density undefined")
    g = gradient(grid, np.log(rho.values))
    D = flow.half_diffusion(t)
    v = -D / flow.ham.kT * gradient(grid, flow.ham.sample_energy(grid)) - D * g
    return VectorFieldGrid(grid, v)


# ---------------------------------------------------------------------------
# boundary-decay diagnostic
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundaryDecayReport:
    """Maxima over boundary cells of the integration-by-parts boundary terms.

    Certifies that the truncated domain behaves like all of R^n: the rate
    formulas drop boundary terms |f rho|, |f~ rho| and |f~ rho log(rho/ref)|,
    which must all be below BOUNDARY_DECAY_TOL at the box edge (``passed``).
    """

    max_ref_drift_rho: float
    max_drift_rho: float
    max_drift_rho_log: float

    @property
    def passed(self) -> bool:
        return max(self.max_ref_drift_rho, self.max_drift_rho,
                   self.max_drift_rho_log) < BOUNDARY_DECAY_TOL


def boundary_decay_report(rho: GridDensity, f: VectorFieldGrid,
                          rho_ref: GridDensity, f_ref: VectorFieldGrid | None = None
                          ) -> BoundaryDecayReport:
    """Check the boundary-decay conditions on the truncated domain.

    ``rho`` is the density whose rate is being computed, ``f`` its velocity
    field, ``rho_ref``/``f_ref`` the reference pair (``f_ref`` defaults to
    ``f``).  Purely diagnostic: never raises.
    """
    grid = rho.grid
    mask = grid.boundary_mask()
    r = rho.values[mask]
    fn = np.linalg.norm(f.vectors, axis=-1)[mask]
    fref = fn if f_ref is None else np.linalg.norm(f_ref.vectors, axis=-1)[mask]
    with np.errstate(divide="ignore", invalid="ignore"):
        logratio = np.where(r > 0.0,
                            np.log(r) - np.log(rho_ref.values[mask]), 0.0)
    term1 = float(np.max(fref * r))
    term2 = float(np.max(fn * r))
    term3 = float(np.max(np.abs(fn * r * logratio)))
    return BoundaryDecayReport(term1, term2, term3)
