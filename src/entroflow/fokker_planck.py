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

Time stepping: Crank-Nicolson, with the operator sampled at step midpoints.
:func:`evolve` takes a Hamiltonian and a feedback gain alpha beside it, the
simulator's argument and not a field of the model.  The Peclet numbers
-(H_{i+1} - H_i)/kT do not depend on the gain, so the operator at time t is
exactly (D(t)/D_0) A_0 with the clock rate D(t) = sigma2/2 + alpha(t) of
:func:`clock_rate`: the gain only rescales the clock.  So :func:`evolve`
loads A_0 once per run and each step uses the scale s = D(t_mid)/D_0, which
is exactly 1.0 for a constant gain.  The grid fixes the sparsity pattern of
every operator on it; one stepper per run holds that pattern, and loading an
operator writes its face coefficients in place.  In 1-D the tridiagonal
system (I - dt s A_0 / 2) x = b is solved directly with a banded solver on
the three bands of A_0, rebuilt only when s or the operator changes.  In N-D
it is solved with Jacobi-preconditioned BiCGSTAB, warm-started from the
current density, to the relative residual ``KRYLOV_RTOL`` (1e-14; every
tolerance lives in `tolerances`).  Over 100 steps of a scheduled-gain run on
128^2 cells a residual of 1e-12 let the mass drift by 1e-11; 1e-14 holds it
at 4e-15 and keeps the densities within 2e-14 of the peak of a direct
sparse-LU solve.  A solve that does not reach it raises
:class:`ConvergenceError`.

One loop, :func:`.grids.march`, steps a density for every caller, which
hands it a per-step function ``step(k, rho) -> rho``: :func:`evolve` the
rescaled fixed operator, :func:`.control.simulate_feedback` the gain-free
potential drift plus face controls, loaded into its one stepper per solve
because they change.  Both take the potential face drift from
:func:`potential_drifts`.  The stored densities fill one preallocated
read-only ``(n_times, *shape)`` array, the :class:`DensityTrajectory`;
density objects are built on demand.

Crank-Nicolson is unconditionally stable, and keeps positivity on any data
when its explicit half I + dt s A / 2 is nonnegative, that is for
dt <= 2 / (s max|diag A|).  Each invariant is checked once.  Positivity, in
every step: values below -POSITIVITY_TOL abort the run with that bound as
the suggested dt, tinier negatives are clamped to zero.  Mass and
finiteness, in :func:`check_mass` for every density a step returns, stored
or not: the fluxes telescope, so every column of the operator sums to zero
and a step keeps the total up to linear-solver roundoff; a quadrature mass
off 1 by more than ``MASS_TOL``, or not finite, raises
:class:`MassDriftError` at the step that made it.
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
    march,
    quadrature,
    require_same_grid,
)
from .thermo import HamiltonianSpec, relative_entropy_rows
from .tolerances import (BERNOULLI_SERIES_CUTOFF, BOUNDARY_DECAY_TOL, KRYLOV_RTOL, MASS_TOL,
                         POSITIVITY_TOL)


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


def gain_at(gain: float | Callable[[float], float], t: float) -> float:
    """alpha(t) of a feedback gain that is a number or a callable of t."""
    return float(gain(t)) if callable(gain) else float(gain)


def clock_rate(ham: HamiltonianSpec, gain: float | Callable[[float], float],
               t: float) -> float:
    """D(t) = sigma2/2 + alpha(t), the clock rate of the flow with operator
    D(t) A_0; > 0, since the gain is checked admissible."""
    return 0.5 * ham.sigma2 + admissible_gain(gain_at(gain, t), ham.sigma2)


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


def energy_slopes(ham: HamiltonianSpec, grid: Grid) -> list[np.ndarray]:
    """Per-axis (H_{i+1} - H_i)/dx of the sampled energy at the interior faces."""
    with np.errstate(over="ignore", invalid="ignore"):  # _Stepper.load rejects inf/NaN
        H = ham.sample_energy(grid)
        return [np.diff(H, axis=a) / grid.dx[a] for a in range(grid.ndim)]


def potential_drifts(ham: HamiltonianSpec, D: float,
                     slopes: Sequence[np.ndarray]) -> list[np.ndarray]:
    """The potential face drift -D grad H / kT from the energy ``slopes``:
    the sampled Gibbs density is exactly stationary for every D > 0."""
    coeff = -D / ham.kT
    with np.errstate(over="ignore", invalid="ignore"):  # _Stepper.load rejects inf/NaN
        return [coeff * g for g in slopes]


# ---------------------------------------------------------------------------
# the operator and its Crank-Nicolson step
# ---------------------------------------------------------------------------

class _Stepper:
    """Crank-Nicolson step (I - dt s A / 2) x = (I + dt s A / 2) rho.

    The grid fixes the CSR pattern of A: one diagonal slot per cell and two
    coupling slots per interior face.  :meth:`load` writes the coefficients
    of a diffusion and face drifts into them; the scale s rescales the clock
    (s = 1 for an operator used as loaded), and the solver is rebuilt only
    when the operator or s changes.  In 1-D the tridiagonal system is solved
    with a banded solver, in N-D with Jacobi-preconditioned BiCGSTAB,
    warm-started from the current density.
    """

    def __init__(self, grid: Grid, dt: float):
        self.grid = grid
        self.dt = dt
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
        if s != self.scale:
            self._rescale(s)
            self.scale = s
        out = self._solve(rho.ravel()).reshape(rho.shape)
        neg_min = out.min()
        if neg_min < -POSITIVITY_TOL:  # a nonnegative explicit half rules this out
            raise PositivityError(
                f"positivity lost at t={t_end:.6g} "
                f"(min {neg_min:.3e}); try dt <= {2.0 / (self.max_diag * s):.3e}")
        return np.maximum(out, 0.0) if neg_min < 0.0 else out

    def _rescale(self, s):
        c = 0.5 * self.dt * s  # the implicit and the explicit half alike
        if self.grid.ndim == 1:
            sub, diag, sup = self.bands
            self.ab = np.zeros((3, len(diag)))
            self.ab[0, 1:] = -c * sup
            self.ab[1, :] = 1.0 - c * diag
            self.ab[2, :-1] = -c * sub
            self.expl = (c * sub, c * diag, c * sup)
        else:
            # bitwise eye - c A: the pattern keeps explicit zeros, which
            # change no product
            self.implicit = self.A.copy()
            self.implicit.data *= -c
            self.implicit.data[self.diag_slots] += 1.0
            self.jacobi = scipy.sparse.diags(1.0 / self.implicit.data[self.diag_slots])
            self.explicit = c

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
    """Densities ``values[k]`` at ``times[k]`` in one read-only array from
    :func:`.grids.march`; every step's density, stored or not, was checked
    for positivity and by :func:`check_mass`."""

    grid: Grid
    times: np.ndarray
    values: np.ndarray

    def __len__(self) -> int:
        return len(self.times)

    @cached_property
    def densities(self) -> tuple[GridDensity, ...]:
        """The stored densities as validated objects, built on first use."""
        return tuple(GridDensity(self.grid, v) for v in self.values)

    def mass_curve(self) -> np.ndarray:
        return np.array([quadrature(self.grid, v) for v in self.values])

    def divergence_curve(self, reference: GridDensity) -> np.ndarray:
        require_same_grid(self, reference)
        return relative_entropy_rows(self.values, reference)


def check_mass(grid: Grid, rho: np.ndarray, t: float) -> np.ndarray:
    """``rho``, the density a step returned at time t, if its quadrature mass
    is 1 within ``MASS_TOL``; a leak, NaN or inf raises
    :class:`MassDriftError` (a numerical failure, not invalid input)."""
    mass = quadrature(grid, rho)
    if not abs(mass - 1.0) <= MASS_TOL:  # NaN and inf fail too
        raise MassDriftError(f"mass drift at t={t:.6g}: {mass!r} != 1")
    return rho


def evolve(ham: HamiltonianSpec, gain: float | Callable[[float], float], rho0: GridDensity,
           t0: float, t1: float, dt: float, store_every: int = 1) -> DensityTrajectory:
    """Integrate the gain-modulated flow of ``ham`` from t0 to t1 with fixed dt.

    Drift -D(t) grad H / kT and diffusion 2 D(t), D(t) of :func:`clock_rate`:
    the linear equation the log-ratio feedback of ``gain`` (a number or a
    callable of t; 0 is the uncontrolled equation) produces.  The operator
    D(t) A_0 is assembled once, at the first step midpoint; each step
    rescales it by D(t_mid)/D_0.  Steps that drive any cell below
    -POSITIVITY_TOL raise :class:`PositivityError`, which suggests a dt;
    tinier negatives are clamped.
    """
    grid = rho0.grid
    t_ref = t0 + 0.5 * dt
    D0 = clock_rate(ham, gain, t_ref)
    stepper = _Stepper(grid, dt)
    stepper.load(D0, potential_drifts(ham, D0, energy_slopes(ham, grid)))

    def step(k, rho):
        t_end = t0 + (k + 1) * dt
        s = clock_rate(ham, gain, t0 + (k + 0.5) * dt) / D0
        return check_mass(grid, stepper.advance(rho, s, t_end), t_end)

    return DensityTrajectory(grid, *march(step, rho0.values, t0, t1, dt, store_every))


def continuity_velocity(rho: GridDensity, ham: HamiltonianSpec,
                        gain: float | Callable[[float], float], t: float) -> VectorFieldGrid:
    """Velocity field v with d rho/dt + div(v rho) = 0 under the flow of :func:`evolve`.

    v = -D (grad H / kT + grad log rho) with D = :func:`clock_rate`
    = sigma2/2 + alpha(t); this is the field to feed the relative-entropy
    rate formula when comparing against solver trajectories.
    """
    grid = rho.grid
    if np.any(rho.values <= 0.0):
        raise ValueError("log-density undefined")
    g = gradient(grid, np.log(rho.values))
    D = clock_rate(ham, gain, t)
    v = -D / ham.kT * gradient(grid, ham.sample_energy(grid)) - D * g
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
                          rho_ref: GridDensity, f_ref: VectorFieldGrid) -> BoundaryDecayReport:
    """Check the boundary-decay conditions on the truncated domain.

    ``rho`` is the density whose rate is being computed, ``f`` its velocity
    field, ``rho_ref``/``f_ref`` the reference pair.  Purely diagnostic:
    never raises.
    """
    grid = rho.grid
    mask = grid.boundary_mask()
    r = rho.values[mask]
    fn = np.linalg.norm(f.vectors, axis=-1)[mask]
    fref = np.linalg.norm(f_ref.vectors, axis=-1)[mask]
    with np.errstate(divide="ignore", invalid="ignore"):
        logratio = np.where(r > 0.0,
                            np.log(r) - np.log(rho_ref.values[mask]), 0.0)
    term1 = float(np.max(fref * r))
    term2 = float(np.max(fn * r))
    term3 = float(np.max(np.abs(fn * r * logratio)))
    return BoundaryDecayReport(term1, term2, term3)
