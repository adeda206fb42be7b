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
is exactly 1.0 for a constant gain.  On every grid an operator is a face
stencil: per axis, the two couplings of each interior face in face shape,
and the diagonal in grid shape.  One stepper per run holds it, and each
right-hand side is its stencil product.  Only the solve depends on the
dimension.  In 1-D LAPACK's direct tridiagonal solve ``dgtsv`` reads the
three arrays of the implicit stencil.  In N-D the system
(I - dt s A / 2) x = b is solved with Jacobi-preconditioned BiCGSTAB (van
der Vorst 1992), warm-started from the current density, to the relative residual
``KRYLOV_RTOL`` (1e-14; every tolerance lives in `tolerances`).  Over 100
steps of a scheduled-gain run on 128^2 cells a residual of 1e-12 let the
mass drift by 1e-11; 1e-14 holds it at 4e-15 and keeps the densities within
2e-14 of the peak of a direct sparse-LU solve.  The loop is the stepper's
own, with the recurrences, breakdown tests and stopping test of scipy's
``bicgstab``, and a stencil product adds each cell's terms in the column
order of the operator's CSR form; so a step gives the bits of scipy's sparse
solve without allocating a vector per iteration.  A solve that does not
reach the residual raises :class:`ConvergenceError`.

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
dt <= 2 / (s max|diag A|).  Every invariant of a step is checked once, in
:meth:`_Stepper.advance`, for every density a solve returns, stored or not.
Positivity: values below -POSITIVITY_TOL abort the run with that bound as
the suggested dt, tinier negatives are clamped to zero.  Mass and
finiteness, after the clamp: the fluxes telescope, so every column of the
operator sums to zero and a step keeps the total up to linear-solver
roundoff; a quadrature mass off 1 by more than ``MASS_TOL``, or not finite,
raises :class:`MassDriftError` at the step that made it.  What these checks
measure over a run, with its Krylov iteration counts, is the trajectory's
``health`` (:meth:`_Stepper.health`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Sequence

import numpy as np
import scipy.linalg

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
from .tolerances import (BERNOULLI_SERIES_CUTOFF, KRYLOV_BREAKDOWN_TOL, KRYLOV_RTOL, MASS_TOL,
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
    """Checked Crank-Nicolson step (I - dt s A / 2) x = (I + dt s A / 2) rho.

    A is a face stencil: per axis a, the couplings of the interior faces in
    face shape, ``lower[a]`` = A[hi, lo] = cl and ``upper[a]`` = A[lo, hi]
    = ch, and the diagonal ``diag`` in grid shape.  :meth:`load` writes the
    coefficients of a diffusion and face drifts; the scale s rescales the
    clock (s = 1 for an operator used as loaded), and the implicit stencil of
    I - dt s A / 2 is rewritten, in place, only when the operator or s
    changes.  The implicit stencil and each right-hand side are stencils of
    one layout on every grid.  Only :meth:`_solve` depends on the dimension:
    in 1-D LAPACK's tridiagonal ``dgtsv`` reads the implicit stencil, in N-D
    the Jacobi-preconditioned BiCGSTAB of :meth:`_bicgstab` solves it.
    The work vectors are allocated once per stepper; a step returns an array
    of its own, since callers feed it back in as the next step's density.
    What its checks measure on every solve is kept for :meth:`health`.
    """

    def __init__(self, grid: Grid, dt: float):
        self.grid = grid
        self.dt = dt
        self.sides = [face_sides(a) for a in range(grid.ndim)]
        self.scale = None

        def faces():
            return [np.empty(grid.shape[:a] + (grid.shape[a] - 1,) + grid.shape[a + 1:])
                    for a in range(grid.ndim)]

        # I - c A as a stencil, the reciprocal of its diagonal, and the
        # temporaries of one product: a face term per axis, the diagonal term
        self.implicit = faces(), np.empty(grid.shape), faces()
        self.jacobi = np.empty(grid.size)
        self.face_terms = faces()
        self.diag_term = np.empty(grid.shape)
        # x, r, r~, p, v, t, p^ and s^, a product, the right-hand side
        self.vectors = np.empty((9, grid.size))
        self.solves = self.clamped_solves = 0
        self.max_mass_error, self.most_negative = 0.0, None
        self.krylov_iterations = None if grid.ndim == 1 else {"max": 0, "total": 0}

    def load(self, D: float, face_drifts: Sequence[np.ndarray]) -> None:
        """Write the operator of diffusion ``D`` and ``face_drifts`` into A.

        The flux through a face is F = cl rho_lo - ch rho_hi, with
        Chang-Cooper coefficients for D > 0 and upwinding for D = 0; so
        A[hi, lo] = cl, A[lo, hi] = ch, and each column sums to zero.
        """
        self.lower, self.upper = [], []
        self.diag = diag = np.zeros(self.grid.shape)
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
                cl = lo_c / dx
                ch = hi_c / dx
                self.lower.append(cl)
                self.upper.append(ch)
                # lo side, then hi side, per axis: this summation order fixes the
                # diagonal's rounding, and with it the bytes of every artifact
                lo, hi = self.sides[a]
                diag[lo] -= cl
                diag[hi] -= ch
        # an overflowed coefficient leaves its diagonal entries inf or NaN
        if not np.all(np.isfinite(diag)):
            raise ValueError("operator coefficients overflow: the diffusion or drift is "
                             "too large for the cell width")
        self.max_diag = float(np.max(np.abs(diag)))
        self.scale = None

    def advance(self, rho: np.ndarray, s: float, t_end: float) -> np.ndarray:
        """One step of ``rho`` ending at ``t_end``, checked for positivity,
        then for mass and finiteness."""
        if s != self.scale:
            self._rescale(s)
            self.scale = s
        out = self._solve(rho)
        neg_min = out.min()
        if neg_min < -POSITIVITY_TOL:  # a nonnegative explicit half rules this out
            raise PositivityError(
                f"positivity lost at t={t_end:.6g} "
                f"(min {neg_min:.3e}); try dt <= {2.0 / (self.max_diag * s):.3e}")
        if neg_min < 0.0:
            np.maximum(out, 0.0, out=out)
            self.clamped_solves += 1
            self.most_negative = min(self.most_negative or 0.0, float(neg_min))
        mass = quadrature(self.grid, out)
        if not abs(mass - 1.0) <= MASS_TOL:  # NaN and inf fail too
            raise MassDriftError(f"mass drift at t={t_end:.6g}: {mass!r} != 1")
        self.solves += 1
        self.max_mass_error = max(self.max_mass_error, float(abs(mass - 1.0)))
        return out

    def health(self) -> dict:
        """What the checks of every solve so far measured: the solves, the
        largest |mass - 1|, the solves clamped and their most negative value
        (None if none was), and in N-D the BiCGSTAB iterations, max and total."""
        return {"solves": self.solves, "max_mass_error": self.max_mass_error,
                "clamped_solves": self.clamped_solves, "most_negative": self.most_negative,
                "krylov_iterations": self.krylov_iterations and dict(self.krylov_iterations)}

    def _rescale(self, s):
        c = 0.5 * self.dt * s  # the implicit and the explicit half alike
        lower, diag, upper = self.implicit
        for a in range(self.grid.ndim):
            np.multiply(self.lower[a], -c, out=lower[a])
            np.multiply(self.upper[a], -c, out=upper[a])
        np.multiply(self.diag, -c, out=diag)
        diag += 1.0
        np.divide(1.0, diag.reshape(-1), out=self.jacobi)
        self.explicit = c

    def _solve(self, rho):
        b = self.vectors[-1]
        self._apply((self.lower, self.diag, self.upper), rho, b)
        b *= self.explicit
        b += rho.reshape(-1)  # c (A rho) + rho
        if self.grid.ndim > 1:
            return self._bicgstab(b, rho)
        (lower,), diag, (upper,) = self.implicit  # dgtsv copies them; advance checks x
        *_, x, info = scipy.linalg.lapack.dgtsv(lower, diag, upper, b)
        if info != 0:
            raise np.linalg.LinAlgError(f"tridiagonal solve failed (LAPACK dgtsv info={info})")
        return x

    def _apply(self, stencil, x, out):
        """``out`` = M x for the flat vector ``out``, x flat or in grid shape,
        and the stencil (lower, diag, upper) of M.  From zeros, each cell
        adds its terms in the column order of M's CSR form: the lower
        couplings of axes 0 .. d-1, the diagonal, the upper couplings of axes
        d-1 .. 0; so this is bitwise ``csr @ x``."""
        lower, diag, upper = stencil
        x = x.reshape(self.grid.shape)
        out = out.reshape(self.grid.shape)
        out.fill(0.0)
        for (lo, hi), coupling, term in zip(self.sides, lower, self.face_terms):
            np.add(out[hi], np.multiply(coupling, x[lo], out=term), out=out[hi])
        out += np.multiply(diag, x, out=self.diag_term)
        for a in reversed(range(self.grid.ndim)):
            (lo, hi), term = self.sides[a], self.face_terms[a]
            np.add(out[lo], np.multiply(upper[a], x[hi], out=term), out=out[lo])

    def _precondition(self, y, out):
        """``out`` = J y for the Jacobi reciprocal J: a product, then + 0.0,
        since a sparse diagonal product adds into zeros and so turns -0.0
        into +0.0."""
        np.multiply(self.jacobi, y, out=out)
        out += 0.0

    def _bicgstab(self, b, start):
        """Solve (I - c A) x = b in the work vector x from the density
        ``start``, and return a copy of x in its shape.

        Jacobi-preconditioned BiCGSTAB (van der Vorst, SIAM J. Sci. Stat.
        Comput. 13 (1992) 631) with the recurrences, breakdown tests and
        stopping test of scipy's ``bicgstab`` (1.17): it stops once
        ||r|| < KRYLOV_RTOL ||b||, tested at the top of each iteration and
        after the first update of r, within 10 n iterations, and raises
        :class:`ConvergenceError` otherwise.  s is r itself (the two agree
        until omega is known), and p^ and s^ share one vector, since x takes
        alpha p^ as soon as alpha is known: x's updates keep their order.
        x (a density of mass 1) and b (of the same sum) are never zero, so
        scipy's shortcuts for either never apply.  z holds p^ and then s^,
        y each product that an update subtracts or adds.
        """
        x, r, r0, p, v, t, z, y, _ = self.vectors
        np.copyto(x, start.reshape(-1))
        implicit = self.implicit
        b_norm = np.linalg.norm(b)
        atol = KRYLOV_RTOL * b_norm
        self._apply(implicit, x, y)
        np.subtract(b, y, out=r)
        np.copyto(r0, r)
        maxiter = 10 * x.size
        for k in range(maxiter):
            if np.linalg.norm(r) < atol:
                return self._converged(start, k)
            rho = np.dot(r0, r)
            if abs(rho) < KRYLOV_BREAKDOWN_TOL:
                info = -10
                break
            if k > 0:
                if abs(omega) < KRYLOV_BREAKDOWN_TOL:
                    info = -11
                    break
                beta = (rho / rho_prev) * (alpha / omega)
                p -= np.multiply(omega, v, out=y)
                p *= beta
                p += r
            else:
                np.copyto(p, r)
            self._precondition(p, z)
            self._apply(implicit, z, v)
            rv = np.dot(r0, v)
            if rv == 0:
                info = -11
                break
            alpha = rho / rv
            x += np.multiply(alpha, z, out=y)
            r -= np.multiply(alpha, v, out=y)
            if np.linalg.norm(r) < atol:
                return self._converged(start, k + 1)
            self._precondition(r, z)
            self._apply(implicit, z, t)
            omega = np.dot(t, r) / np.dot(t, t)
            x += np.multiply(omega, z, out=y)
            r -= np.multiply(omega, t, out=y)
            rho_prev = rho
        else:
            info = k = maxiter
        kind = {-10: "rho breakdown", -11: "omega breakdown"}.get(info, "iteration limit")
        raise ConvergenceError(
            f"BiCGSTAB did not reach relative residual {KRYLOV_RTOL:g}: {kind} "
            f"(info={info}) after {k} iterations, at relative residual "
            f"{np.linalg.norm(r) / b_norm:.3e}")

    def _converged(self, start, iterations):
        """A copy of the solution x in the shape of ``start``, after counting
        the ``iterations`` (begun) of its solve."""
        counts = self.krylov_iterations
        counts["max"] = max(counts["max"], iterations)
        counts["total"] += iterations
        return self.vectors[0].reshape(start.shape).copy()


@dataclass
class DensityTrajectory:
    """Densities ``values[k]`` at ``times[k]`` in one read-only array from
    :func:`.grids.march`; every step's density, stored or not, passed the
    positivity, mass and finiteness checks of the step that made it, and
    ``health`` is what those checks measured (:meth:`_Stepper.health`)."""

    grid: Grid
    times: np.ndarray
    values: np.ndarray
    health: dict = field(default_factory=dict)

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


def evolve(ham: HamiltonianSpec, gain: float | Callable[[float], float], rho0: GridDensity,
           t0: float, t1: float, dt: float, store_every: int = 1) -> DensityTrajectory:
    """Integrate the gain-modulated flow of ``ham`` from t0 to t1 with fixed dt.

    Drift -D(t) grad H / kT and diffusion 2 D(t), D(t) of :func:`clock_rate`:
    the linear equation the log-ratio feedback of ``gain`` (a number or a
    callable of t; 0 is the uncontrolled equation) produces.  The operator
    D(t) A_0 is assembled once, at the first step midpoint; each step
    rescales it by D(t_mid)/D_0.  Each step is checked by the stepper: a
    cell below -POSITIVITY_TOL raises :class:`PositivityError`, which
    suggests a dt, tinier negatives are clamped, and a mass off 1 or not
    finite raises :class:`MassDriftError`.
    """
    grid = rho0.grid
    t_ref = t0 + 0.5 * dt
    D0 = clock_rate(ham, gain, t_ref)
    stepper = _Stepper(grid, dt)
    stepper.load(D0, potential_drifts(ham, D0, energy_slopes(ham, grid)))

    def step(k, rho):
        t_end = t0 + (k + 1) * dt
        s = clock_rate(ham, gain, t0 + (k + 0.5) * dt) / D0
        return stepper.advance(rho, s, t_end)

    return DensityTrajectory(grid, *march(step, rho0.values, t0, t1, dt, store_every),
                             stepper.health())


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
