"""Uniform rectangular grids and the fields sampled on them.

Everything downstream (quadrature, discrete gradients, the finite-volume
solver) shares the conventions fixed here:

* cells are uniform boxes; values live at cell centers,
* integrals are midpoint sums  sum(values) * cell_volume,
* the discrete gradient is the second-order central difference in the
  interior and the second-order one-sided difference on the boundary.

Grids are rectangular and uniform by construction; non-uniform spacings are
rejected at the type level (there is no way to build one).  Since a box is
not all of R^n, :func:`boundary_certificate` tells, from a density alone,
whether the box cuts its support.

Time grids too: :func:`time_steps` counts the steps of a horizon, by the
slack :func:`time_slack` that every time naming a grid time reads, and
:func:`march` steps every deterministic evolution (grid solvers and the
Lindblad semigroup) into one read-only stack; its callers check the states.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .tolerances import BOUNDARY_DECAY_FACTOR, MASS_TOL, TIME_GRID_RTOL


class GridMismatchError(ValueError):
    """Two fields that must share a grid do not."""


class NumericalFailure(RuntimeError):
    """A computation on valid input failed numerically (exit code 3); every
    solver, integrator and self-check failure derives from it."""


@dataclass(frozen=True)
class Grid:
    """Axis-aligned box divided into uniform cells.

    lo, hi : per-dimension bounds (state units)
    cells  : per-dimension cell counts, each >= 2

    ``dx``, ``cell_volume`` and ``centers()`` are computed once per grid and
    read-only; equality and hashing use the three fields only.
    """

    lo: tuple[float, ...]
    hi: tuple[float, ...]
    cells: tuple[int, ...]

    def __post_init__(self):
        lo = tuple(float(v) for v in np.atleast_1d(self.lo))
        hi = tuple(float(v) for v in np.atleast_1d(self.hi))
        cells = tuple(int(v) for v in np.atleast_1d(self.cells))
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "cells", cells)
        if not (len(lo) == len(hi) == len(cells)):
            raise ValueError("lo, hi, cells must have equal length")
        if len(lo) < 1:
            raise ValueError("grid dimension must be >= 1")
        if any(h <= l for l, h in zip(lo, hi)):
            raise ValueError("upper bound must exceed lower bound")
        if not all(np.isfinite(h - l) for l, h in zip(lo, hi)):  # NaN, inf or overflow
            raise ValueError(f"grid bounds lo = {lo}, hi = {hi} give no finite cell width")
        if any(c < 2 for c in cells):
            raise ValueError("need at least 2 cells per dimension")
        if not self.cell_volume * sys.float_info.max >= 1.0:  # then 1 / volume overflows
            raise ValueError(f"cells of volume {self.cell_volume:.3g} are too small: "
                             "a unit-mass density on them overflows")

    @property
    def ndim(self) -> int:
        return len(self.cells)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.cells

    @cached_property
    def dx(self) -> np.ndarray:
        dx = (np.asarray(self.hi) - np.asarray(self.lo)) / np.asarray(self.cells)
        dx.flags.writeable = False
        return dx

    @cached_property
    def cell_volume(self) -> float:
        return float(np.prod(self.dx))

    @property
    def size(self) -> int:
        return int(np.prod(self.cells))

    def axis_centers(self, axis: int) -> np.ndarray:
        """Cell-center coordinates along one axis."""
        d = self.dx[axis]
        return self.lo[axis] + d * (np.arange(self.cells[axis]) + 0.5)

    def centers(self) -> np.ndarray:
        """Cell-center coordinates, shape ``shape + (ndim,)``."""
        return self._centers

    @cached_property
    def _centers(self) -> np.ndarray:
        axes = [self.axis_centers(a) for a in range(self.ndim)]
        x = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
        x.flags.writeable = False
        return x

    def points(self) -> np.ndarray:
        """Cell centers flattened to ``(size, ndim)`` in C order."""
        return self.centers().reshape(-1, self.ndim)

    def boundary_mask(self) -> np.ndarray:
        """Boolean array, True on cells touching the box boundary."""
        mask = np.ones(self.shape, dtype=bool)
        mask[(slice(1, -1),) * self.ndim] = False
        return mask

    def cell_index(self, x: np.ndarray, work=None) -> tuple[np.ndarray, np.ndarray]:
        """Map points ``(..., ndim)`` to flat cell indices of shape ``x.shape[:-1]``.

        Returns (flat_index, inside) where ``inside`` marks points within the
        box; indices of outside points are clipped and must be masked by the
        caller.  ``work`` is :meth:`cell_work` for at least as many points,
        or None for fresh buffers; the results are views of it, so a call
        with caller-owned ``work`` allocates nothing of the size of x.
        """
        x = np.atleast_2d(x)
        lead = x.shape[:-1]
        m = int(np.prod(lead))
        u, ij, low, high, inside = self.cell_work(m) if work is None else work
        # axis-major (ndim, ...): each operation loops over the points, not the axes
        u, ij, low, high = (a[:, :m].reshape((self.ndim,) + lead) for a in (u, ij, low, high))
        inside = inside[:m].reshape(lead)
        col = (self.ndim,) + (1,) * len(lead)
        cells = np.reshape(self.cells, col)
        np.subtract(np.moveaxis(x, -1, 0), np.reshape(self.lo, col), out=u)
        np.divide(u, self.dx.reshape(col), out=u)
        np.copyto(ij, np.floor(u, out=u), casting="unsafe")
        np.greater_equal(ij, 0, out=low)
        np.less(ij, cells, out=high)
        np.logical_and.reduce(np.logical_and(low, high, out=low), axis=0, out=inside)
        np.clip(ij, 0, cells - 1, out=ij)
        flat = ij[0]
        for a in range(1, self.ndim):  # C order, as np.ravel_multi_index
            flat *= self.cells[a]
            flat += ij[a]
        return flat, inside

    def cell_work(self, m: int) -> tuple[np.ndarray, ...]:
        """The buffers :meth:`cell_index` uses for up to ``m`` points: a
        float and an int array of shape (ndim, m), and three bool ones."""
        shape = (self.ndim, m)
        return (np.empty(shape), np.empty(shape, dtype=np.intp), np.empty(shape, dtype=bool),
                np.empty(shape, dtype=bool), np.empty(m, dtype=bool))


def face_sides(axis: int) -> tuple[tuple, tuple]:
    """Index tuples (lo, hi) of the cells below and above each interior face.

    ``values[lo]`` and ``values[hi]`` have the interior-face shape along
    ``axis``; the axes after it are taken whole.
    """
    head = (slice(None),) * axis
    return head + (slice(None, -1),), head + (slice(1, None),)


def time_slack(t: float) -> float:
    """``TIME_GRID_RTOL * max(1, |t|)``: how near a grid time t names it."""
    return TIME_GRID_RTOL * max(1.0, abs(t))


def time_steps(t0: float, t1: float, dt: float) -> int:
    """Number of steps of size dt from t0 to t1.

    Rejects a dt that is not positive and a horizon that is not a finite
    positive multiple of dt (nothing is rounded away silently).
    """
    if not dt > 0.0:
        raise ValueError("dt must be positive")
    ratio = (t1 - t0) / dt
    if not np.isfinite(ratio):
        raise ValueError("the horizon must be finite")
    n = int(round(ratio))
    if n < 1 or abs(t0 + n * dt - t1) > time_slack(t1):
        raise ValueError("(t1 - t0) must be a positive multiple of dt")
    return n


def march(step: Callable[[int, np.ndarray], np.ndarray], x0: np.ndarray, t0: float,
          t1: float, dt: float, store_every: int) -> tuple[np.ndarray, np.ndarray]:
    """Apply ``step(k, x) -> x`` for k = 0 .. n-1 from ``x0`` at t0, with
    n = ``time_steps(t0, t1, dt)``: step k ends at t0 + (k+1) dt.  Returns
    ``(times, stack)`` of ``x0``, every ``store_every``-th state and the last
    in one preallocated read-only array.
    """
    if not (isinstance(store_every, (int, np.integer)) and store_every >= 1):
        raise ValueError(f"store_every must be an integer >= 1, got {store_every!r}")
    n_steps = time_steps(t0, t1, dt)
    x = np.array(x0)
    n_stored = -(-n_steps // store_every) + 1
    times = np.empty(n_stored)
    stack = np.empty((n_stored,) + x.shape, dtype=x.dtype)
    times[0], stack[0] = t0, x
    j = 0
    for k in range(n_steps):
        x = step(k, x)
        if (k + 1) % store_every == 0 or k == n_steps - 1:
            j += 1
            times[j], stack[j] = t0 + (k + 1) * dt, x
    stack.flags.writeable = False
    return times, stack


def quadrature(grid: Grid, values: np.ndarray) -> float:
    """Midpoint-rule integral of a sampled scalar field."""
    return float(np.sum(values) * grid.cell_volume)


def density_mean(grid: Grid, values: np.ndarray) -> np.ndarray:
    """Mean of the sampled probability density ``values``."""
    w = values[..., np.newaxis]
    return np.sum(grid.centers() * w, axis=tuple(range(grid.ndim))) * grid.cell_volume


def density_covariance(grid: Grid, values: np.ndarray) -> np.ndarray:
    """Covariance of the sampled probability density ``values``."""
    d = grid.centers() - density_mean(grid, values)
    w = values[..., np.newaxis, np.newaxis]
    outer = d[..., :, np.newaxis] * d[..., np.newaxis, :]
    return np.sum(outer * w, axis=tuple(range(grid.ndim))) * grid.cell_volume


def boundary_certificate(grid: Grid, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(ratio, suspect) of a density ``values`` on ``grid``, or of each row of
    a stack of them (leading axes): the largest boundary value over the peak,
    and whether it reaches BOUNDARY_DECAY_FACTOR.

    Rate formulas integrate by parts over all of R^n; on a box they hold when
    the boundary terms vanish, so a suspect density (the box cuts its
    support) carries boundary-term bias into every rate it enters.
    """
    lead = values.shape[:values.ndim - grid.ndim]
    flat = values.reshape(lead + (-1,))
    ratio = flat[..., grid.boundary_mask().ravel()].max(axis=-1) / flat.max(axis=-1)
    return ratio, ratio >= BOUNDARY_DECAY_FACTOR


def gradient(grid: Grid, values: np.ndarray) -> np.ndarray:
    """Discrete gradient, shape ``grid.shape + (ndim,)``.

    Central differences in the interior, second-order one-sided at the
    boundary (exact for quadratics, so Gaussian log-densities differentiate
    exactly), so each axis needs 3 cells.
    """
    for axis, n in enumerate(grid.cells):
        if n < 3:
            raise ValueError(f"a gradient needs 3 cells along each axis; "
                             f"axis {axis} of the grid has {n}")
    spacings = [float(d) for d in grid.dx]
    if grid.ndim == 1:
        g = np.gradient(values, spacings[0], edge_order=2)
        return g[..., np.newaxis]
    parts = np.gradient(values, *spacings, edge_order=2)
    return np.stack(parts, axis=-1)


class GridDensity:
    """Nonnegative sampled probability density on a grid.

    The quadrature mass must be 1 to within ``MASS_TOL``.  Instances are
    immutable once built.
    """

    def __init__(self, grid: Grid, values: np.ndarray):
        values = np.asarray(values, dtype=float)
        if values.shape != grid.shape:
            raise ValueError(f"values shape {values.shape} != grid shape {grid.shape}")
        if not np.all(np.isfinite(values)):
            raise ValueError("density values must be finite")
        if np.any(values < 0.0):
            raise ValueError("density values must be nonnegative")
        got = quadrature(grid, values)
        if abs(got - 1.0) > MASS_TOL:
            raise ValueError(f"quadrature mass {got!r} != 1")
        self.grid = grid
        self.values = values.copy()
        self.values.flags.writeable = False

    @cached_property
    def boundary_suspect(self) -> bool:
        """Whether the box cuts the support, by :func:`boundary_certificate`."""
        return bool(boundary_certificate(self.grid, self.values)[1])

    def integrate(self) -> float:
        return quadrature(self.grid, self.values)

    def mean(self) -> np.ndarray:
        return density_mean(self.grid, self.values)

    def covariance(self) -> np.ndarray:
        return density_covariance(self.grid, self.values)

    def __eq__(self, other) -> bool:
        return (isinstance(other, GridDensity) and self.grid == other.grid
                and np.array_equal(self.values, other.values))


class VectorFieldGrid:
    """One vector per cell (state/time units); shape ``grid.shape + (ndim,)``."""

    def __init__(self, grid: Grid, vectors: np.ndarray):
        vectors = np.asarray(vectors, dtype=float)
        if vectors.shape != grid.shape + (grid.ndim,):
            raise ValueError(
                f"vectors shape {vectors.shape} != {grid.shape + (grid.ndim,)}")
        if not np.all(np.isfinite(vectors)):
            raise ValueError("vector field entries must be finite")
        self.grid = grid
        self.vectors = vectors.copy()
        self.vectors.flags.writeable = False

    @classmethod
    def zero(cls, grid: Grid) -> "VectorFieldGrid":
        return cls(grid, np.zeros(grid.shape + (grid.ndim,)))

    @classmethod
    def from_callable(cls, grid: Grid, f) -> "VectorFieldGrid":
        """Sample ``f(points) -> (m, ndim)`` at cell centers."""
        vals = np.asarray(f(grid.points()), dtype=float)
        return cls(grid, vals.reshape(grid.shape + (grid.ndim,)))


def require_same_grid(*fields) -> Grid:
    grid = fields[0].grid
    for f in fields[1:]:
        if f.grid != grid:
            raise GridMismatchError("fields live on different grids")
    return grid
