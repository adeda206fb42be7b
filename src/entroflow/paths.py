"""Forward/backward drift kinematics of sampled path ensembles.

A finite-energy diffusion admits two increment representations,

    x(t) - x(s) = int beta  dtau + sigma [w+(t) - w+(s)]   (forward drift),
    x(t) - x(s) = int gamma dtau + sigma [w-(t) - w-(s)]   (backward drift),

whose conditional means are estimated here by cell-binning:

    beta(x, t)  ~ E[(x(t+dt) - x(t))/dt | x(t) in cell],
    gamma(x, t) ~ E[(x(t) - x(t-dt))/dt | x(t) in cell].

The two drifts are tied to the one-time density by the osmotic relation
beta - gamma = sigma^2 grad log p, their average v = (beta + gamma)/2 is the
current drift, and the density transports along v in the weak sense
d/dt <phi> = <grad phi . v> for smooth test functions.  Each of these
statements has a numerical check below; estimators carry per-cell counts and
standard errors, cells with fewer than ``MIN_CELL_COUNT`` samples are flagged
empty rather than trusted, and :meth:`IncrementBins.health` reports them.

Estimation is pathwise; nothing here assumes the ensemble is Markovian.
The drift binning (:class:`IncrementBins`) and the energy sum
(:class:`EnergySum`) are chunk observers, ``add(first, t0, X)``, in the
sense of :mod:`entroflow.sde`: a streamed run feeds them while it steps, and
the estimators of a stored ensemble are one of them fed by
:func:`entroflow.sde.replay`, so both give the same bits.  The drifts pool a
:func:`entroflow.sde.time_window`, so a chunk's rows are slices.  One binning
pass gives both drifts: :func:`estimate_drifts` returns the pair (beta,
gamma), since each increment is the forward one of its first time and the
backward one of its second; their counts are the pool's one-time density,
:meth:`IncrementBins.density`, of the osmotic relation.  A sample's cell is its
:meth:`.grids.Grid.cell_index`, as in :func:`entroflow.sde.estimate_density`.
CSV export: :func:`drift_field_rows` returns a header and lazy per-cell rows
for ``cli.ArtifactWriter.write_csv``; this module opens no files.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .grids import Grid, GridDensity, VectorFieldGrid, log_gradient
from .sde import (CHUNK, NOISE_BLOCK, PathEnsemble, _head, check_coverage, mean_and_stderr,
                  replay, time_window, unit_mass)
from .tolerances import CONTINUITY_SE_FACTOR, MIN_CELL_COUNT


@dataclass(frozen=True)
class DriftEstimate:
    """Cell-binned conditional mean velocity with counts and standard errors.

    Cells with ``counts < MIN_CELL_COUNT`` are flagged empty: their vectors
    are zero and they are excluded from norms and downstream residuals.
    """

    grid: Grid
    vectors: np.ndarray   # shape + (ndim,)
    counts: np.ndarray    # shape
    stderr: np.ndarray    # shape + (ndim,)

    @property
    def mask(self) -> np.ndarray:
        return self.counts >= MIN_CELL_COUNT

    def field(self) -> VectorFieldGrid:
        return VectorFieldGrid(self.grid, self.vectors)

    def lookup(self, x: np.ndarray, work=None, out=None) -> tuple[np.ndarray, np.ndarray]:
        """Per-sample vectors and a validity mask (inside + populated cell)
        of the points ``x`` (m, ndim).  ``work`` is :meth:`.grids.Grid.cell_work`
        and ``out`` an (at least m, ndim) array, or None for fresh ones; the
        results are views of them, so caller-owned buffers make a lookup
        allocate nothing of the size of x."""
        grid = self.grid
        idx, inside = grid.cell_index(x, work)
        out = np.empty((idx.size, grid.ndim)) if out is None else out[:idx.size]
        # mode="raise" would gather into a temporary and copy it into out
        vec = np.take(self.vectors.reshape(-1, grid.ndim), idx, axis=0, out=out, mode="clip")
        # the outside points look up a last cell that is never populated
        np.copyto(idx, grid.size, where=np.logical_not(inside, out=inside))
        valid = np.take(np.append(self.mask.reshape(-1), False), idx, out=inside, mode="clip")
        return vec, valid


class IncrementBins:
    """Forward and backward increments binned by the cell of x(t_k), pooled
    over the window ``pool`` of times k: a chunk observer of a path ensemble.

    One increment (x(t_k+1) - x(t_k)) / dt per step is the forward increment
    at t_k and the backward increment at t_k+1, since (a - b) / (-dt) is
    bitwise (b - a) / dt.  Each lag keeps one pooled count, sum and sum of
    squares per cell, 2 ndim + 1 numbers per cell whatever the size of the
    pool, and ``np.add.at`` adds a chunk's samples to them one by one,
    pooled time by pooled time, in trajectory order.  A sample counts for a
    lag only with its increment, so a pooled time without a step at that
    lag adds nothing.

    Work buffers, allocated once at the chunk bound, hold the increments,
    their squares and the cells of the pooled times: about four arrays the
    size of one chunk, 1.2 MB for a 1-D run.
    """

    def __init__(self, grid: Grid, pool, dt: float):
        self.grid, self.dt = grid, dt
        self.pool = time_window(pool, np.inf)  # a streamed run may end before the pool
        if not self.pool:
            raise ValueError("the pool of the drift estimate names no interior time")
        # per lag, forward then backward; the last cell collects the samples outside the box
        self.counts = {lag: np.zeros(grid.size + 1, dtype=np.int64) for lag in (+1, -1)}
        self.sums = {lag: np.zeros((2, grid.ndim, grid.size + 1)) for lag in (+1, -1)}
        points = (CHUNK + 1) * NOISE_BLOCK
        self._inc, self._sq = (np.empty(points * grid.ndim) for _ in range(2))
        self._cells = grid.cell_work(points)

    def add(self, first, t0, X):
        grid, n = self.grid, len(X)
        r0, r1 = max(self.pool.start - t0, 0), min(self.pool.stop - t0, n)  # the pooled rows
        if r0 >= r1:
            return
        d = np.subtract(X[1:], X[:-1], out=_head(self._inc, X[1:].shape))
        np.divide(d, self.dt, out=d)  # the increment of step t0 + i
        d2 = np.square(d, out=_head(self._sq, d.shape))
        idx, inside = grid.cell_index(X[r0:r1], self._cells)
        np.copyto(idx, grid.size, where=np.logical_not(inside, out=inside))  # the outside cell
        # row r adds its forward step r unless it is the chunk's last row, and
        # its backward step r - 1 unless it is the first
        for lag, a, b in ((+1, r0, min(r1, n - 1)), (-1, max(r0, 1), r1)):
            cells = idx[a - r0:b - r0].reshape(-1)
            np.add.at(self.counts[lag], cells, 1)
            steps = slice(a - (lag < 0), b - (lag < 0))
            for moment, w in enumerate((d, d2)):
                for ax in range(grid.ndim):
                    np.add.at(self.sums[lag][moment, ax], cells, w[steps, :, ax].reshape(-1))

    def estimate(self, lag: int) -> DriftEstimate:
        """The forward (``lag = +1``) or backward (``-1``) drift estimate of
        the cells in the box."""
        grid = self.grid
        counts = self.counts[lag][:-1].astype(float)
        sums, sq = self.sums[lag][:, :, :-1].transpose(0, 2, 1)  # each (size, ndim)
        with np.errstate(invalid="ignore", divide="ignore"):
            mean = sums / counts[:, None]
            var = np.maximum(sq / counts[:, None] - mean**2, 0.0)
            se = np.sqrt(var / counts[:, None])
        occupied = counts >= MIN_CELL_COUNT
        mean[~occupied] = 0.0
        se[~occupied] = 0.0
        return DriftEstimate(grid, mean.reshape(grid.shape + (grid.ndim,)),
                             counts.reshape(grid.shape),
                             se.reshape(grid.shape + (grid.ndim,)))

    def density(self) -> GridDensity:
        """The pooled samples' one-time density: the forward lag's count per
        cell at unit mass, an unsmoothed histogram checked as
        :func:`entroflow.sde.estimate_density`'s is (the backward lag's too,
        when every pooled time is interior)."""
        counts = self.counts[+1]
        check_coverage(counts[-1] / max(int(counts.sum()), 1))  # no sample: an empty estimate
        return unit_mass(self.grid, counts[:-1].astype(float).reshape(self.grid.shape))

    def health(self, lag: int) -> dict:
        """Lag ``lag``'s samples, outside share, empty-cell share, least occupied count."""
        cells, samples = self.counts[lag][:-1], int(self.counts[lag].sum())
        occupied = cells[cells >= MIN_CELL_COUNT]
        return {"samples": samples, "outside_share": float(self.counts[lag][-1] / samples),
                "empty_cell_share": float(np.mean(cells < MIN_CELL_COUNT)),
                "min_occupied_count": int(occupied.min()) if occupied.size else None}


def estimate_drifts(ens: PathEnsemble, t_index,
                    grid: Grid) -> tuple[DriftEstimate, DriftEstimate]:
    """The forward and backward drift estimates (beta, gamma) of a stored
    ensemble, pooled over the window ``t_index`` of time indices (a
    :func:`entroflow.sde.time_window`; a window suits a stationary ensemble,
    whose drifts do not depend on t): one :class:`IncrementBins` fed by
    :func:`entroflow.sde.replay`.  A pooled time adds to each lag that has a
    step at it, so the last time adds only a backward sample and time 0 only
    a forward one, and a lag that gets no pooled time is an error."""
    pool = time_window(t_index, len(ens.times))
    last = len(ens.times) - 1
    for lone, lag in ((last, +1), (0, -1)):
        if pool == range(lone, lone + 1):
            raise ValueError(f"t_index {lone} has no time point at lag {lag:+d}")
    bins = IncrementBins(grid, pool, ens.dt)
    replay(ens, (bins.add,))
    return bins.estimate(+1), bins.estimate(-1)


def osmotic_residual(beta: DriftEstimate, gamma: DriftEstimate,
                     density: GridDensity, sigma2: float) -> float:
    """Density-and-count weighted RMS of beta - gamma - sigma2 grad log p.

    Diagnostic scalar over cells populated in both estimates; approaches the
    statistical floor as the ensemble grows.
    """
    if beta.grid != gamma.grid or beta.grid != density.grid:
        raise ValueError("estimates and density must share a grid")
    grid = beta.grid
    mask = beta.mask & gamma.mask & (density.values > 0.0)
    g = log_gradient(grid, density.values, 0.0)
    diff = beta.vectors - gamma.vectors - sigma2 * g
    w = np.where(mask, density.values * np.minimum(beta.counts, gamma.counts), 0.0)
    num = np.sum(w * np.einsum("...i,...i->...", diff, diff))
    den = np.sum(w)
    if den == 0.0:
        raise ValueError("no cell is populated in both estimates")
    return float(np.sqrt(num / den))


def current_drift(beta: DriftEstimate, gamma: DriftEstimate) -> DriftEstimate:
    """v = (beta + gamma)/2 cell-wise; counts combine as the minimum."""
    if beta.grid != gamma.grid:
        raise ValueError("estimates must share a grid")
    return DriftEstimate(beta.grid,
                         0.5 * (beta.vectors + gamma.vectors),
                         np.minimum(beta.counts, gamma.counts),
                         0.5 * np.sqrt(beta.stderr**2 + gamma.stderr**2))


@dataclass(frozen=True)
class FiniteEnergyEstimate:
    """Monte Carlo estimate of E int |beta(x(t), t)|^2 dt with its SE."""

    value: float
    stderr: float
    coverage: float  # fraction of sample points with a usable drift value


# The most bytes of points a chunk hands a drift field at once, in
# whole time rows: a field's temporaries (a drift makes two arrays the size of
# its points) then stay under glibc's default mmap threshold of 128 KiB and
# reuse freed heap blocks, where a whole chunk's (270 KB for 33 x 1024 1-D
# points) would map and fault in fresh pages on every chunk.  Four time rows
# of a 1024-trajectory block of one coordinate.
ENERGY_SLAB_BYTES = 32 * 2**10


class EnergySum:
    """A chunk observer summing |beta(x(t_k))|^2 dt along each trajectory
    over the steps k of the horizon (the last time is not an integration
    point); ``drift_field`` is as in :func:`finite_energy_estimate`.

    Either field gets a chunk's points in slabs of whole time rows of at
    most ``ENERGY_SLAB_BYTES`` (one row if a row is larger), so that no
    temporary maps a fresh array per chunk: a callable field's, or the copy
    that flattens a slab of a block narrower than ``NOISE_BLOCK``; an
    estimated field looks a slab up in work buffers of a slab's size.  Each
    trajectory adds its steps in time order."""

    def __init__(self, n_traj: int, dt: float, drift_field):
        self.dt = dt
        self.drift_field = drift_field
        self.per_traj = np.zeros(n_traj)
        self.used = 0
        self.total = 0
        points = max(NOISE_BLOCK, ENERGY_SLAB_BYTES // 8)  # one row, or a slab of float64s
        self._sq = np.empty(points)  # |beta|^2 of a slab's points
        self._lookup = isinstance(drift_field, DriftEstimate)
        if self._lookup:  # the cells and vectors of a lookup
            self._cells = drift_field.grid.cell_work(points)
            self._vec = np.empty((points, drift_field.grid.ndim))

    def add(self, first, t0, X):
        """Add the steps from X[i] to X[i + 1]; the chunks of a trajectory
        must come in time order."""
        steps, n, dim = len(X) - 1, X.shape[1], X.shape[2]
        acc = self.per_traj[first:first + n]
        rows = max(1, ENERGY_SLAB_BYTES // (n * dim * X.itemsize))
        for r in range(0, steps, rows):
            x = X[r:min(r + rows, steps)].reshape(-1, dim)
            s = self._sq[:x.shape[0]]
            if self._lookup:
                vec, valid = self.drift_field.lookup(x, self._cells, self._vec)
                np.einsum("mi,mi->m", vec, vec, out=s)
                self.used += int(np.count_nonzero(valid))
                np.copyto(s, 0.0, where=np.logical_not(valid, out=valid))
            else:
                vec = np.asarray(self.drift_field(x), dtype=float).reshape(x.shape)
                np.einsum("mi,mi->m", vec, vec, out=s)
                self.used += x.shape[0]
            for row in s.reshape(-1, n):  # in time order, one sum per step
                acc += row * self.dt
        self.total += steps * n

    def estimate(self) -> FiniteEnergyEstimate:
        if self.total == 0:
            raise ValueError("the ensemble has no step to integrate the energy over")
        value, stderr = mean_and_stderr(self.per_traj, "the finite energy")
        return FiniteEnergyEstimate(float(value), float(stderr), self.used / self.total)


def finite_energy_estimate(ens: PathEnsemble, drift_field) -> FiniteEnergyEstimate:
    """Estimate the path kinetic energy E int |beta|^2 dt over the horizon.

    ``drift_field`` is a callable ``x -> (m, dim)`` or a
    :class:`DriftEstimate` (sample points in unpopulated cells contribute
    nothing; the coverage field reports how many were usable).
    """
    energy = EnergySum(ens.n_traj, ens.dt, drift_field)
    replay(ens, (energy.add,))
    return energy.estimate()


@dataclass(frozen=True)
class ContinuityRow:
    """One test function's two sides of the weak continuity equation."""

    name: str
    ensemble_rate: float      # d/dt <phi> by central difference
    transport_rate: float     # <grad phi . v>
    se_ensemble: float
    se_transport: float

    @property
    def consistent(self) -> bool:
        return (abs(self.ensemble_rate - self.transport_rate)
                <= CONTINUITY_SE_FACTOR * (self.se_ensemble + self.se_transport))


def default_test_functions() -> list[tuple[str, Callable, Callable]]:
    """(name, phi, grad phi) triples for 1-D checks: x, x^2, cos x."""
    return [
        ("x", lambda x: x[:, 0], lambda x: np.ones_like(x)),
        ("x^2", lambda x: x[:, 0] ** 2, lambda x: 2.0 * x),
        ("cos x", lambda x: np.cos(x[:, 0]), lambda x: -np.sin(x)),
    ]


def weak_continuity_check(ens: PathEnsemble, v: DriftEstimate,
                          test_functions: Sequence[tuple[str, Callable, Callable]],
                          t_index: int) -> list[ContinuityRow]:
    """Compare d/dt <phi> against <grad phi . v> at one interior time index.

    The ensemble rate is the central difference across t_index; the
    transport rate evaluates the estimated current drift at the sample
    points (skipping unpopulated cells).  Standard errors are across
    trajectories (:func:`.sde.mean_and_stderr`); agreement within 3 SE is
    exposed per row.
    """
    if t_index < 1 or t_index > len(ens.times) - 2:
        raise ValueError("need an interior time index")
    x_prev = ens.states[:, t_index - 1, :]
    x_now = ens.states[:, t_index, :]
    x_next = ens.states[:, t_index + 1, :]
    vec, valid = v.lookup(x_now)
    n_valid = int(valid.sum())
    if n_valid < 2:  # no mean, or no standard error, of the transport rate
        raise ValueError(f"{n_valid} sample(s) at t_index {t_index} lie in populated "
                         f"cells of the drift estimate; the transport rate needs 2")
    rows = []
    for name, phi, grad_phi in test_functions:
        dphi = (np.asarray(phi(x_next)) - np.asarray(phi(x_prev))) / (2.0 * ens.dt)
        lhs, se_lhs = mean_and_stderr(dphi, f"d<{name}>/dt")
        flux = np.einsum("mi,mi->m", np.asarray(grad_phi(x_now), dtype=float), vec)
        rhs, se_rhs = mean_and_stderr(flux[valid], f"<grad {name} . v>")
        rows.append(ContinuityRow(name, float(lhs), float(rhs), float(se_lhs), float(se_rhs)))
    return rows


# ---------------------------------------------------------------------------
# CSV rows (written by cli.ArtifactWriter.write_csv)
# ---------------------------------------------------------------------------

def drift_field_rows(beta: DriftEstimate, gamma: DriftEstimate, v: DriftEstimate):
    """Header and lazy rows ``x..., beta, gamma, v, count, se``, one per cell
    (populated or not)."""
    grid = beta.grid
    dim = grid.ndim
    header = [f"x{a}" for a in range(dim)]
    for fieldname in ("beta", "gamma", "v"):
        header += [fieldname] if dim == 1 else [f"{fieldname}{a}" for a in range(dim)]
    header += ["count", "se"]
    pts = grid.points()
    b = beta.vectors.reshape(-1, dim)
    g = gamma.vectors.reshape(-1, dim)
    cur = v.vectors.reshape(-1, dim)
    counts = v.counts.reshape(-1)
    se = np.linalg.norm(v.stderr.reshape(-1, dim), axis=1)
    rows = ((*pts[i], *b[i], *g[i], *cur[i], counts[i], se[i]) for i in range(grid.size))
    return header, rows
