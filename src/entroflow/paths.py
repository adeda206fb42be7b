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
standard errors, and cells with fewer samples than a threshold are flagged
empty rather than trusted.

Estimation is pathwise; nothing here assumes the ensemble is Markovian.
The drift binning (:class:`IncrementBins`) and the energy sum
(:class:`EnergySum`) are chunk observers, ``add(first, t0, X)``, in the
sense of :mod:`entroflow.sde`: a streamed run feeds them while it steps, and
the estimators of a stored ensemble are one of them fed by
:func:`entroflow.sde.replay`, so both give the same bits.  One binning pass
gives both drifts: :func:`estimate_drifts` returns the pair (beta, gamma),
since each increment is the forward one of its first time and the
backward one of its second.  CSV export:
:func:`drift_field_rows` returns a header and lazy per-cell rows for
``cli.ArtifactWriter.write_csv``; this module opens no files.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .grids import Grid, GridDensity, VectorFieldGrid, gradient
from .production import floored_log
from .sde import PathEnsemble, _head, mean_and_stderr, replay, row_span

MIN_CELL_COUNT = 30


@dataclass(frozen=True)
class DriftEstimate:
    """Cell-binned conditional mean velocity with counts and standard errors.

    Cells with ``counts < min_count`` are flagged empty: their vectors are
    zero and they are excluded from norms and downstream residuals.
    """

    grid: Grid
    vectors: np.ndarray   # shape + (ndim,)
    counts: np.ndarray    # shape
    stderr: np.ndarray    # shape + (ndim,)
    min_count: int = MIN_CELL_COUNT

    @property
    def mask(self) -> np.ndarray:
        return self.counts >= self.min_count

    def field(self) -> VectorFieldGrid:
        return VectorFieldGrid(self.grid, self.vectors)

    def lookup(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-sample vectors and a validity mask (inside + populated cell)."""
        idx, inside = self.grid.cell_index(x)
        valid = inside & self.mask.reshape(-1)[idx]
        return self.vectors.reshape(-1, self.grid.ndim)[idx], valid


def _rows(A: np.ndarray, rows: np.ndarray, buf: np.ndarray) -> np.ndarray:
    """``A[rows]`` for increasing ``rows``: a view when they are consecutive,
    else gathered into the front of ``buf``."""
    span = row_span(rows)
    if isinstance(span, slice):
        return A[span]
    # mode="raise" would gather into a temporary and copy it into out
    return np.take(A, rows, axis=0, out=_head(buf, (len(rows),) + A.shape[1:]), mode="clip")


def _as_indices(t_index) -> list[int]:
    if np.isscalar(t_index):
        return [int(t_index)]
    return [int(k) for k in t_index]


class IncrementBins:
    """Forward and backward increments binned by the cell of x(t_k), pooled
    over the times k of ``pool``: a chunk observer of a path ensemble.

    One increment (x(t_k+1) - x(t_k)) / dt per step is the forward increment
    at t_k and the backward increment at t_k+1, since (a - b) / (-dt) is
    bitwise (b - a) / dt.  The pool is the set of its times: a repeated time
    is the same samples, so it counts once.  Each lag keeps one pooled count,
    sum and sum of squares per cell, 2 ndim + 1 numbers per cell whatever
    the size of the pool, and ``np.add.at`` adds a chunk's samples to them
    one by one, pooled time by pooled time, in trajectory order.  A sample
    counts for a lag only with its increment, so a pooled time without a
    step at that lag adds nothing.

    Work buffers, made by the first chunk and grown only for a larger one,
    hold the increments, their squares, gathered rows and the cells of the
    pooled times: about five arrays the size of one chunk, 1.5 MB for the
    (CHUNK + 1, NOISE_BLOCK, 1) chunks of a 1-D run, so that a chunk
    allocates nothing of its size.
    """

    def __init__(self, grid: Grid, pool, dt: float):
        self.grid, self.dt = grid, dt
        self.times = np.unique(_as_indices(pool))
        if not self.times.size:
            raise ValueError("the pool of the drift estimate names no interior time")
        # per lag, forward then backward; the last cell collects the samples outside the box
        self.counts = {lag: np.zeros(grid.size + 1, dtype=np.int64) for lag in (+1, -1)}
        self.sums = {lag: np.zeros((2, grid.ndim, grid.size + 1)) for lag in (+1, -1)}
        self._fits = (0, 0)  # the (times, trajectories) of a chunk the buffers fit

    def _work(self, n_times: int, n_traj: int) -> None:
        """Grow the work buffers to fit a chunk of n_times x n_traj states."""
        if n_times <= self._fits[0] and n_traj <= self._fits[1]:
            return
        n_times, n_traj = max(n_times, self._fits[0]), max(n_traj, self._fits[1])
        self._fits = (n_times, n_traj)
        size = n_times * n_traj * self.grid.ndim
        self._inc, self._sq, self._rows = np.empty(size), np.empty(size), np.empty(size)
        self._cells = self.grid.cell_work(n_times * n_traj)

    def add(self, first, t0, X):
        grid = self.grid
        t1 = t0 + len(X) - 1
        a, b = np.searchsorted(self.times, [t0, t1 + 1])
        if a == b:
            return
        at = self.times[a:b] - t0  # the pooled times of the chunk, as rows of X
        self._work(*X.shape[:2])
        d = np.subtract(X[1:], X[:-1], out=_head(self._inc, X[1:].shape))
        np.divide(d, self.dt, out=d)  # the increment of step t0 + i
        d2 = np.square(d, out=_head(self._sq, d.shape))
        idx, inside = grid.cell_index(_rows(X, at, self._rows), self._cells)
        np.copyto(idx, grid.size, where=np.logical_not(inside, out=inside))  # the outside cell
        for lag in self.counts:
            # the rows whose step of this lag lies in the chunk
            r0, r1 = (0, np.count_nonzero(at < t1 - t0)) if lag > 0 else \
                (np.count_nonzero(at == 0), b - a)
            if r0 == r1:
                continue
            cells = idx[r0:r1].reshape(-1)
            np.add.at(self.counts[lag], cells, 1)
            step = at[r0:r1] - (lag < 0)
            for moment, w in enumerate((d, d2)):
                w = _rows(w, step, self._rows)
                for ax in range(grid.ndim):
                    np.add.at(self.sums[lag][moment, ax], cells, w[:, :, ax].reshape(-1))

    def estimate(self, lag: int, min_count: int = MIN_CELL_COUNT) -> DriftEstimate:
        """The forward (``lag = +1``) or backward (``-1``) drift estimate of
        the cells in the box."""
        grid = self.grid
        counts = self.counts[lag][:-1].astype(float)
        sums, sq = self.sums[lag][:, :, :-1].transpose(0, 2, 1)  # each (size, ndim)
        with np.errstate(invalid="ignore", divide="ignore"):
            mean = sums / counts[:, None]
            var = np.maximum(sq / counts[:, None] - mean**2, 0.0)
            se = np.sqrt(var / counts[:, None])
        occupied = counts >= min_count
        mean[~occupied] = 0.0
        se[~occupied] = 0.0
        return DriftEstimate(grid, mean.reshape(grid.shape + (grid.ndim,)),
                             counts.reshape(grid.shape),
                             se.reshape(grid.shape + (grid.ndim,)), min_count)


def estimate_drifts(ens: PathEnsemble, t_index, grid: Grid,
                    min_count: int = MIN_CELL_COUNT) -> tuple[DriftEstimate, DriftEstimate]:
    """The forward and backward drift estimates (beta, gamma) of a stored
    ensemble, binned at the times ``t_index``: one :class:`IncrementBins`
    fed by :func:`entroflow.sde.replay`.

    ``t_index`` may be a sequence of indices, in which case samples are
    pooled across them (appropriate for stationary ensembles, where the
    drift field does not depend on t).  Every pooled index lies in
    [0, last]; a pooled time adds to each lag that has a step at it, so the
    last time adds only a backward sample and time 0 only a forward one,
    and a lag that gets no pooled time is an error.
    """
    pool = _as_indices(t_index)
    last = len(ens.times) - 1
    for k in pool:
        if not 0 <= k <= last:
            raise ValueError(f"t_index {k} lies outside the time indices [0, {last}]")
    for lone, lag in ((last, +1), (0, -1)):
        if set(pool) == {lone}:
            raise ValueError(f"t_index {lone} has no time point at lag {lag:+d}")
    bins = IncrementBins(grid, pool, ens.dt)
    replay(ens, (bins.add,))
    return bins.estimate(+1, min_count), bins.estimate(-1, min_count)


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
    g = gradient(grid, floored_log(density.values))
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
                         0.5 * np.sqrt(beta.stderr**2 + gamma.stderr**2),
                         max(beta.min_count, gamma.min_count))


@dataclass(frozen=True)
class FiniteEnergyEstimate:
    """Monte Carlo estimate of E int |beta(x(t), t)|^2 dt with its SE."""

    value: float
    stderr: float
    coverage: float  # fraction of sample points with a usable drift value


class EnergySum:
    """A chunk observer summing |beta(x(t_k))|^2 dt along each trajectory
    over the steps k of the horizon (the last time is not an integration
    point); ``drift_field`` is as in :func:`finite_energy_estimate`."""

    def __init__(self, n_traj: int, dt: float, drift_field):
        self.dt = dt
        self.drift_field = drift_field
        self.per_traj = np.zeros(n_traj)
        self.used = 0
        self.total = 0
        self._sq = np.empty(0)  # |beta|^2 of a chunk's points, grown to the largest chunk

    def add(self, first, t0, X):
        """Add the steps from X[i] to X[i + 1]; the chunks of a trajectory
        must come in time order."""
        _, n, dim = X.shape
        x = X[:-1].reshape(-1, dim)
        if self._sq.size < x.shape[0]:
            self._sq = np.empty(x.shape[0])
        s = self._sq[:x.shape[0]]
        if isinstance(self.drift_field, DriftEstimate):
            vec, valid = self.drift_field.lookup(x)
            np.einsum("mi,mi->m", vec, vec, out=s)
            np.copyto(s, 0.0, where=~valid)
            self.used += int(valid.sum())
        else:
            vec = np.asarray(self.drift_field(x), dtype=float).reshape(x.shape)
            np.einsum("mi,mi->m", vec, vec, out=s)
            self.used += x.shape[0]
        self.total += x.shape[0]
        acc = self.per_traj[first:first + n]
        for row in s.reshape(-1, n):  # in time order, one sum per step
            acc += row * self.dt

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
                <= 3.0 * (self.se_ensemble + self.se_transport))


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
