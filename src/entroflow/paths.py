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
CSV export: :func:`drift_field_rows` returns a header and lazy per-cell rows
for ``cli.ArtifactWriter.write_csv``; this module opens no files.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .grids import Grid, GridDensity, VectorFieldGrid, gradient
from .production import floored_log
from .sde import PathEnsemble

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


def _as_indices(t_index) -> list[int]:
    if np.isscalar(t_index):
        return [int(t_index)]
    return [int(k) for k in t_index]


def _binned_drift(ens: PathEnsemble, t_index, grid: Grid, min_count: int,
                  lag: int) -> DriftEstimate:
    """Bin the increments (x(t + lag dt) - x(t)) / (lag dt) by the cell of x(t)."""
    counts = np.zeros(grid.size)
    sums = np.zeros((grid.size, grid.ndim))
    sq = np.zeros((grid.size, grid.ndim))
    for k in _as_indices(t_index):
        if not (0 <= k < len(ens.times) and 0 <= k + lag < len(ens.times)):
            raise ValueError(f"t_index {k} has no time point at lag {lag:+d}")
        x = ens.states[:, k, :]
        dx = (ens.states[:, k + lag, :] - x) / (lag * ens.dt)
        idx, inside = grid.cell_index(x)
        idx = idx[inside]
        counts += np.bincount(idx, minlength=grid.size)
        for a in range(grid.ndim):
            sums[:, a] += np.bincount(idx, weights=dx[inside, a], minlength=grid.size)
            sq[:, a] += np.bincount(idx, weights=dx[inside, a] ** 2, minlength=grid.size)
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


def estimate_forward_drift(ens: PathEnsemble, t_index, grid: Grid,
                           min_count: int = MIN_CELL_COUNT) -> DriftEstimate:
    """Conditional mean of the forward increment, binned at time t.

    ``t_index`` may be a sequence of indices, in which case samples are
    pooled across them (appropriate for stationary ensembles, where the
    drift field does not depend on t).
    """
    return _binned_drift(ens, t_index, grid, min_count, +1)


def estimate_backward_drift(ens: PathEnsemble, t_index, grid: Grid,
                            min_count: int = MIN_CELL_COUNT) -> DriftEstimate:
    """Conditional mean of the backward increment, binned at time t.

    Accepts a sequence of indices for pooling, like
    :func:`estimate_forward_drift`.
    """
    return _binned_drift(ens, t_index, grid, min_count, -1)


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


def finite_energy_estimate(ens: PathEnsemble, drift_field) -> FiniteEnergyEstimate:
    """Estimate the path kinetic energy E int |beta|^2 dt over the horizon.

    ``drift_field`` is a callable ``x -> (m, dim)`` or a
    :class:`DriftEstimate` (sample points in unpopulated cells contribute
    nothing; the coverage field reports how many were usable).
    """
    n, T, dim = ens.states.shape
    per_traj = np.zeros(n)
    used = 0
    total = 0
    for k in range(T - 1):
        x = ens.states[:, k, :]
        if isinstance(drift_field, DriftEstimate):
            vec, valid = drift_field.lookup(x)
            s = np.where(valid, np.einsum("mi,mi->m", vec, vec), 0.0)
            used += int(valid.sum())
        else:
            vec = np.asarray(drift_field(x), dtype=float).reshape(n, dim)
            s = np.einsum("mi,mi->m", vec, vec)
            used += n
        total += n
        per_traj += s * ens.dt
    value = float(per_traj.mean())
    stderr = float(per_traj.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0
    return FiniteEnergyEstimate(value, stderr, used / total)


@dataclass(frozen=True)
class ContinuityRow:
    """One test function's two sides of the weak continuity equation."""

    name: str
    ensemble_rate: float      # d/dt <phi> by central difference
    transport_rate: float     # <grad phi . v>
    se_ensemble: float
    se_transport: float

    @property
    def discrepancy(self) -> float:
        scale = max(abs(self.ensemble_rate), abs(self.transport_rate), 1e-12)
        return abs(self.ensemble_rate - self.transport_rate) / scale

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
    trajectories; agreement within 3 SE is exposed per row.
    """
    if t_index < 1 or t_index > len(ens.times) - 2:
        raise ValueError("need an interior time index")
    n = ens.n_traj
    x_prev = ens.states[:, t_index - 1, :]
    x_now = ens.states[:, t_index, :]
    x_next = ens.states[:, t_index + 1, :]
    vec, valid = v.lookup(x_now)
    rows = []
    for name, phi, grad_phi in test_functions:
        dphi = (np.asarray(phi(x_next)) - np.asarray(phi(x_prev))) / (2.0 * ens.dt)
        lhs = float(dphi.mean())
        se_lhs = float(dphi.std(ddof=1) / np.sqrt(n))
        flux = np.einsum("mi,mi->m", np.asarray(grad_phi(x_now), dtype=float), vec)
        flux = flux[valid]
        rhs = float(flux.mean())
        se_rhs = float(flux.std(ddof=1) / np.sqrt(flux.size))
        rows.append(ContinuityRow(name, lhs, rhs, se_lhs, se_rhs))
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
