"""Monte Carlo path ensembles for the controlled diffusions.

Two integrators:

* :func:`simulate_overdamped` - Euler-Maruyama for
  dx = [-(sigma2 / 2 kT) grad H + u] dt + sigma dW;
* :func:`simulate_polymer` - semi-implicit (symplectic) Euler for the
  underdamped block dynamics

      dq = (p/m) dt,
      dp = [-grad phi(q) - gamma V - alpha_c V] dt + Gamma dW,   V = p/m,

  where noise and friction act on momenta only (singular diffusion) and the
  velocity feedback -alpha_c V cools the kinetic temperature below the
  thermostat value.

Noise streams are counter-based (Philox) and keyed by (seed, block) for
blocks of 1024 trajectories: the ensemble is bit-reproducible for a given
seed, trajectory i depends only on (seed, i, step count), and blocks can be
produced in parallel without changing the result.  Both integrators are
per-step rules of one loop, :func:`_march_paths`, which owns the noise and
the escape check: a state that leaves the escape radius or is not finite
raises :class:`TrajectoryDivergence` with the time and trajectory index.

Post-processing: kernel density estimates onto solver grids (histogram +
Gaussian smoothing, Scott bandwidth) and equipartition kinetic temperatures
with per-trajectory standard errors.  CSV export: :func:`ensemble_rows` and
:func:`ensemble_summary` return a header and lazy rows, which
``cli.ArtifactWriter.write_csv`` formats and writes; this module opens no
files.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.random import Generator, Philox
from scipy.ndimage import gaussian_filter

from .grids import Grid, GridDensity, time_steps
from .thermo import HamiltonianSpec

NOISE_BLOCK = 1024


class TrajectoryDivergence(RuntimeError):
    """A sample path left the escape radius."""


@dataclass(frozen=True)
class PathEnsemble:
    """N sampled trajectories on a shared uniform time grid.

    states has shape (n_traj, n_times, dim); times[k] = t0 + k dt.
    """

    times: np.ndarray
    states: np.ndarray
    dt: float
    seed: int

    def __post_init__(self):
        states = np.asarray(self.states, dtype=float)
        times = np.asarray(self.times, dtype=float)
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "times", times)
        if states.ndim != 3 or states.shape[0] < 1:
            raise ValueError("states must be (n_traj >= 1, n_times, dim)")
        if times.shape != (states.shape[1],):
            raise ValueError("times incompatible with states")
        if times.size > 1 and not np.allclose(np.diff(times), self.dt, rtol=1e-9):
            raise ValueError("time grid must be uniform with step dt")
        # min and max propagate NaN, so no elementwise temporary is needed
        if states.size and not (np.isfinite(states.min()) and np.isfinite(states.max())):
            raise ValueError("ensemble states must be finite")

    @property
    def n_traj(self) -> int:
        return self.states.shape[0]

    @property
    def dim(self) -> int:
        return self.states.shape[2]

    def index_of(self, t: float) -> int:
        return int(np.argmin(np.abs(self.times - t)))


def _block_rng(seed: int, block: int) -> Generator:
    return Generator(Philox(key=np.array([seed, block], dtype=np.uint64)))


def _resolve_x0(x0, rng: Generator, size: int, dim: int) -> np.ndarray:
    if callable(x0):
        out = np.asarray(x0(rng, size), dtype=float)
        return out.reshape(size, dim)
    arr = np.asarray(x0, dtype=float)
    if arr.ndim == 0:
        return np.full((size, dim), float(arr))
    return np.broadcast_to(arr.reshape(1, dim), (size, dim)).copy()


def _march_paths(start, step, n_traj: int, dim: int, noise_dim: int, dt: float,
                 t1: float, seed: int, escape_radius: float | None) -> PathEnsemble:
    """The one loop over noise blocks and time steps of every path ensemble.

    Each block's stream draws ``start(rng) -> (NOISE_BLOCK, dim)``, then
    ``(NOISE_BLOCK, steps, noise_dim)`` noise; ``step(k, y, dW)`` maps the
    states at t_k to t_k+1.  Non-finite initial states are invalid input;
    the default escape radius is 50x the spread of the first block's
    initial states (floor 1).
    """
    steps = time_steps(0.0, t1, dt)
    times = dt * np.arange(steps + 1)
    states = np.empty((n_traj, steps + 1, dim))
    radius = escape_radius
    for first in range(0, n_traj, NOISE_BLOCK):
        nb = min(NOISE_BLOCK, n_traj - first)
        rng = _block_rng(seed, first // NOISE_BLOCK)
        y = start(rng)[:nb]
        if not np.all(np.isfinite(y)):
            raise ValueError("initial states must be finite")
        noise = rng.standard_normal((NOISE_BLOCK, steps, noise_dim))[:nb]
        if radius is None:
            radius = 50.0 * max(1.0, float(np.std(y)))
        block = states[first:first + nb]
        block[:, 0] = y
        for k in range(steps):
            y = step(k, y, noise[:, k])
            worst = np.max(np.abs(y))
            if not worst <= radius:  # NaN fails too
                bad = first + int(np.argmax(np.max(np.abs(y), axis=1)))
                raise TrajectoryDivergence(
                    f"trajectory divergence: |state| = {worst:.3g} > {radius:.3g} "
                    f"at t = {times[k + 1]:.6g}, trajectory index {bad}")
            block[:, k + 1] = y
    return PathEnsemble(times, states, dt, seed)


def simulate_overdamped(ham: HamiltonianSpec, u, x0, n_traj: int, dt: float,
                        t1: float, seed: int,
                        escape_radius: float | None = None,
                        sigma: float | None = None) -> PathEnsemble:
    """Euler-Maruyama ensemble of dx = [drift + u] dt + sigma dW.

    ``u`` is None or a callable ``(x, t) -> (m, dim)``; ``x0`` is a callable
    ``(rng, size) -> (size, dim)``, an array, or a scalar.  The escape radius
    defaults to 50x the spread of the initial samples (floor 1); crossing it
    aborts with the offending trajectory index.  ``sigma`` overrides the
    noise amplitude only (``sigma=0`` gives the noise-free ODE limit while
    keeping the model drift).
    """
    dim = ham.dim
    if sigma is None:
        sigma = np.sqrt(ham.sigma2)
    root_dt = np.sqrt(dt)

    def step(k, x, dW):
        f = ham.drift(x)
        if u is not None:
            f = f + np.asarray(u(x, k * dt), dtype=float).reshape(x.shape)
        return x + f * dt + sigma * root_dt * dW

    return _march_paths(lambda rng: _resolve_x0(x0, rng, NOISE_BLOCK, dim), step,
                        n_traj, dim, dim, dt, t1, seed, escape_radius)


# ---------------------------------------------------------------------------
# underdamped polymer / cantilever model with velocity feedback
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PolymerSpec:
    """Block-structured underdamped model with velocity-feedback cooling.

    masses       : one mass per block (k = 1..n_blocks)
    block_dim    : coordinates per block (3 for spatial beads, 1 for a
                   scalar cantilever mode)
    potential    : phi(q) -> (m,) on q of shape (m, n_blocks*block_dim)
    grad_potential : grad phi(q) -> (m, n_blocks*block_dim)
    gamma        : friction coefficient (force = -gamma V)
    control_gain : feedback gain alpha_c >= 0 (force = -alpha_c V)
    temperature  : thermostat temperature T (k_B = 1 units)
    noise_matrix : optional Gamma acting on momenta; defaults to
                   sqrt(2 gamma T) I and must satisfy the fluctuation-
                   dissipation relation Gamma Gamma^T = 2 gamma T I of the
                   uncontrolled model to 1e-12.
    """

    masses: np.ndarray
    potential: Callable[[np.ndarray], np.ndarray]
    grad_potential: Callable[[np.ndarray], np.ndarray]
    gamma: float
    control_gain: float
    temperature: float
    block_dim: int = 3
    noise_matrix: np.ndarray | None = None

    def __post_init__(self):
        masses = np.atleast_1d(np.asarray(self.masses, dtype=float))
        object.__setattr__(self, "masses", masses)
        if not np.all((0.0 < masses) & (masses < np.inf)):  # NaN fails too
            raise ValueError("masses must be finite and positive")
        if not (0.0 <= self.gamma < np.inf and 0.0 <= self.control_gain < np.inf):
            raise ValueError("gamma and control_gain must be finite and nonnegative")
        if not 0.0 < self.temperature < np.inf:
            raise ValueError("temperature must be finite and positive")
        if self.block_dim < 1:
            raise ValueError("block_dim must be >= 1")
        n = self.n_coords
        if self.noise_matrix is None:
            object.__setattr__(self, "noise_matrix",
                               np.sqrt(2.0 * self.gamma * self.temperature) * np.eye(n))
        else:
            G = np.atleast_2d(np.asarray(self.noise_matrix, dtype=float))
            object.__setattr__(self, "noise_matrix", G)
            target = 2.0 * self.gamma * self.temperature * np.eye(n)
            if G.shape != (n, n) or np.max(np.abs(G @ G.T - target)) > 1e-12:
                raise ValueError(
                    "noise matrix violates fluctuation-dissipation: "
                    "Gamma Gamma^T != 2 gamma T I")

    @property
    def n_blocks(self) -> int:
        return self.masses.size

    @property
    def n_coords(self) -> int:
        return self.n_blocks * self.block_dim

    @property
    def mass_per_coord(self) -> np.ndarray:
        return np.repeat(self.masses, self.block_dim)

    def energy(self, q: np.ndarray, p: np.ndarray) -> np.ndarray:
        kin = 0.5 * np.sum(p**2 / self.mass_per_coord, axis=-1)
        return kin + np.asarray(self.potential(q), dtype=float)


def harmonic_cantilever(spring_k: float, mass: float = 1.0, gamma: float = 1.0,
                        control_gain: float = 0.0, temperature: float = 1.0
                        ) -> PolymerSpec:
    """Single scalar mode with phi(q) = K q^2 / 2 (the AFM cantilever)."""
    return PolymerSpec(
        masses=[mass],
        potential=lambda q: 0.5 * spring_k * np.sum(np.atleast_2d(q)**2, axis=-1),
        grad_potential=lambda q: spring_k * np.atleast_2d(q),
        gamma=gamma, control_gain=control_gain, temperature=temperature,
        block_dim=1)


def simulate_polymer(spec: PolymerSpec, n_traj: int, dt: float, t1: float,
                     seed: int, q0=0.0, p0=0.0,
                     escape_radius: float | None = None) -> PathEnsemble:
    """Symplectic-Euler ensemble; state layout per trajectory is [q, p].

    Momenta are updated first with the potential, friction and feedback
    forces plus Gamma-noise; positions then move with the new momenta and
    carry no noise (singular diffusion).
    """
    nc = spec.n_coords
    m = spec.mass_per_coord
    G = spec.noise_matrix
    drag = spec.gamma + spec.control_gain
    if escape_radius is None:
        escape_radius = 50.0 * max(1.0, np.sqrt(spec.temperature / np.min(spec.masses)),
                                   np.sqrt(spec.temperature))
    root_dt = np.sqrt(dt)
    noisy = np.any(G != 0.0)

    def start(rng):
        q = _resolve_x0(q0, rng, NOISE_BLOCK, nc)
        p = _resolve_x0(p0, rng, NOISE_BLOCK, nc)
        return np.concatenate([q, p], axis=1)

    def step(k, y, dW):
        q, p = y[:, :nc], y[:, nc:]
        force = -np.asarray(spec.grad_potential(q), dtype=float).reshape(q.shape)
        p = p + dt * (force - drag * (p / m))
        if noisy:
            p = p + root_dt * dW @ G.T
        return np.concatenate([q + dt * (p / m), p], axis=1)

    return _march_paths(start, step, n_traj, 2 * nc, nc if noisy else 0, dt, t1, seed,
                        escape_radius)


def polymer_momenta(ens: PathEnsemble, spec: PolymerSpec) -> np.ndarray:
    return ens.states[:, :, spec.n_coords:]


def _block_mv2(p: np.ndarray, spec: PolymerSpec) -> np.ndarray:
    """m V^2 per coordinate of momenta ``p``, shape p.shape[:-1] + (n_blocks, block_dim)."""
    m = spec.mass_per_coord
    return ((p / m) ** 2 * m).reshape(p.shape[:-1] + (spec.n_blocks, spec.block_dim))


@dataclass(frozen=True)
class KineticTemperature:
    """Per-block equipartition temperature m_k <V_k^2> / (d k_B)."""

    values: np.ndarray   # (n_blocks,)
    stderr: np.ndarray   # (n_blocks,)
    window: tuple[float, float]


def kinetic_temperature(ens: PathEnsemble, spec: PolymerSpec,
                        window: tuple[float, float]) -> KineticTemperature:
    """Time-and-ensemble averaged kinetic temperature over a time window.

    The standard error is taken across trajectories (independent streams),
    each contributing its own window average.
    """
    lo, hi = window
    if not ens.times[0] - 1e-12 <= lo < hi <= ens.times[-1] + 1e-12:  # NaN fails too
        raise ValueError("window outside ensemble horizon")
    sel = (ens.times >= lo) & (ens.times <= hi)
    per_block = _block_mv2(polymer_momenta(ens, spec)[:, sel, :], spec)
    # window average per trajectory and block, then ensemble statistics
    traj_vals = per_block.mean(axis=(1, 3))  # (n_traj, n_blocks)
    values = traj_vals.mean(axis=0)
    stderr = traj_vals.std(axis=0, ddof=1) / np.sqrt(ens.n_traj) if ens.n_traj > 1 \
        else np.zeros(spec.n_blocks)
    return KineticTemperature(values, stderr, (lo, hi))


# ---------------------------------------------------------------------------
# density estimation and moments
# ---------------------------------------------------------------------------

def scott_bandwidth(samples: np.ndarray) -> np.ndarray:
    """Per-dimension Scott rule (4/(d+2))^(1/(d+4)) n^(-1/(d+4)) std_j."""
    n, d = samples.shape
    factor = (4.0 / (d + 2.0)) ** (1.0 / (d + 4.0)) * n ** (-1.0 / (d + 4.0))
    return factor * samples.std(axis=0, ddof=1 if n > 1 else 0)


def estimate_density(ens: PathEnsemble, t_index: int, grid: Grid,
                     bandwidth="auto") -> GridDensity:
    """Gaussian-kernel density estimate of the time slice on a grid.

    Histogram-then-smooth implementation (binning error is O(dx^2/bw^2),
    negligible against the kernel itself); the result is renormalized to
    quadrature mass 1.  Fails if more than 0.1% of the samples fall outside
    the grid box.
    """
    x = ens.states[:, t_index, :]
    if x.shape[1] != grid.ndim:
        raise ValueError("ensemble dimension != grid dimension")
    _, inside = grid.cell_index(x)
    escaped = 1.0 - inside.mean()
    if escaped > 1e-3:
        raise ValueError(f"grid does not cover ensemble: escaped fraction {escaped:.3e}")
    if isinstance(bandwidth, str):
        if bandwidth != "auto":
            raise ValueError("bandwidth must be 'auto' or positive number(s)")
        bw = scott_bandwidth(x)
    else:
        bw = np.broadcast_to(np.asarray(bandwidth, dtype=float), (grid.ndim,))
    if np.any(bw < 0.0):
        raise ValueError("bandwidth must be nonnegative")
    edges = [np.linspace(grid.lo[a], grid.hi[a], grid.cells[a] + 1)
             for a in range(grid.ndim)]
    counts, _ = np.histogramdd(x[inside], bins=edges)
    smoothed = gaussian_filter(counts, sigma=tuple(bw / grid.dx),
                               mode="constant", truncate=6.0)
    total = smoothed.sum() * grid.cell_volume
    if total <= 0.0:
        raise ValueError("empty density estimate")
    return GridDensity(grid, smoothed / total, mass=1.0)


@dataclass(frozen=True)
class SampleMoments:
    mean: np.ndarray
    cov: np.ndarray
    se_mean: np.ndarray
    se_var: np.ndarray


def sample_moments(ens: PathEnsemble, t_index: int) -> SampleMoments:
    """Ensemble mean/covariance at one time with standard errors."""
    x = ens.states[:, t_index, :]
    n = x.shape[0]
    mean = x.mean(axis=0)
    cov = np.cov(x.T, ddof=1).reshape(ens.dim, ens.dim)
    se_mean = x.std(axis=0, ddof=1) / np.sqrt(n)
    centered = (x - mean) ** 2
    se_var = centered.std(axis=0, ddof=1) / np.sqrt(n)
    return SampleMoments(mean, cov, se_mean, se_var)


# ---------------------------------------------------------------------------
# CSV rows (written by cli.ArtifactWriter.write_csv)
# ---------------------------------------------------------------------------

def ensemble_rows(ens: PathEnsemble):
    """Header and lazy rows ``t, trajectory, x_1..x_dim`` of every state."""
    header = ["t", "trajectory"] + [f"x{i}" for i in range(ens.dim)]
    rows = ((t, i, *ens.states[i, k]) for k, t in enumerate(ens.times)
            for i in range(ens.n_traj))
    return header, rows


def ensemble_summary(ens: PathEnsemble, spec: PolymerSpec | None = None):
    """Header and lazy per-time rows of the mean and covariance entries, plus
    the kinetic temperature of each block for polymer runs."""
    dim = ens.dim
    header = ["t"] + [f"mean{i}" for i in range(dim)] + \
             [f"cov{i}{j}" for i in range(dim) for j in range(dim)]
    if spec is not None:
        header += [f"Tkin{k}" for k in range(spec.n_blocks)]

    def row(k, t):
        x = ens.states[:, k, :]
        cov = np.cov(x.T, ddof=1).reshape(dim, dim)
        tkin = () if spec is None else \
            _block_mv2(x[:, spec.n_coords:], spec).mean(axis=(0, 2))
        return (t, *x.mean(axis=0), *cov.ravel(), *tkin)

    return header, (row(k, t) for k, t in enumerate(ens.times))
