"""Monte Carlo path ensembles for the controlled diffusions.

Two integrators:

* :func:`simulate_overdamped` - Euler-Maruyama for
  dx = [-(sigma2 / 2 kT) grad H + u] dt + sigma dW;
* :func:`simulate_polymer` - semi-implicit (symplectic) Euler for the
  underdamped block dynamics

      dq = (p/m) dt,
      dp = [-grad phi(q) - gamma V - alpha_c V] dt + sqrt(2 gamma T) dW,   V = p/m,

  where noise and friction act on momenta only (singular diffusion) and the
  velocity feedback -alpha_c V cools the kinetic temperature below the
  thermostat value.

The model states the drift and noise; the control is the simulators'
argument beside it, the field u of the overdamped run and the gain alpha_c
of the polymer run.

Noise streams are counter-based (Philox) and keyed by (seed, block) for
blocks of 1024 trajectories: the ensemble is bit-reproducible for a given
seed, trajectory i depends only on (seed, i, step count), and blocks can be
produced in parallel without changing the result.  Both integrators are
per-step rules of one loop, :func:`_march_paths`, which owns the noise and
the escape check: a state that leaves the escape radius or is not finite
raises :class:`TrajectoryDivergence` with the time and trajectory index.

Observers.  Every ensemble reaches its observers as chunks, ``add(first,
t0, X)``: X[i] holds the states at time index t0 + i of trajectories
``first, first + 1, ...``.  The chunks come one noise block at a time in
trajectory order, and within a block in time order, each of at most
``CHUNK`` steps.  Consecutive chunks share their boundary time, so each step
lies in exactly one chunk, and a chunk's first time is new only when t0 is
0.  X is a view that the next chunk overwrites: an observer copies what it
keeps.  An observer may keep work buffers sized by one chunk, (CHUNK + 1,
NOISE_BLOCK, dim), and reuse them for every chunk, so that a run maps no
fresh chunk-sized array per chunk.  :func:`_march_paths` feeds its
observers while it steps; :func:`replay` feeds a stored ensemble in the
same blocks and chunks, so an observer sees the same bits either way.
Storing is one observer, :class:`PathRecord`: the public simulators keep
every state time-major and return a :class:`PathEnsemble`, while
:func:`stream_overdamped` and :func:`stream_polymer` keep only what their
observers keep.  :func:`stream_polymer` steps several feedback gains as
one state, a gain-major ``[q | p]`` row per gain, on one noise draw; the
polymer simulator is its batch of one.  :class:`WindowTemperatures` sums
each trajectory's kinetic energy over a window while the gains step, and
:class:`TimeMoments` keeps each time's count, mean, centred co-moment and
sum of m V^2, merged noise block by noise block.

Post-processing: kernel density estimates onto solver grids (histogram +
Gaussian smoothing, Scott bandwidth), equipartition kinetic temperatures
with per-trajectory standard errors, and per-time moments.  Each ensemble
quantity has one estimator, a chunk observer: :func:`kinetic_temperature`
is :class:`WindowTemperatures` of one gain, and :func:`ensemble_summary`
and :func:`sample_moments` are :class:`TimeMoments`, each fed a stored
ensemble by :func:`replay`, so a streamed run and a stored one give the
same bits.  CSV export:
:func:`ensemble_rows` and :func:`ensemble_summary` return a header and lazy
rows, which ``cli.ArtifactWriter.write_csv`` formats and writes; this module
opens no files.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.random import Generator, Philox
from scipy.ndimage import gaussian_filter

from .grids import Grid, GridDensity, NumericalFailure, time_steps
from .thermo import HamiltonianSpec
from .tolerances import ESCAPED_FRACTION_MAX, TIME_GRID_RTOL, WINDOW_SLACK

NOISE_BLOCK = 1024
CHUNK = 32


class TrajectoryDivergence(NumericalFailure):
    """A sample path left the escape radius."""


@dataclass(frozen=True)
class PathEnsemble:
    """N sampled trajectories on a shared uniform time grid.

    states has shape (n_traj, n_times, dim); times[k] = t0 + k dt.  The
    simulators store it time-major and read-only: ``states`` is a view of a
    (n_times, n_traj, dim) buffer, so each ``states[:, k]`` is contiguous.
    A :class:`PathRecord` builds one from the times it kept, such as one
    time slice of a streamed run.
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
        if times.size > 1 and not np.allclose(np.diff(times), self.dt, rtol=TIME_GRID_RTOL):
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


def row_span(rows: np.ndarray):
    """Strictly increasing indices ``rows`` as a slice when they are
    consecutive, so that taking them is a view; otherwise ``rows`` itself.
    Repeats are not detected: ``[3, 3, 5]`` gives ``slice(3, 6)``."""
    if rows.size and rows[-1] - rows[0] == rows.size - 1:
        return slice(int(rows[0]), int(rows[-1]) + 1)
    return rows


def _head(buf: np.ndarray, shape) -> np.ndarray:
    """The front of the flat buffer ``buf`` as a C-contiguous array of ``shape``."""
    return buf[:int(np.prod(shape))].reshape(shape)


class PathRecord:
    """An observer that stores the states at some times.

    ``at`` lists the time indices kept, increasing and in ``[0, n_times)``
    (default: all ``n_times``); ``values[r]`` holds the (n_traj, width)
    states at time ``at[r]``, time-major.
    """

    def __init__(self, n_traj: int, n_times: int, width: int, at=None):
        self.at = np.arange(n_times) if at is None else np.asarray(at, dtype=int)
        if self.at.ndim != 1 or np.any(self.at < 0) or np.any(self.at >= n_times) \
                or np.any(np.diff(self.at) <= 0):
            raise ValueError(f"PathRecord keeps increasing time indices in [0, {n_times})")
        self.values = np.empty((self.at.size, n_traj, width))

    def add(self, first, t0, X):
        a, b = np.searchsorted(self.at, [t0 + (t0 > 0), t0 + len(X)])
        if a < b:
            self.values[a:b, first:first + X.shape[1]] = X[row_span(self.at[a:b] - t0)]

    def ensemble(self, times, dt: float, seed: int) -> PathEnsemble:
        """The kept states as a read-only ensemble at ``times`` (one per row)."""
        self.values.flags.writeable = False
        return PathEnsemble(times, self.values.swapaxes(0, 1), dt, seed)


def _march_paths(start, step, n_traj: int, dim: int, noise_dim: int, dt: float,
                 t1: float, seed: int, escape_radius: float | None, observers=()) -> None:
    """The one loop over noise blocks and time steps of every path ensemble.

    Each block's stream draws ``start(rng) -> (NOISE_BLOCK, dim)``, then
    ``(NOISE_BLOCK, steps, noise_dim)`` noise; ``step(k, y, dW)`` maps the
    states at t_k to t_k+1.  The checked states reach every observer in
    chunks of at most ``CHUNK`` steps (see the module docstring) from one
    buffer, so a run holds one block's noise and one chunk of states.
    Non-finite initial states, and initial states whose default escape
    radius (50x the spread of the first block, floor 1) is not finite, are
    invalid input.  Steps and observers run with numpy's overflow and
    invalid-value warnings off: the escape check after each step rejects a
    state that overflowed.
    """
    steps = time_steps(0.0, t1, dt)
    radius = escape_radius
    noise = np.empty((NOISE_BLOCK, steps, noise_dim))
    buf = np.empty((CHUNK + 1, NOISE_BLOCK, dim))
    with np.errstate(over="ignore", invalid="ignore"):
        for first in range(0, n_traj, NOISE_BLOCK):
            nb = min(NOISE_BLOCK, n_traj - first)
            rng = _block_rng(seed, first // NOISE_BLOCK)
            y = start(rng)[:nb]
            if not np.all(np.isfinite(y)):
                raise ValueError("initial states must be finite")
            # one buffer: no two blocks' noise at once; the draws run trajectory
            # by trajectory, so a partial block draws a prefix of a full one
            rng.standard_normal(out=noise[:nb])
            if radius is None:
                radius = 50.0 * float(np.maximum(1.0, np.std(y)))  # keeps a NaN
                if not radius < np.inf:
                    raise ValueError("the spread of the initial states overflows, "
                                     "so no escape radius can be set")
            X, t0 = buf[:, :nb], 0
            X[0] = y
            for k in range(steps):
                y = step(k, y, noise[:nb, k])
                worst = np.max(np.abs(y))
                if not worst <= radius:  # NaN fails too
                    bad = first + int(np.argmax(np.max(np.abs(y), axis=1)))
                    raise TrajectoryDivergence(
                        f"trajectory divergence: |state| = {worst:.3g} > {radius:.3g} "
                        f"at t = {(k + 1) * dt:.6g}, trajectory index {bad}")
                row = k + 1 - t0
                X[row] = y
                if row == CHUNK or k + 1 == steps:
                    for add in observers:
                        add(first, t0, X[:row + 1])
                    X[0], t0 = y, k + 1


def replay(ens: PathEnsemble, observers) -> None:
    """Feed a stored ensemble to ``observers`` in the blocks and chunks in
    which :func:`_march_paths` fed it, with the same overflow and
    invalid-value warnings off; a one-time ensemble is one chunk of one
    time."""
    with np.errstate(over="ignore", invalid="ignore"):
        for first in range(0, ens.n_traj, NOISE_BLOCK):
            block = ens.states[first:first + NOISE_BLOCK].swapaxes(0, 1)
            for t0 in range(0, max(len(ens.times) - 1, 1), CHUNK):
                for add in observers:
                    add(first, t0, block[t0:t0 + CHUNK + 1])


def _march_stored(start, step, n_traj: int, dim: int, noise_dim: int, dt: float,
                  t1: float, seed: int, escape_radius: float | None) -> PathEnsemble:
    """:func:`_march_paths` into a :class:`PathRecord` of every state."""
    times = dt * np.arange(time_steps(0.0, t1, dt) + 1)
    record = PathRecord(n_traj, times.size, dim)
    _march_paths(start, step, n_traj, dim, noise_dim, dt, t1, seed, escape_radius,
                 (record.add,))
    return record.ensemble(times, dt, seed)


def simulate_overdamped(ham: HamiltonianSpec, u, x0, n_traj: int, dt: float,
                        t1: float, seed: int) -> PathEnsemble:
    """Euler-Maruyama ensemble of dx = [-(sigma2 / 2 kT) grad H + u] dt + sigma dW.

    The drift and sigma = sqrt(sigma2) both come from ``ham``; a model with
    sigma2 = 0 is the noise-free flow of the control alone.  ``u`` is None or
    a callable ``(x, t) -> (m, dim)``; ``x0`` is a callable
    ``(rng, size) -> (size, dim)``, an array, or a scalar.  The escape radius
    is 50x the spread of the initial samples (floor 1); crossing it aborts
    with the offending trajectory index.
    """
    start, step = _overdamped_rule(ham, u, x0, dt)
    return _march_stored(start, step, n_traj, ham.dim, ham.dim, dt, t1, seed, None)


def stream_overdamped(ham: HamiltonianSpec, u, x0, n_traj: int, dt: float, t1: float,
                      seed: int, observers) -> None:
    """The ensemble of :func:`simulate_overdamped`, fed to ``observers`` and
    not stored."""
    start, step = _overdamped_rule(ham, u, x0, dt)
    _march_paths(start, step, n_traj, ham.dim, ham.dim, dt, t1, seed, None, observers)


def _overdamped_rule(ham: HamiltonianSpec, u, x0, dt: float):
    """``start(rng)`` and ``step(k, x, dW)`` of the Euler-Maruyama scheme."""
    sigma = np.sqrt(ham.sigma2)
    root_dt = np.sqrt(dt)

    def step(k, x, dW):
        f = ham.drift(x)
        if u is not None:
            f = f + np.asarray(u(x, k * dt), dtype=float).reshape(x.shape)
        return x + f * dt + sigma * root_dt * dW

    return (lambda rng: _resolve_x0(x0, rng, NOISE_BLOCK, ham.dim)), step


# ---------------------------------------------------------------------------
# underdamped polymer / cantilever model with velocity feedback
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PolymerSpec:
    """Block-structured underdamped model with velocity-feedback cooling.

    masses       : one mass per block (k = 1..n_blocks)
    block_dim    : coordinates per block (3 for spatial beads, 1 for a
                   scalar cantilever mode)
    grad_potential : grad phi(q) -> (m, n_blocks*block_dim) on q of shape
                   (m, n_blocks*block_dim): the force is -grad phi
    gamma        : friction coefficient (force = -gamma V)
    temperature  : thermostat temperature T (k_B = 1 units)

    The thermostat fixes the noise on each momentum at sqrt(2 gamma T) dW
    (fluctuation-dissipation).  The feedback gain alpha_c (force -alpha_c V)
    is not part of the model: the simulators take it as an argument, and it
    adds drag without noise.
    """

    masses: np.ndarray
    grad_potential: Callable[[np.ndarray], np.ndarray]
    gamma: float
    temperature: float
    block_dim: int = 3

    def __post_init__(self):
        masses = np.atleast_1d(np.asarray(self.masses, dtype=float))
        object.__setattr__(self, "masses", masses)
        if not np.all((0.0 < masses) & (masses < np.inf)):  # NaN fails too
            raise ValueError("masses must be finite and positive")
        if not 0.0 <= self.gamma < np.inf:
            raise ValueError("gamma must be finite and nonnegative")
        if not 0.0 < self.temperature < np.inf:
            raise ValueError("temperature must be finite and positive")
        if self.block_dim < 1:
            raise ValueError("block_dim must be >= 1")

    @property
    def n_blocks(self) -> int:
        return self.masses.size

    @property
    def n_coords(self) -> int:
        return self.n_blocks * self.block_dim

    @property
    def mass_per_coord(self) -> np.ndarray:
        return np.repeat(self.masses, self.block_dim)


def harmonic_cantilever(spring_k: float, mass: float = 1.0, gamma: float = 1.0,
                        temperature: float = 1.0) -> PolymerSpec:
    """Single scalar mode with phi(q) = K q^2 / 2 (the AFM cantilever)."""
    return PolymerSpec(
        masses=[mass],
        grad_potential=lambda q: spring_k * np.atleast_2d(q),
        gamma=gamma, temperature=temperature, block_dim=1)


def simulate_polymer(spec: PolymerSpec, gain: float, n_traj: int, dt: float, t1: float,
                     seed: int, q0=0.0, p0=0.0) -> PathEnsemble:
    """Symplectic-Euler ensemble under the feedback gain ``gain``; state
    layout per trajectory is [q, p].

    Momenta are updated first with the potential, friction and feedback
    forces plus the thermostat's noise; positions then move with the new momenta and
    carry no noise (singular diffusion).  This is :func:`stream_polymer`'s
    step for the one gain ``gain``, stored.
    """
    start, step, dim, noise_dim, radius = _polymer_rule(spec, (gain,), q0, p0, dt)
    return _march_stored(start, step, n_traj, dim, noise_dim, dt, t1, seed, radius)


def stream_polymer(spec: PolymerSpec, gains, n_traj: int, dt: float, t1: float,
                   seed: int, observers) -> None:
    """The ensembles of ``spec`` at each feedback gain in ``gains``, stepped
    as one state from q = p = 0 and fed to ``observers``, not stored.

    A state row is gain-major, ``[q | p]`` of gain 0, then of gain 1, and so
    on; each gain's columns are bitwise the states :func:`simulate_polymer`
    stores for that gain, since every gain sees the same initial states and
    noise.  A state of any gain that leaves the escape radius stops the run.
    """
    start, step, dim, noise_dim, radius = _polymer_rule(spec, gains, 0.0, 0.0, dt)
    _march_paths(start, step, n_traj, dim, noise_dim, dt, t1, seed, radius, observers)


def _polymer_rule(spec: PolymerSpec, gains, q0, p0, dt: float):
    """``start``, ``step``, state width, noise width and escape radius of
    the symplectic Euler scheme for the feedback ``gains``: one drag per
    gain, one noise draw for all.  The radius is 50x the thermal spread
    sqrt(T / m) of the lightest mass and sqrt(T), floor 1."""
    for gain in gains:
        if not 0.0 <= gain < np.inf:  # NaN fails too
            raise ValueError(f"the feedback gain alpha_c must be finite and nonnegative, "
                             f"got {gain!r}")
    nc = spec.n_coords
    n_gains = len(gains)
    m = spec.mass_per_coord
    c = np.sqrt(2.0 * spec.gamma * spec.temperature)  # fluctuation-dissipation
    drag = (spec.gamma + np.asarray(gains, dtype=float)).reshape(n_gains, 1)
    radius = 50.0 * max(1.0, np.sqrt(spec.temperature / np.min(spec.masses)),
                        np.sqrt(spec.temperature))
    root_dt = np.sqrt(dt)
    noisy = c != 0.0

    def start(rng):
        q = _resolve_x0(q0, rng, NOISE_BLOCK, nc)
        p = _resolve_x0(p0, rng, NOISE_BLOCK, nc)
        return np.tile(np.concatenate([q, p], axis=1), n_gains)

    def step(k, y, dW):
        y = y.reshape(y.shape[0], n_gains, 2 * nc)
        q, p = y[:, :, :nc], y[:, :, nc:]
        force = -np.asarray(spec.grad_potential(q.reshape(-1, nc)), dtype=float).reshape(q.shape)
        p = p + dt * (force - drag * (p / m))
        if noisy:
            p = p + ((root_dt * dW) * c)[:, None, :]
        return np.concatenate([q + dt * (p / m), p], axis=2).reshape(y.shape[0], -1)

    return start, step, 2 * nc * n_gains, nc if noisy else 0, radius


@dataclass(frozen=True)
class KineticTemperature:
    """Per-block equipartition temperature m_k <V_k^2> / (d k_B)."""

    values: np.ndarray   # (n_blocks,)
    stderr: np.ndarray   # (n_blocks,)
    window: tuple[float, float]


def kinetic_temperature(ens: PathEnsemble, spec: PolymerSpec,
                        window: tuple[float, float]) -> KineticTemperature:
    """Time-and-ensemble averaged kinetic temperature of a stored polymer
    ensemble over a time window: :class:`WindowTemperatures` of one gain fed
    by :func:`replay`.

    The standard error is taken across trajectories (independent streams),
    each contributing its own window average.
    """
    temps = WindowTemperatures(spec, 1, ens.n_traj, ens.times, window)
    replay(ens, (temps.add,))
    return temps.estimates()[0]


def _window(times: np.ndarray, window: tuple[float, float]) -> np.ndarray:
    """The mask of ``times`` in the closed window, which must lie in the horizon
    and hold a time, both up to ``WINDOW_SLACK``: n dt may round past an edge."""
    lo, hi = window
    # NaN fails too
    if not times[0] - WINDOW_SLACK <= lo < hi <= times[-1] + WINDOW_SLACK:
        raise ValueError("window outside ensemble horizon")
    sel = (times >= lo - WINDOW_SLACK) & (times <= hi + WINDOW_SLACK)
    if not sel.any():  # then the window lies between two of at least two times
        raise ValueError(f"window [{float(lo)!r}, {float(hi)!r}] holds no time of the "
                         f"grid of step dt = {float(times[1] - times[0])!r}")
    return sel


def mean_and_stderr(samples: np.ndarray, what: str) -> tuple[np.ndarray, np.ndarray]:
    """Mean over trajectories (axis 0) and its standard error, std (ddof 1)
    / sqrt(n), or 0 for one trajectory; an overflow raises
    :class:`.grids.NumericalFailure` naming ``what``, with no warning."""
    n = samples.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is rejected below
        mean = samples.mean(axis=0)
        stderr = samples.std(axis=0, ddof=1) / np.sqrt(n) if n > 1 else np.zeros_like(mean)
    if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(stderr))):
        raise NumericalFailure(f"{what} or its standard error overflows")
    return mean, stderr


class WindowTemperatures:
    """An observer of :func:`stream_polymer`: each trajectory's sum of m V^2
    per block over the time window, for every gain, adding the times in
    order.

    ``estimates()`` gives each gain's :class:`KineticTemperature`, the
    window average per trajectory and block, then its ensemble mean and
    standard error.
    """

    def __init__(self, spec: PolymerSpec, n_gains: int, n_traj: int, times: np.ndarray,
                 window: tuple[float, float]):
        self.spec = spec
        self.n_gains = n_gains
        self.window = window
        self.sel = _window(times, window)
        self.sums = np.zeros((n_traj, n_gains, spec.n_blocks))

    def add(self, first, t0, X):
        spec = self.spec
        nb, nc, m = X.shape[1], spec.n_coords, spec.mass_per_coord
        per_coord = (nb, self.n_gains, spec.n_blocks, spec.block_dim)
        acc = self.sums[first:first + nb]
        # the times in order, one at a time, since a chunk's temporaries would
        # outgrow the chunk buffer; a later chunk's first time ended the one before
        for i in range(t0 > 0, len(X)):
            if self.sel[t0 + i]:
                p = X[i].reshape(nb, self.n_gains, 2 * nc)[:, :, nc:]
                acc += ((p / m) ** 2 * m).reshape(per_coord).sum(axis=-1)

    def estimates(self) -> list[KineticTemperature]:
        count = np.count_nonzero(self.sel) * self.spec.block_dim
        return [KineticTemperature(*mean_and_stderr(self.sums[:, g] / count,
                                                    "the kinetic temperature"),
                                   tuple(self.window))
                for g in range(self.n_gains)]


# ---------------------------------------------------------------------------
# density estimation and moments
# ---------------------------------------------------------------------------

def scott_bandwidth(samples: np.ndarray) -> np.ndarray:
    """Per-dimension Scott rule (4/(d+2))^(1/(d+4)) n^(-1/(d+4)) std_j."""
    n, d = samples.shape
    factor = (4.0 / (d + 2.0)) ** (1.0 / (d + 4.0)) * n ** (-1.0 / (d + 4.0))
    return factor * samples.std(axis=0, ddof=1 if n > 1 else 0)


def estimate_density(ens: PathEnsemble, t_index: int, grid: Grid) -> GridDensity:
    """Gaussian-kernel density estimate of the time slice on a grid.

    The kernel width is Scott's rule, :func:`scott_bandwidth` of the slice
    (zero for a single sample, which leaves its histogram cell).
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
    if escaped > ESCAPED_FRACTION_MAX:
        raise ValueError(f"grid does not cover ensemble: escaped fraction {escaped:.3e}")
    bw = scott_bandwidth(x)
    edges = [np.linspace(grid.lo[a], grid.hi[a], grid.cells[a] + 1)
             for a in range(grid.ndim)]
    counts, _ = np.histogramdd(x[inside], bins=edges)
    smoothed = gaussian_filter(counts, sigma=tuple(bw / grid.dx),
                               mode="constant", truncate=6.0)
    with np.errstate(over="ignore"):
        total = smoothed.sum() * grid.cell_volume
    if total <= 0.0:
        raise ValueError("empty density estimate")
    if total == np.inf:
        raise ValueError(f"cells of volume {grid.cell_volume:.3g} are too large for a "
                         "density estimate: its mass overflows")
    return GridDensity(grid, smoothed / total)


class TimeMoments:
    """An observer of the per-time moments of ``width`` state columns from
    ``column`` on: for every time, the count, mean and centred co-moment of
    those columns, and, given the polymer ``spec`` whose ``[q | p]`` states
    they are, the sum of m V^2 per block.

    Each chunk's columns are copied into a work buffer sized by one chunk,
    trajectories innermost, so the bits do not depend on where the chunk
    came from.  Every time's mean and co-moment over the chunk's noise block
    then merge into the running ones, vectorised over the chunk's times, by
    the pairwise update of Chan, Golub & LeVeque (Am. Stat. 37 (1983) 242):
    with n_a and n_b trajectories and delta = mean_b - mean_a,

        mean = mean_a + delta n_b / n,
        M2 = M2_a + (M2_b + delta delta^T n_a n_b / n),   n = n_a + n_b.
    """

    def __init__(self, n_times: int, width: int, spec: PolymerSpec | None = None,
                 column: int = 0):
        self.columns = slice(column, column + width)
        self.spec = spec
        self.count = np.zeros(n_times, dtype=np.int64)
        self.mean = np.zeros((n_times, width))
        self.comoment = np.zeros((n_times, width, width))
        self.mv2 = np.zeros((n_times, 0 if spec is None else spec.n_blocks))
        self._x = np.empty((CHUNK + 1) * width * NOISE_BLOCK)
        self._v = np.empty(0 if spec is None else (CHUNK + 1) * spec.n_coords * NOISE_BLOCK)

    def add(self, first, t0, X):
        r0 = int(t0 > 0)  # a later chunk's first time ended the one before
        n_rows, nb, w = len(X) - r0, X.shape[1], self.mean.shape[1]
        x = _head(self._x, (n_rows, w, nb))
        np.copyto(x, X[r0:, :, self.columns].transpose(0, 2, 1))
        times = slice(t0 + r0, t0 + len(X))
        spec = self.spec
        if spec is not None:  # m V^2 = (p / m)^2 m per momentum, as WindowTemperatures
            nc, m = spec.n_coords, spec.mass_per_coord[:, None]
            v = np.divide(x[:, nc:], m, out=_head(self._v, (n_rows, nc, nb)))
            np.multiply(np.square(v, out=v), m, out=v)
            per_coord = v.sum(axis=2).reshape(n_rows, spec.n_blocks, spec.block_dim)
            self.mv2[times] += per_coord.sum(axis=2)
        mean_b = x.mean(axis=2)
        np.subtract(x, mean_b[:, :, None], out=x)
        m2_b = np.einsum("tin,tjn->tij", x, x)
        n_a = self.count[times]
        n = n_a + nb
        delta = mean_b - self.mean[times]
        self.mean[times] += delta * (nb / n)[:, None]
        self.comoment[times] += m2_b + delta[:, :, None] * delta[:, None, :] \
            * (n_a * nb / n)[:, None, None]
        self.count[times] = n

    def cov(self) -> np.ndarray:
        """The sample covariance (ddof 1) at every time."""
        if self.count.min() < 2:
            raise ValueError("a sample covariance needs at least two trajectories")
        return self.comoment / (self.count - 1)[:, None, None]

    def summary(self, times):
        """Header and lazy rows ``t, mean.., cov.., Tkin..`` at ``times``, one
        per time; the kinetic temperatures m <V^2> / d of the blocks with a
        ``spec``."""
        cov = self.cov()
        dim = self.mean.shape[1]
        header = ["t"] + [f"mean{i}" for i in range(dim)] + \
                 [f"cov{i}{j}" for i in range(dim) for j in range(dim)] + \
                 [f"Tkin{k}" for k in range(self.mv2.shape[1])]
        tkin = self.mv2 if self.spec is None else \
            self.mv2 / (self.count[:, None] * self.spec.block_dim)
        return header, ((t, *m, *c.ravel(), *k)
                        for t, m, c, k in zip(times, self.mean, cov, tkin))


def _moments(ens: PathEnsemble, spec: PolymerSpec | None = None) -> TimeMoments:
    """:class:`TimeMoments` of every column of a stored ensemble."""
    moments = TimeMoments(len(ens.times), ens.dim, spec)
    replay(ens, (moments.add,))
    return moments


@dataclass(frozen=True)
class SampleMoments:
    mean: np.ndarray
    cov: np.ndarray
    se_mean: np.ndarray
    se_var: np.ndarray


def sample_moments(ens: PathEnsemble, t_index: int) -> SampleMoments:
    """Ensemble mean/covariance at one time with standard errors: the mean and
    covariance are :class:`TimeMoments` of that time alone, and the standard
    errors, which need the fourth moment, come from the time slice
    (:func:`mean_and_stderr`; an overflow of either raises)."""
    x = ens.states[:, t_index, :]
    _, se_mean = mean_and_stderr(x, "the sample mean")
    moments = _moments(PathEnsemble(ens.times[[t_index]], x[:, None, :], ens.dt, ens.seed))
    mean, cov = moments.mean[0], moments.cov()[0]
    with np.errstate(over="ignore"):  # an overflow is rejected by mean_and_stderr
        centered = (x - mean) ** 2
    _, se_var = mean_and_stderr(centered, "the sample variance")
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
    the kinetic temperature of each block for polymer runs: the
    :meth:`TimeMoments.summary` of the stored ensemble."""
    return _moments(ens, spec).summary(ens.times)
