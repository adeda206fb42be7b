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
raises :class:`TrajectoryDivergence` with the time and trajectory index, and
the streamed runs return the escape margin, the radius and the largest
|state| of any step.
The loop draws each block's stream, its initial states and then its noise,
on one worker thread that it starts and joins itself, so no thread outlives
a run.  While block b steps, the worker draws block b + 1 into a second
noise buffer when one block's noise fits ``NOISE_AHEAD_BYTES`` (8 MiB), so
the ``start`` of block b + 1 may run before the steps of block b; a larger
block is drawn after the one before has stepped, into the one buffer.  The
main thread takes each block's draw, its states or its exception, at that
block's turn, so the streams, the observers' order and which error is
raised first do not depend on the thread.

Observers.  Every ensemble reaches its observers as chunks, ``add(first,
t0, X)``: X[i] holds the states at time index t0 + i of trajectories
``first, first + 1, ...``.  The chunks come one noise block at a time in
trajectory order, and within a block in time order, each of at most
``CHUNK`` steps.  Consecutive chunks share their boundary time, so each step
lies in exactly one chunk, and a chunk's first time is new only when t0 is
0.  X is a view that the next chunk overwrites: an observer copies what it
keeps.  An observer's times are one window, a :func:`time_window`, so the
rows a chunk adds are one slice of X; nothing is gathered or searched.  An
observer's work buffers are allocated once, in ``__init__``, at the chunk
bound (CHUNK + 1) x NOISE_BLOCK x width, and a field it must evaluate at the
points, ``paths.EnergySum``'s drift, gets them in slabs whose temporaries
stay under malloc's mmap threshold, so that a run maps no fresh chunk-sized
array per chunk.  :func:`_march_paths` feeds its
observers while it steps; :func:`replay` feeds a stored ensemble in the
same blocks and chunks, so an observer sees the same bits either way.
Storing is one observer, :class:`PathRecord`: the public simulators keep
every state time-major and return a :class:`PathEnsemble`, while
:func:`stream_overdamped` and :func:`stream_polymer` keep only what their
observers keep.  :func:`stream_polymer` steps several feedback gains as
one state, a gain-major ``[q | p]`` row per gain, on one noise draw; the
polymer simulator is its batch of one.  :class:`WindowTemperatures` sums
each trajectory's kinetic energy over a window while the gains step, and
:class:`TimeMoments` keeps each time's count, mean and centred co-moment,
merged noise block by noise block; a time's kinetic temperatures are read
off its momentum moments.

Post-processing: kernel density estimates onto solver grids (histogram +
Gaussian smoothing, Scott bandwidth), equipartition kinetic temperatures
with per-trajectory standard errors, and per-time moments.  Windows and
``PathEnsemble.index_of`` read times by :func:`.grids.time_slack`, and the
density histogram reads cells by :meth:`.grids.Grid.cell_index`.  Each ensemble
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

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.random import Generator, Philox

from .grids import Grid, GridDensity, NumericalFailure, time_slack, time_steps
from .thermo import HamiltonianSpec
from .tolerances import ESCAPE_RADIUS_FACTOR, ESCAPED_FRACTION_MAX, TIME_GRID_RTOL

NOISE_BLOCK = 1024
CHUNK = 32
# the largest block of noise drawn ahead into a second buffer; above it the
# second buffer costs more memory than the overlap saves time (a
# polymer-cooling block is 19.7 MB: drawing it ahead too raised the peak
# resident memory of a run of both ensemble builtins from 88 to 99 MB)
NOISE_AHEAD_BYTES = 8 * 2**20


class TrajectoryDivergence(NumericalFailure):
    """A sample path left the escape radius."""


@dataclass(frozen=True)
class PathEnsemble:
    """N sampled trajectories on a shared uniform time grid.

    states has shape (n_traj, n_times, dim); times[k] = t0 + k dt.  The
    simulators store it time-major and read-only: ``states`` is a view of a
    (n_times, n_traj, dim) buffer, so each ``states[:, k]`` is contiguous.
    A :class:`PathRecord` builds one from the states it kept.  Each step is
    dt, relative to ``TIME_GRID_RTOL``.
    """

    times: np.ndarray
    states: np.ndarray
    dt: float

    def __post_init__(self):
        states = np.asarray(self.states, dtype=float)
        times = np.asarray(self.times, dtype=float)
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "times", times)
        if states.ndim != 3 or states.shape[0] < 1:
            raise ValueError("states must be (n_traj >= 1, n_times, dim)")
        if times.shape != (states.shape[1],):
            raise ValueError("times incompatible with states")
        if times.size > 1 and not np.allclose(np.diff(times), self.dt, rtol=TIME_GRID_RTOL,
                                                   atol=0.0):
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
        """The index of the grid time t names, to within :func:`.grids.time_slack`."""
        k = int(np.argmin(np.abs(self.times - t)))
        if not abs(self.times[k] - t) <= time_slack(t):  # NaN fails too
            raise ValueError(f"t = {float(t)!r} is no time of the grid "
                             f"[{self.times[0]!r}, {self.times[-1]!r}] of step dt = {self.dt!r}")
        return k


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


def time_window(t_index, n_times: float) -> range:
    """The time indices ``t_index``, a lone index or consecutive increasing
    ones (a range or a sequence), as one window in [0, n_times); anything
    else raises ValueError naming the indices."""
    ks = [int(t_index)] if np.isscalar(t_index) else [int(k) for k in t_index]
    window = range(ks[0], ks[0] + len(ks)) if ks else range(0)
    if ks != list(window) or not 0 <= window.start <= window.stop <= n_times:
        raise ValueError(f"time indices {ks} are not one window of consecutive increasing "
                         f"time indices in [0, {n_times})")
    return window


def _new_rows(window: range, t0: int, n: int) -> slice:
    """The rows of a chunk of ``n`` times from ``t0`` that add the times of
    ``window``: a later chunk's first time ended the one before."""
    a = max(window.start - t0, int(t0 > 0))
    return slice(a, max(a, min(window.stop - t0, n)))


def _head(buf: np.ndarray, shape) -> np.ndarray:
    """The front of the flat buffer ``buf`` as a C-contiguous array of ``shape``."""
    return buf[:int(np.prod(shape))].reshape(shape)


class PathRecord:
    """An observer that stores the states at every time of the run:
    ``values[k]`` holds the (n_traj, width) states at time k, time-major."""

    def __init__(self, n_traj: int, n_times: int, width: int):
        self.values = np.empty((n_times, n_traj, width))

    def add(self, first, t0, X):
        rows = _new_rows(range(len(self.values)), t0, len(X))
        self.values[t0 + rows.start:t0 + rows.stop, first:first + X.shape[1]] = X[rows]

    def ensemble(self, times, dt: float) -> PathEnsemble:
        """The kept states as a read-only ensemble at ``times`` (one per row)."""
        self.values.flags.writeable = False
        return PathEnsemble(times, self.values.swapaxes(0, 1), dt)


def _draw(start, seed: int, block: int, noise: np.ndarray) -> np.ndarray:
    """The stream of noise block ``block``: ``start(rng)``'s first
    ``len(noise)`` initial states, then ``noise`` filled in place.  It runs
    on the march's worker thread, under the march's error state, which it
    enters itself since numpy keeps one per thread."""
    with np.errstate(over="ignore", invalid="ignore"):
        rng = _block_rng(seed, block)
        y = start(rng)[:len(noise)]
        # the draws run trajectory by trajectory, so a partial block draws a
        # prefix of a full one
        rng.standard_normal(out=noise)
        return y


def _march_paths(start, step, n_traj: int, dim: int, noise_dim: int, dt: float,
                 t1: float, seed: int, escape_radius: float | None, observers=()) -> dict:
    """The one loop over noise blocks and time steps of every path ensemble.

    Each block's stream draws ``start(rng) -> (NOISE_BLOCK, dim)``, then
    ``(NOISE_BLOCK, steps, noise_dim)`` noise; ``step(k, y, dW)`` maps the
    states at t_k to t_k+1.  The checked states reach every observer in
    chunks of at most ``CHUNK`` steps (see the module docstring) from one
    buffer.  The draws run on one worker thread, opened and joined here, so
    no thread outlives the march.  When one block's noise fits
    ``NOISE_AHEAD_BYTES``, block b + 1 is drawn into a second buffer while
    block b steps, so ``start`` may run ahead of the previous block's steps;
    otherwise it is drawn once block b has stepped, and the run holds one
    block's noise.  Each block's draw is taken, states or exception, at its
    turn: an error of block b is raised before any of block b + 1.
    Non-finite initial states, and initial states whose default escape
    radius (ESCAPE_RADIUS_FACTOR x the spread of the first block, floor 1)
    is not finite, are invalid input.  Steps and observers run with numpy's
    overflow and invalid-value warnings off: the escape check after each
    step rejects a state that overflowed.  Returns the escape margin, the
    ``radius`` in use and the largest |state| of any step, ``max_abs_state``.
    """
    steps = time_steps(0.0, t1, dt)
    radius = escape_radius
    rows = min(NOISE_BLOCK, n_traj)
    ahead = rows * steps * noise_dim * 8 <= NOISE_AHEAD_BYTES
    noises = [np.empty((rows, steps, noise_dim)) for _ in range(2 if ahead else 1)]
    buf = np.empty((CHUNK + 1, NOISE_BLOCK, dim))
    firsts = range(0, n_traj, NOISE_BLOCK)
    largest = 0.0

    # a draw that an earlier block's error overtakes is joined on leaving the
    # pool, and its outcome is dropped
    with np.errstate(over="ignore", invalid="ignore"), \
            ThreadPoolExecutor(max_workers=1) as pool:
        def draw(b):
            noise = noises[b % len(noises)][:min(NOISE_BLOCK, n_traj - firsts[b])]
            return noise, pool.submit(_draw, start, seed, b, noise)

        pending = draw(0)
        for b, first in enumerate(firsts):
            nb = min(NOISE_BLOCK, n_traj - first)
            noise, drawn = pending
            y = drawn.result()
            if not np.all(np.isfinite(y)):
                raise ValueError("initial states must be finite")
            if radius is None:
                radius = ESCAPE_RADIUS_FACTOR * float(np.maximum(1.0, np.std(y)))  # keeps a NaN
                if not radius < np.inf:
                    raise ValueError("the spread of the initial states overflows, "
                                     "so no escape radius can be set")
            if ahead and b + 1 < len(firsts):
                pending = draw(b + 1)
            X, t0 = buf[:, :nb], 0
            X[0] = y
            for k in range(steps):
                y = step(k, y, noise[:, k])
                # max |y| with no |y| array; both reductions propagate NaN
                worst = max(y.max(), -y.min())
                if not worst <= radius:  # NaN fails too
                    bad = first + int(np.argmax(np.max(np.abs(y), axis=1)))
                    raise TrajectoryDivergence(
                        f"trajectory divergence: |state| = {worst:.3g} > {radius:.3g} "
                        f"at t = {(k + 1) * dt:.6g}, trajectory index {bad}")
                largest = max(largest, worst)
                row = k + 1 - t0
                X[row] = y
                if row == CHUNK or k + 1 == steps:
                    for add in observers:
                        add(first, t0, X[:row + 1])
                    X[0], t0 = y, k + 1
            if not ahead and b + 1 < len(firsts):
                pending = draw(b + 1)
    return {"radius": float(radius), "max_abs_state": float(largest)}


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
    return record.ensemble(times, dt)


def simulate_overdamped(ham: HamiltonianSpec, u, x0, n_traj: int, dt: float,
                        t1: float, seed: int) -> PathEnsemble:
    """Euler-Maruyama ensemble of dx = [-(sigma2 / 2 kT) grad H + u] dt + sigma dW.

    The drift and sigma = sqrt(sigma2) both come from ``ham``; a model with
    sigma2 = 0 is the noise-free flow of the control alone.  ``u`` is None or
    a callable ``(x, t) -> (m, dim)``; ``x0`` is a callable
    ``(rng, size) -> (size, dim)``, an array, or a scalar.  The escape radius
    is ESCAPE_RADIUS_FACTOR x the spread of the initial samples (floor 1);
    crossing it aborts with the offending trajectory index.
    """
    start, step = _overdamped_rule(ham, u, x0, dt)
    return _march_stored(start, step, n_traj, ham.dim, ham.dim, dt, t1, seed, None)


def stream_overdamped(ham: HamiltonianSpec, u, x0, n_traj: int, dt: float, t1: float,
                      seed: int, observers) -> dict:
    """The ensemble of :func:`simulate_overdamped`, fed to ``observers`` and
    not stored; returns its escape margin (see :func:`_march_paths`)."""
    start, step = _overdamped_rule(ham, u, x0, dt)
    return _march_paths(start, step, n_traj, ham.dim, ham.dim, dt, t1, seed, None, observers)


def _overdamped_rule(ham: HamiltonianSpec, u, x0, dt: float):
    """``start(rng)`` and ``step(k, x, dW)`` of the Euler-Maruyama scheme."""
    kick = np.sqrt(ham.sigma2) * np.sqrt(dt)

    def step(k, x, dW):
        f = ham.drift(x)
        if u is not None:
            f = f + np.asarray(u(x, k * dt), dtype=float).reshape(x.shape)
        # bitwise x + f * dt + kick * dW, built in the drift's fresh array
        f *= dt
        f += x
        f += kick * dW
        return f

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
        if not 2.0 * self.gamma * self.temperature < np.inf:
            raise ValueError(f"gamma = {self.gamma!r} is too large: the noise variance "
                             f"2 gamma T overflows at T = {self.temperature!r}")
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
                   seed: int, observers) -> dict:
    """The ensembles of ``spec`` at each feedback gain in ``gains``, stepped
    as one state from q = p = 0 and fed to ``observers``, not stored.

    A state row is gain-major, ``[q | p]`` of gain 0, then of gain 1, and so
    on; each gain's columns are bitwise the states :func:`simulate_polymer`
    stores for that gain, since every gain sees the same initial states and
    noise.  A state of any gain that leaves the escape radius stops the run.
    Returns the escape margin (see :func:`_march_paths`).
    """
    start, step, dim, noise_dim, radius = _polymer_rule(spec, gains, 0.0, 0.0, dt)
    return _march_paths(start, step, n_traj, dim, noise_dim, dt, t1, seed, radius, observers)


def _polymer_rule(spec: PolymerSpec, gains, q0, p0, dt: float):
    """``start``, ``step``, state width, noise width and escape radius of
    the symplectic Euler scheme for the feedback ``gains``: one drag per
    gain, one noise draw for all.  The radius is ESCAPE_RADIUS_FACTOR x the
    thermal spread sqrt(T / m) of the lightest mass and sqrt(T), floor 1;
    one that overflows is invalid input."""
    for gain in gains:
        if not 0.0 <= gain < np.inf:  # NaN fails too
            raise ValueError(f"the feedback gain alpha_c must be finite and nonnegative, "
                             f"got {gain!r}")
        if not spec.gamma + gain < np.inf:
            raise ValueError(f"gamma = {spec.gamma!r} is too large: the drag gamma + "
                             f"alpha_c overflows at alpha_c = {gain!r}")
    nc = spec.n_coords
    n_gains = len(gains)
    m = spec.mass_per_coord
    c = np.sqrt(2.0 * spec.gamma * spec.temperature)  # fluctuation-dissipation
    drag = (spec.gamma + np.asarray(gains, dtype=float)).reshape(n_gains, 1)
    with np.errstate(over="ignore"):  # an overflow is an infinite radius, rejected below
        radius = ESCAPE_RADIUS_FACTOR * max(1.0, np.sqrt(spec.temperature / m.min()),
                                            np.sqrt(spec.temperature))
    if not radius < np.inf:
        raise ValueError(f"sqrt(T / m) overflows at mass {float(m.min())!r} and temperature "
                         f"{float(spec.temperature)!r}: no escape radius can be set")
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


def _window(times: np.ndarray, window: tuple[float, float]) -> range:
    """The :func:`time_window` of ``times`` in the closed window, which must lie in
    the horizon and hold a time, each edge read to within its :func:`.grids.time_slack`."""
    lo, hi = window
    lo_slack, hi_slack = time_slack(lo), time_slack(hi)
    # NaN fails too
    if not times[0] - lo_slack <= lo < hi <= times[-1] + hi_slack:
        raise ValueError("window outside ensemble horizon")
    held = np.flatnonzero((times >= lo - lo_slack) & (times <= hi + hi_slack))
    if not held.size:  # then the window lies between two of at least two times
        raise ValueError(f"window [{float(lo)!r}, {float(hi)!r}] holds no time of the "
                         f"grid of step dt = {float(times[1] - times[0])!r}")
    return time_window(held, len(times))


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
    order; ``times`` is the window's range of time indices.

    ``estimates()`` gives each gain's :class:`KineticTemperature`, the
    window average per trajectory and block, then its ensemble mean and
    standard error.
    """

    def __init__(self, spec: PolymerSpec, n_gains: int, n_traj: int, times: np.ndarray,
                 window: tuple[float, float]):
        self.spec = spec
        self.n_gains = n_gains
        self.window = window
        self.times = _window(times, window)
        self.sums = np.zeros((n_traj, n_gains, spec.n_blocks))

    def add(self, first, t0, X):
        spec = self.spec
        nb, nc, m = X.shape[1], spec.n_coords, spec.mass_per_coord
        per_coord = (nb, self.n_gains, spec.n_blocks, spec.block_dim)
        acc = self.sums[first:first + nb]
        # the times in order, one at a time, since a chunk's temporaries would
        # outgrow the chunk buffer
        for x in X[_new_rows(self.times, t0, len(X))]:
            p = x.reshape(nb, self.n_gains, 2 * nc)[:, :, nc:]
            acc += ((p / m) ** 2 * m).reshape(per_coord).sum(axis=-1)

    def estimates(self) -> list[KineticTemperature]:
        count = len(self.times) * self.spec.block_dim
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
    negligible against the kernel itself), counting a sample in its
    :meth:`.grids.Grid.cell_index` cell; the result is renormalized to
    quadrature mass 1.  Fails if more than 0.1% of the samples fall outside
    the grid box.
    """
    x = ens.states[:, t_index, :]
    if x.shape[1] != grid.ndim:
        raise ValueError("ensemble dimension != grid dimension")
    cells, inside = grid.cell_index(x)
    check_coverage(1.0 - inside.mean())
    # imported here, its only use: importing scipy.ndimage takes about a fifth
    # of `import entroflow`, and only the density estimate needs it
    from scipy.ndimage import gaussian_filter

    bw = scott_bandwidth(x)
    counts = np.bincount(cells[inside], minlength=grid.size).astype(float)
    smoothed = gaussian_filter(counts.reshape(grid.shape), sigma=tuple(bw / grid.dx),
                               mode="constant", truncate=6.0)
    return unit_mass(grid, smoothed)


def check_coverage(escaped: float) -> None:
    """Reject a density estimate of samples of which a share ``escaped``
    above ``ESCAPED_FRACTION_MAX`` lies outside the grid box."""
    if escaped > ESCAPED_FRACTION_MAX:
        raise ValueError(f"grid does not cover ensemble: escaped fraction {escaped:.3e}")


def unit_mass(grid: Grid, weights: np.ndarray) -> GridDensity:
    """The cell weights ``weights`` (grid.shape) renormalized to quadrature
    mass 1: no density estimate if their mass is zero or overflows."""
    with np.errstate(over="ignore"):
        total = weights.sum() * grid.cell_volume
    if total <= 0.0:
        raise ValueError("empty density estimate")
    if total == np.inf:
        raise ValueError(f"cells of volume {grid.cell_volume:.3g} are too large for a "
                         "density estimate: its mass overflows")
    return GridDensity(grid, weights / total)


class TimeMoments:
    """An observer of the per-time moments of ``width`` state columns from
    ``column`` on: for every time, the count, mean and centred co-moment of
    those columns.

    Each chunk's columns are copied into a work buffer sized by one chunk,
    trajectories innermost, so the bits do not depend on where the chunk
    came from.  Every time's mean and co-moment over the chunk's noise block
    then merge into the running ones, vectorised over the chunk's times, by
    the pairwise update of Chan, Golub & LeVeque (Am. Stat. 37 (1983) 242):
    with n_a and n_b trajectories and delta = mean_b - mean_a,

        mean = mean_a + delta n_b / n,
        M2 = M2_a + (M2_b + delta delta^T n_a n_b / n),   n = n_a + n_b.
    """

    def __init__(self, n_times: int, width: int, column: int = 0):
        self.columns = slice(column, column + width)
        self.count = np.zeros(n_times, dtype=np.int64)
        self.mean = np.zeros((n_times, width))
        self.comoment = np.zeros((n_times, width, width))
        self._x = np.empty((CHUNK + 1) * width * NOISE_BLOCK)

    def add(self, first, t0, X):
        rows = _new_rows(range(len(self.count)), t0, len(X))
        n_rows, nb, w = rows.stop - rows.start, X.shape[1], self.mean.shape[1]
        x = _head(self._x, (n_rows, w, nb))
        np.copyto(x, X[rows, :, self.columns].transpose(0, 2, 1))
        times = slice(t0 + rows.start, t0 + rows.stop)
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

    def summary(self, times, spec: PolymerSpec | None = None):
        """Header and lazy rows ``t, mean.., cov.., Tkin..`` at ``times``, one
        per time; given the polymer ``spec`` whose ``[q | p]`` states the
        columns are, each block's kinetic temperature m <V^2> / d, read off
        the momentum moments as the block's mean of <p_i^2> / m_i."""
        cov = self.cov()
        dim = self.mean.shape[1]
        tkin = np.empty((len(self.count), 0))
        if spec is not None:  # <p_i^2> = M2_ii / n + mean_i^2
            nc = spec.n_coords
            p2 = np.diagonal(self.comoment, axis1=1, axis2=2)[:, nc:] / self.count[:, None] \
                + self.mean[:, nc:] ** 2
            tkin = (p2 / spec.mass_per_coord).reshape(len(p2), spec.n_blocks, -1).mean(axis=2)
        header = ["t"] + [f"mean{i}" for i in range(dim)] + \
                 [f"cov{i}{j}" for i in range(dim) for j in range(dim)] + \
                 [f"Tkin{k}" for k in range(tkin.shape[1])]
        return header, ((t, *m, *c.ravel(), *k)
                        for t, m, c, k in zip(times, self.mean, cov, tkin))


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
    moments = TimeMoments(1, ens.dim)
    replay(PathEnsemble(ens.times[[t_index]], x[:, None, :], ens.dt), (moments.add,))
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
    :meth:`TimeMoments.summary` of the stored ensemble, fed by :func:`replay`."""
    moments = TimeMoments(len(ens.times), ens.dim)
    replay(ens, (moments.add,))
    return moments.summary(ens.times, spec)
