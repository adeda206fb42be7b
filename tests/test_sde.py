import re
import sys
import threading
import time
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
import scipy.ndimage
from hypothesis import given, settings, strategies as st

from entroflow import GaussianDensity, Grid, sde
from entroflow.grids import NumericalFailure
from entroflow.sde import (
    CHUNK,
    NOISE_BLOCK,
    PathEnsemble,
    PathRecord,
    PolymerSpec,
    TimeMoments,
    TrajectoryDivergence,
    WindowTemperatures,
    _march_paths,
    ensemble_rows,
    ensemble_summary,
    estimate_density,
    harmonic_cantilever,
    kinetic_temperature,
    replay,
    sample_moments,
    scott_bandwidth,
    simulate_overdamped,
    simulate_polymer,
    stream_overdamped,
    stream_polymer,
)
from entroflow.thermo import quadratic_hamiltonian, relative_entropy
from entroflow.tolerances import ESCAPE_RADIUS_FACTOR

from conftest import flat_hamiltonian, same_bits


def gaussian_x0(mean, var):
    return lambda rng, size: mean + np.sqrt(var) * rng.standard_normal((size, 1))


# ---------------------------------------------------------------------------
# overdamped ensembles
# ---------------------------------------------------------------------------

def test_noise_free_ode_limit():
    # a model without noise has no drift either (Einstein relation), so the
    # control -x alone moves it: x(t) = e^{-t} up to O(dt)
    ham = quadratic_hamiltonian(1.0, kT=1.0, sigma2=0.0)
    ens = simulate_overdamped(ham, lambda x, t: -x, 1.0, n_traj=3, dt=1e-3, t1=1.0,
                              seed=0)
    assert ens.states[:, -1, 0] == pytest.approx(np.exp(-1.0), abs=2e-3)
    assert np.exp(-1.0) == pytest.approx(0.36788, abs=1e-5)


def test_ou_ensemble_moments(ou_ham):
    ens = simulate_overdamped(ou_ham, None, gaussian_x0(1.0, 2.0),
                              n_traj=20_000, dt=1e-3, t1=0.3, seed=123)
    mom = sample_moments(ens, ens.index_of(0.3))
    assert abs(mom.mean[0] - 0.74082) < 3.0 * mom.se_mean[0]
    assert abs(mom.cov[0, 0] - 1.54881) < 3.0 * mom.se_var[0]


def test_seed_determinism(ou_ham):
    a = simulate_overdamped(ou_ham, None, gaussian_x0(1.0, 2.0),
                            n_traj=500, dt=1e-2, t1=0.1, seed=99)
    b = simulate_overdamped(ou_ham, None, gaussian_x0(1.0, 2.0),
                            n_traj=500, dt=1e-2, t1=0.1, seed=99)
    assert np.array_equal(a.states, b.states)
    c = simulate_overdamped(ou_ham, None, gaussian_x0(1.0, 2.0),
                            n_traj=500, dt=1e-2, t1=0.1, seed=100)
    assert not np.array_equal(a.states, c.states)


def test_trajectory_stable_across_ensemble_size(ou_ham):
    # per-block streams: trajectory i depends on (seed, i), not on n_traj;
    # 700 and 2000 lie on both sides of the 1024-trajectory noise block
    spec = harmonic_cantilever(1.0)
    simulators = [
        lambda n: simulate_overdamped(ou_ham, None, gaussian_x0(0.0, 1.0),
                                      n_traj=n, dt=1e-2, t1=0.1, seed=5),
        lambda n: simulate_polymer(spec, 0.5, n_traj=n, dt=1e-2, t1=0.1, seed=5,
                                   q0=gaussian_x0(0.0, 1.0), p0=gaussian_x0(0.0, 1.0)),
    ]
    for simulate in simulators:
        big = simulate(2000)
        small = simulate(700)
        assert np.array_equal(big.states[:700], small.states)
        assert not np.array_equal(big.states[1024:1724], small.states)


def test_control_field_enters_drift():
    # the control 1 - x of a noise-free model has its fixed point at 1
    ens = simulate_overdamped(flat_hamiltonian(0.0), lambda x, t: 1.0 - x, 0.0,
                              n_traj=2, dt=1e-3, t1=4.0, seed=1)
    assert ens.states[0, -1, 0] == pytest.approx(1.0, abs=0.03)


def test_escape_radius_aborts(ou_ham):
    from entroflow import HamiltonianSpec
    unstable = HamiltonianSpec(dim=1,
                               energy=lambda x: -0.5 * np.atleast_2d(x)[:, 0] ** 2,
                               grad=lambda x: -np.atleast_2d(x),
                               kT=1.0, sigma2=2.0)
    with pytest.raises(TrajectoryDivergence, match="trajectory index"):
        simulate_overdamped(unstable, None, 2.0, n_traj=4, dt=1e-2, t1=200.0, seed=3)


def test_non_finite_state_is_divergence(ou_ham):
    # a NaN drift in trajectory 2 from t = 0.05 on is a numerical failure,
    # not an invalid ensemble; a NaN initial state is invalid input
    def u(x, t):
        out = np.zeros_like(x)
        if t >= 0.05:
            out[2] = np.nan
        return out

    with pytest.raises(TrajectoryDivergence, match=r"t = 0\.06, trajectory index 2$"):
        simulate_overdamped(ou_ham, u, 0.0, n_traj=5, dt=1e-2, t1=0.2, seed=3)
    with pytest.raises(ValueError, match="initial states must be finite"):
        simulate_overdamped(ou_ham, None, np.nan, n_traj=5, dt=1e-2, t1=0.2, seed=3)


def test_ensembles_are_stored_time_major(ou_ham):
    # one contiguous, read-only block per time point; states keeps its
    # (n_traj, n_times, dim) shape
    ens = simulate_overdamped(ou_ham, None, gaussian_x0(1.0, 2.0), n_traj=NOISE_BLOCK + 5,
                              dt=1e-2, t1=0.1, seed=1)
    assert ens.states.shape == (NOISE_BLOCK + 5, 11, 1)
    assert not ens.states.flags.writeable
    assert all(ens.states[:, k].flags.c_contiguous for k in range(11))
    with pytest.raises(ValueError):
        ens.states[0, 0, 0] = 0.0


def test_path_ensemble_validation():
    with pytest.raises(ValueError):
        PathEnsemble(np.array([0.0, 0.1]), np.zeros((0, 2, 1)), 0.1)
    with pytest.raises(ValueError):
        PathEnsemble(np.array([0.0, 0.3]), np.zeros((2, 2, 1)), 0.1)
    with pytest.raises(ValueError):
        PathEnsemble(np.array([0.0, 0.1]), np.full((2, 2, 1), np.nan), 0.1)
    for bad in (np.nan, np.inf, -np.inf):
        states = np.zeros((2, 2, 1))
        states[1, 0, 0] = bad
        with pytest.raises(ValueError, match="ensemble states must be finite"):
            PathEnsemble(np.array([0.0, 0.1]), states, 0.1)
    assert PathEnsemble(np.array([0.0, 0.1]), np.zeros((2, 2, 0)), 0.1).dim == 0
    # a step 4x dt is off, however small both are against an absolute tolerance
    with pytest.raises(ValueError, match="uniform with step dt"):
        PathEnsemble(np.array([0.0, 1e-9, 5e-9]), np.zeros((2, 3, 1)), 1e-9)
    assert PathEnsemble(np.array([0.0, 1e-9, 2e-9]), np.zeros((2, 3, 1)), 1e-9).dim == 1


def test_index_of_names_only_grid_times(ou_ham):
    # a time within the horizon's slack of a grid time names it; a time
    # between grid times, past the horizon or NaN names none
    ens = simulate_overdamped(ou_ham, None, 0.0, n_traj=2, dt=0.1, t1=0.3, seed=0)
    assert [ens.index_of(t) for t in (0.0, 0.1, 0.2, 0.3, 0.3000000001, 0.2999999999)] == \
        [0, 1, 2, 3, 3, 3]
    for t in (0.15, 0.1 + 1e-6, 0.5, -0.1, np.nan):
        with pytest.raises(ValueError, match="is no time of the grid"):
            ens.index_of(t)


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_escape_check_names_trajectory_and_time(data):
    # trajectory i of an ensemble spanning several noise blocks leaves the
    # radius 1, or turns NaN or infinite, at t_k; every other state stays 0
    n_traj = data.draw(st.integers(NOISE_BLOCK + 1, 3 * NOISE_BLOCK), label="n_traj")
    i = data.draw(st.integers(0, n_traj - 1), label="i")
    steps, dt = 5, 0.1
    k = data.draw(st.integers(1, steps), label="k")
    bad = data.draw(st.sampled_from([2.0, -2.0, np.nan, np.inf, -np.inf]), label="bad")
    # each block is counted at its first step, since the next block's start
    # may run before this block steps
    blocks = []

    def start(rng):
        return np.zeros((NOISE_BLOCK, 1))

    def step(j, y, dW):
        y = y.copy()
        if j == 0:
            blocks.append(len(blocks))
        if j + 1 == k and blocks[-1] == i // NOISE_BLOCK:
            y[i % NOISE_BLOCK] = bad
        return y

    with pytest.raises(TrajectoryDivergence,
                       match=re.escape(f"at t = {k * dt:.6g}, trajectory index {i}") + "$"):
        _march_paths(start, step, n_traj, 1, 1, dt, steps * dt, 0, escape_radius=1.0)


# ---------------------------------------------------------------------------
# polymer / cantilever
# ---------------------------------------------------------------------------

def test_polymer_spec_validation():
    with pytest.raises(ValueError):
        harmonic_cantilever(1.0, mass=-1.0)
    with pytest.raises(ValueError):
        harmonic_cantilever(1.0, temperature=0.0)


@pytest.mark.parametrize("key", ["mass", "gamma", "temperature"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_polymer_spec_rejects_non_finite(key, bad):
    with pytest.raises(ValueError, match=f"{key}.* must be finite"):
        harmonic_cantilever(1.0, **{key: bad})


@pytest.mark.parametrize("window", [(np.nan, 0.1), (0.0, np.nan), (0.05, 0.05)])
def test_kinetic_temperature_rejects_bad_window(window):
    spec = harmonic_cantilever(1.0)
    ens = simulate_polymer(spec, 0.0, n_traj=4, dt=1e-2, t1=0.1, seed=0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match="window outside ensemble horizon"):
            kinetic_temperature(ens, spec, window)


def test_cantilever_equipartition():
    spec = harmonic_cantilever(spring_k=1.0, gamma=1.0, temperature=1.0)
    ens = simulate_polymer(spec, 0.0, n_traj=1500, dt=5e-3, t1=12.0, seed=7)
    kt = kinetic_temperature(ens, spec, window=(4.0, 12.0))
    assert kt.values[0] == pytest.approx(1.0, rel=0.02)


def test_cantilever_cooling_below_thermostat():
    spec = harmonic_cantilever(spring_k=1.0, gamma=1.0, temperature=1.0)
    ens = simulate_polymer(spec, 1.0, n_traj=1500, dt=5e-3, t1=12.0, seed=7)
    kt = kinetic_temperature(ens, spec, window=(4.0, 12.0))
    assert kt.values[0] < 1.0 - 3.0 * kt.stderr[0]


def test_hamiltonian_limit_energy_conservation():
    # without friction the thermostat adds no noise either
    spec = harmonic_cantilever(1.0, gamma=0.0)
    dt = 1e-3
    ens = simulate_polymer(spec, 0.0, n_traj=1, dt=dt, t1=1.0, seed=0, q0=1.0, p0=0.0)
    q = ens.states[0, :, 0]
    p = ens.states[0, :, 1]
    H = 0.5 * (q**2 + p**2)
    per_step = np.abs(np.diff(H))
    assert np.max(per_step) <= 1.2 * dt**2 * 2.0 * H[0]


def test_momentum_escape_names_its_trajectory():
    # trajectory 3 escapes in momentum while trajectory 5 holds the largest
    # position; the default radius is 50 for T = m = 1
    spec = harmonic_cantilever(1.0, gamma=0.0)

    def start(value, row):
        def x0(rng, size):
            out = np.zeros((size, 1))
            out[row] = value
            return out
        return x0

    with pytest.raises(TrajectoryDivergence, match=r"trajectory index 3$"):
        simulate_polymer(spec, 0.0, n_traj=8, dt=1e-2, t1=1.0, seed=0,
                         q0=start(10.0, 5), p0=start(100.0, 3))


def test_kinetic_temperature_edge_cases():
    spec = harmonic_cantilever(1.0)
    ens = simulate_polymer(spec, 0.0, n_traj=8, dt=1e-2, t1=0.5, seed=2)
    with pytest.raises(ValueError, match="window"):
        kinetic_temperature(ens, spec, window=(0.0, 2.0))
    frozen = PathEnsemble(ens.times, np.zeros_like(ens.states), ens.dt)
    kt = kinetic_temperature(frozen, spec, window=(0.0, 0.5))
    assert kt.values[0] == 0.0


def test_stored_temperature_overflow_is_a_numerical_failure():
    # at T = 1e200 each window average is about 1e200, so the spread of the
    # averages overflows; momenta of 1e155 overflow m V^2 itself: both are a
    # numerical failure, without numpy's warnings
    spec = harmonic_cantilever(1.0, temperature=1e200)
    ens = simulate_polymer(spec, 0.0, n_traj=8, dt=1e-2, t1=0.2, seed=3)
    huge = PathEnsemble(ens.times, np.full_like(ens.states, 1e155), ens.dt)
    for stored in (ens, huge):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(NumericalFailure, match="kinetic temperature"):
                kinetic_temperature(stored, spec, window=(0.1, 0.2))


def test_window_edge_on_a_float_time_grid():
    # the last time 0.1 * 3 rounds to 0.30000000000000004 > 0.3: the window
    # reads its edges with the slack the horizon check allows, so it holds
    # that time, stored and streamed alike
    spec = harmonic_cantilever(1.0)
    ens = simulate_polymer(spec, 0.5, n_traj=8, dt=0.1, t1=0.3, seed=0)
    assert ens.times[-1] > 0.3
    temps = WindowTemperatures(spec, 1, 8, ens.times, (0.29, 0.3))
    stream_polymer(spec, (0.5,), 8, 0.1, 0.3, 0, (temps.add,))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        kt = kinetic_temperature(ens, spec, (0.29, 0.3))
        streamed, = temps.estimates()
    last = ens.states[:, -1, 1] ** 2
    assert np.array_equal(kt.values, [last.mean()])
    assert same_bits(streamed.values, kt.values)


def test_window_without_a_grid_time_rejected():
    # a window inside the horizon that falls between two grid times is
    # invalid input, named with its edges and dt
    spec = harmonic_cantilever(1.0)
    ens = simulate_polymer(spec, 0.0, n_traj=4, dt=0.1, t1=0.3, seed=0)
    message = r"window \[0.12, 0.18\] holds no time of the grid of step dt = 0.1"
    with pytest.raises(ValueError, match=message):
        kinetic_temperature(ens, spec, (0.12, 0.18))
    with pytest.raises(ValueError, match=message):
        WindowTemperatures(spec, 1, 4, ens.times, (0.12, 0.18))


def test_polymer_3d_blocks_shapes():
    spec = PolymerSpec(masses=[1.0, 2.0],
                       grad_potential=lambda q: np.atleast_2d(q),
                       gamma=0.5, temperature=1.0, block_dim=3)
    ens = simulate_polymer(spec, 0.0, n_traj=16, dt=1e-2, t1=0.2, seed=1)
    assert ens.dim == 2 * 6
    kt = kinetic_temperature(ens, spec, window=(0.0, 0.2))
    assert kt.values.shape == (2,)


# ---------------------------------------------------------------------------
# streamed ensembles: chunk observers and batched gains
# ---------------------------------------------------------------------------

N_TRAJ = st.sampled_from([1, 2, NOISE_BLOCK - 1, NOISE_BLOCK + 1, 2 * NOISE_BLOCK + 3])


@settings(max_examples=15, deadline=None)
@given(n_traj=N_TRAJ, steps=st.integers(1, 3 * CHUNK), seed=st.integers(0, 2**32 - 1),
       data=st.data())
def test_observers_see_the_stored_states(ou_ham, n_traj, steps, seed, data):
    # the march and a replay of its stored ensemble hand the observers the
    # same (first, t0, X) chunks bit for bit: blocks in trajectory order,
    # chunks of at most CHUNK steps sharing their boundary time, each X the
    # stored states, and a record keeps a window of them
    x0 = gaussian_x0(0.3, 1.5)
    dt, t1 = 0.01, steps * 0.01
    ens = simulate_overdamped(ou_ham, None, x0, n_traj, dt, t1, seed)
    streamed, replayed = [], []

    def keep(seen):
        return lambda first, t0, X: seen.append((first, t0, X.copy()))

    lo = data.draw(st.integers(0, steps), label="lo")
    at = list(range(lo, data.draw(st.integers(lo + 1, steps + 1), label="hi")))
    record = PathRecord(n_traj, steps + 1, 1, at=at)
    escape = stream_overdamped(ou_ham, None, x0, n_traj, dt, t1, seed,
                               (keep(streamed), record.add))
    # the escape margin: the radius set by the first block's initial spread,
    # and the largest |state| of any step (time 0 is no step)
    assert escape == {"radius": ESCAPE_RADIUS_FACTOR * max(1.0, float(np.std(ens.states[:NOISE_BLOCK, 0]))),
                      "max_abs_state": float(np.max(np.abs(ens.states[:, 1:])))}
    replay(ens, (keep(replayed),))
    assert [chunk[:2] for chunk in streamed] == [chunk[:2] for chunk in replayed] \
        == [(first, t0) for first in range(0, n_traj, NOISE_BLOCK)
            for t0 in range(0, steps, CHUNK)]
    for (first, t0, X), (_, _, Y) in zip(streamed, replayed):
        stored = ens.states[first:first + NOISE_BLOCK, t0:t0 + CHUNK + 1].swapaxes(0, 1)
        assert same_bits(X, Y) and same_bits(X, stored)
    kept = record.ensemble(ens.times[at], dt)
    assert same_bits(kept.states, ens.states[:, at])
    assert not kept.states.flags.writeable


@pytest.mark.parametrize("at", [(5,), (3,), (-1,), (0, 3), (2, 1), (1, 1)])
def test_path_record_keeps_only_times_of_the_run(at):
    # on 3 time points a record of time 5 would hand out uninitialised memory
    with pytest.raises(ValueError, match=re.escape("increasing time indices in [0, 3)")):
        PathRecord(4, 3, 1, at=at)


def test_sample_moments_overflow_is_a_numerical_failure():
    # four finite states whose squared deviations overflow: the standard error
    # of the mean is not finite, which must raise, not return cov = [[nan]]
    # with RuntimeWarnings
    x = 1e160 * np.arange(1.0, 5.0)
    ens = PathEnsemble(np.array([0.0]), x[:, None, None], 0.01)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalFailure,
                           match="the sample mean or its standard error overflows"):
            sample_moments(ens, 0)


def test_one_trajectory_has_no_sample_covariance(ou_ham):
    ens = simulate_overdamped(ou_ham, None, 0.0, n_traj=1, dt=0.1, t1=0.2, seed=0)
    for moments in (lambda: sample_moments(ens, 1), lambda: ensemble_summary(ens)):
        with pytest.raises(ValueError, match="at least two trajectories"):
            moments()


@settings(max_examples=10, deadline=None)
@given(gains=st.lists(st.floats(0.0, 3.0), min_size=4, max_size=4),
       n_traj=st.sampled_from([2, NOISE_BLOCK + 7]), seed=st.integers(0, 2**32 - 1),
       window_lo=st.sampled_from([0.0, 0.2]), block_dim=st.sampled_from([1, 3]))
def test_batched_gains_equal_separate_runs(gains, n_traj, seed, window_lo, block_dim):
    # one gain-major state and one noise draw for four gains; each gain's
    # states and kinetic temperature are those of its own run, bit for bit,
    # for a scalar mode and for two blocks of three coordinates
    spec = harmonic_cantilever(spring_k=1.3, gamma=0.7, temperature=1.2) \
        if block_dim == 1 else TWO_BLOCKS_OF_3
    dt, t1, n_times = 0.01, 0.5, 51
    times = dt * np.arange(n_times)
    width = 2 * spec.n_coords
    temps = WindowTemperatures(spec, len(gains), n_traj, times, (window_lo, t1))
    record = PathRecord(n_traj, n_times, width * len(gains))
    stream_polymer(spec, gains, n_traj, dt, t1, seed, (temps.add, record.add))
    batched = record.ensemble(times, dt).states
    for g, (gain, kt) in enumerate(zip(gains, temps.estimates())):
        ens = simulate_polymer(spec, gain, n_traj, dt, t1, seed)
        ref = kinetic_temperature(ens, spec, (window_lo, t1))
        assert same_bits(batched[:, :, g * width:(g + 1) * width], ens.states)
        assert same_bits(kt.values, ref.values) and same_bits(kt.stderr, ref.stderr)
        assert kt.window == ref.window


def test_batched_divergence_names_time_and_trajectory():
    # 1 - dt (gamma + gain) / m < -1 from gain 39 on: that gain's momenta
    # grow every step, while the others stay bounded
    spec = harmonic_cantilever(spring_k=1.0, gamma=1.0)
    n_traj, dt, t1, seed = NOISE_BLOCK + 9, 0.05, 2.0, 3
    with pytest.raises(TrajectoryDivergence) as single:
        simulate_polymer(spec, 60.0, n_traj, dt, t1, seed)
    with pytest.raises(TrajectoryDivergence) as batched:
        stream_polymer(spec, [0.0, 1.0, 60.0, 2.0], n_traj, dt, t1, seed, ())
    assert str(batched.value) == str(single.value)
    assert re.search(r"at t = \S+, trajectory index \d+$", str(batched.value))


def test_batched_gains_are_each_checked():
    spec = harmonic_cantilever(spring_k=1.0)
    for bad in (-1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="alpha_c must be finite and nonnegative"):
            stream_polymer(spec, [0.0, bad], 4, 0.1, 0.2, 0, ())
        with pytest.raises(ValueError, match="alpha_c must be finite and nonnegative"):
            simulate_polymer(spec, bad, 4, 0.1, 0.2, 0)
    with pytest.raises(ValueError, match="window"):
        WindowTemperatures(spec, 2, 4, 0.1 * np.arange(3), (0.0, 0.5))


# ---------------------------------------------------------------------------
# per-time moments
# ---------------------------------------------------------------------------

def block_merge_moments(ens):
    """Oracle of TimeMoments in plain numpy: each noise block's per-time
    mean and centred co-moment over the whole horizon at once, trajectories
    innermost, merged block by block (Chan, Golub & LeVeque)."""
    n_times, dim = len(ens.times), ens.dim
    count, mean, comoment = 0, np.zeros((n_times, dim)), np.zeros((n_times, dim, dim))
    for first in range(0, ens.n_traj, NOISE_BLOCK):
        x = np.ascontiguousarray(ens.states[first:first + NOISE_BLOCK].transpose(1, 2, 0))
        nb = x.shape[2]
        mean_b = x.mean(axis=2)
        d = x - mean_b[:, :, None]
        m2_b = np.einsum("tin,tjn->tij", d, d)
        n = count + nb
        delta = mean_b - mean
        mean = mean + delta * (nb / n)
        comoment = comoment + (m2_b + delta[:, :, None] * delta[:, None, :] * (count * nb / n))
        count = n
    return count, mean, comoment


# np.cov and the direct per-time m V^2 mean sum in another order: both sides
# are within a few n eps of the exact moments, n <= 3000 trajectories
MOMENT_RTOL = 1e-12
TWO_BLOCKS_OF_3 = PolymerSpec(masses=[1.0, 2.5], grad_potential=lambda q: 1.5 * np.atleast_2d(q),
                              gamma=0.8, temperature=1.1, block_dim=3)


@settings(max_examples=20, deadline=None)
@given(n_traj=st.sampled_from([2, NOISE_BLOCK, NOISE_BLOCK + 1, 3000]),
       steps=st.integers(CHUNK + 1, 3 * CHUNK + 1), seed=st.integers(0, 2**32 - 1),
       polymer=st.booleans())
def test_streamed_moments_are_the_block_merge(ou_ham, n_traj, steps, seed, polymer):
    # a march and a replay of its stored ensemble give the same moments bit
    # for bit, and both are the block merge of the stored states; a polymer
    # streams its moments from the last gain of a batch of two
    dt, t1 = 0.01, steps * 0.01
    if polymer:
        spec = TWO_BLOCKS_OF_3
        ens = simulate_polymer(spec, 0.6, n_traj, dt, t1, seed)
        streamed = TimeMoments(steps + 1, ens.dim, column=ens.dim)
        stream_polymer(spec, [0.0, 0.6], n_traj, dt, t1, seed, (streamed.add,))
    else:
        spec, x0 = None, gaussian_x0(0.3, 1.5)
        ens = simulate_overdamped(ou_ham, None, x0, n_traj, dt, t1, seed)
        streamed = TimeMoments(steps + 1, 1)
        stream_overdamped(ou_ham, None, x0, n_traj, dt, t1, seed, (streamed.add,))
    replayed = TimeMoments(steps + 1, ens.dim)
    replay(ens, (replayed.add,))
    count, mean, comoment = block_merge_moments(ens)
    for moments in (streamed, replayed):
        assert np.all(moments.count == count)
        assert same_bits(moments.mean, mean) and same_bits(moments.comoment, comoment)

    cov = replayed.cov()
    ref_cov = np.stack([np.cov(ens.states[:, k].T, ddof=1).reshape(ens.dim, ens.dim)
                        for k in range(steps + 1)])
    sd = np.sqrt(np.diagonal(ref_cov, axis1=1, axis2=2))
    ref_mean = ens.states.mean(axis=0)
    assert np.all(np.abs(cov - ref_cov) <= MOMENT_RTOL * sd[:, :, None] * sd[:, None, :])
    assert np.all(np.abs(mean - ref_mean) <= MOMENT_RTOL * (np.abs(ref_mean) + sd))
    if polymer:
        # the kinetic temperatures summary reads off the momentum moments
        header, rows = replayed.summary(ens.times, spec)
        assert header[-spec.n_blocks:] == ["Tkin0", "Tkin1"]
        tkin = np.array(list(rows))[:, -spec.n_blocks:]
        m = spec.mass_per_coord
        per_coord = (ens.states[:, :, spec.n_coords:] / m) ** 2 * m
        ref_tkin = per_coord.reshape(ens.states.shape[:2] + (spec.n_blocks, spec.block_dim)
                                     ).mean(axis=(0, 3))
        assert np.all(np.abs(tkin - ref_tkin) <= MOMENT_RTOL * ref_tkin)


def test_moments_of_a_chunk_allocate_no_chunk_sized_array():
    # after the first chunk, the work buffers are kept: later chunks raise the
    # traced peak by far less than the chunk of the columns kept
    rng = np.random.default_rng(0)
    X = rng.standard_normal((CHUNK + 1, NOISE_BLOCK, 8))  # four gains' [q | p]
    moments = TimeMoments(4 * CHUNK + 1, 2, column=6)
    tracemalloc.start()
    try:
        moments.add(0, 0, X)
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        for t0 in (CHUNK, 2 * CHUNK, 3 * CHUNK):
            moments.add(0, t0, X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    kept = X[:, :, 6:].nbytes
    assert peak - base < kept / 4, (peak - base, kept)


# ---------------------------------------------------------------------------
# noise drawn ahead on the march's worker thread
# ---------------------------------------------------------------------------

def hand_drawn(start, step, n_traj, dim, noise_dim, steps, seed):
    """Oracle of the march on one thread: each block's stream drawn by hand,
    ``start`` and then all of its (nb, steps, noise_dim) noise, and stepped;
    every state, time-major."""
    states = np.empty((steps + 1, n_traj, dim))
    for first in range(0, n_traj, NOISE_BLOCK):
        nb = min(NOISE_BLOCK, n_traj - first)
        rng = sde._block_rng(seed, first // NOISE_BLOCK)
        y = start(rng)[:nb]
        noise = rng.standard_normal((nb, steps, noise_dim))
        states[0, first:first + nb] = y
        for k in range(steps):
            y = step(k, y, noise[:, k])
            states[k + 1, first:first + nb] = y
    return states


def moments_of(states, dt):
    moments = TimeMoments(states.shape[0], states.shape[2])
    replay(PathEnsemble(dt * np.arange(states.shape[0]), states.swapaxes(0, 1), dt),
           (moments.add,))
    return moments


@settings(max_examples=10, deadline=None)
@given(n_traj=st.sampled_from([1, NOISE_BLOCK - 1, NOISE_BLOCK, NOISE_BLOCK + 1,
                               3 * NOISE_BLOCK - 5]),
       steps=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
def test_noise_drawn_ahead_changes_no_bit(ou_ham, n_traj, steps, seed):
    # with every block drawn ahead and with none, each run keeps the states
    # and moments of the oracle that draws every block by hand
    spec, x0 = harmonic_cantilever(spring_k=1.3, gamma=0.7, temperature=1.2), \
        gaussian_x0(0.3, 1.5)
    gains, dt = [0.0, 0.4, 1.1, 2.5], 0.01
    t1 = steps * dt

    def streamed(stream, width):
        def run():
            record = PathRecord(n_traj, steps + 1, width)
            moments = TimeMoments(steps + 1, width)
            stream((record.add, moments.add))
            return record.values, moments
        return run

    def stored(simulate):
        def run():
            states = simulate().states.swapaxes(0, 1)
            return states, moments_of(states, dt)
        return run

    rules = {
        "stream_overdamped": (
            streamed(lambda obs: stream_overdamped(ou_ham, None, x0, n_traj, dt, t1, seed, obs),
                     1),
            sde._overdamped_rule(ou_ham, None, x0, dt) + (1, 1)),
        "stream_polymer": (
            streamed(lambda obs: stream_polymer(spec, gains, n_traj, dt, t1, seed, obs),
                     2 * len(gains)),
            sde._polymer_rule(spec, gains, 0.0, 0.0, dt)[:4]),
        "simulate_overdamped": (
            stored(lambda: simulate_overdamped(ou_ham, None, x0, n_traj, dt, t1, seed)),
            sde._overdamped_rule(ou_ham, None, x0, dt) + (1, 1)),
        "simulate_polymer": (
            stored(lambda: simulate_polymer(spec, gains[2], n_traj, dt, t1, seed)),
            sde._polymer_rule(spec, gains[2:3], 0.0, 0.0, dt)[:4]),
    }
    for name, (run, (start, step, dim, noise_dim)) in rules.items():
        oracle = hand_drawn(start, step, n_traj, dim, noise_dim, steps, seed)
        expected = moments_of(oracle, dt)
        for budget in (0, np.inf):
            with mock.patch.object(sde, "NOISE_AHEAD_BYTES", budget):
                states, moments = run()
            assert same_bits(states, oracle), (name, budget)
            assert np.all(moments.count == expected.count)
            assert same_bits(moments.mean, expected.mean), (name, budget)
            assert same_bits(moments.comoment, expected.comoment), (name, budget)


def test_marches_on_many_threads_keep_their_bits(ou_ham):
    # four marches at once, each with its own worker, under a short switch
    # interval: each run keeps the states of the oracle for its seed
    n_traj, steps, dt, x0 = 6 * NOISE_BLOCK - 3, 30, 0.01, gaussian_x0(0.3, 1.5)
    start, step = sde._overdamped_rule(ou_ham, None, x0, dt)
    oracle = {seed: hand_drawn(start, step, n_traj, 1, 1, steps, seed) for seed in range(4)}
    states = {}

    def run(seed):
        states[seed] = simulate_overdamped(ou_ham, None, x0, n_traj, dt, steps * dt, seed).states

    threads = [threading.Thread(target=run, args=(seed,)) for seed in oracle]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for seed, expected in oracle.items():
        assert same_bits(states[seed].swapaxes(0, 1), expected), seed


class BadStart(Exception):
    pass


def counted_start(blocks, bad_block=None, bad=None):
    """A ``start`` of zero states that records the thread of each call and,
    in block ``bad_block``, returns ``bad`` states or raises ``bad``."""
    def start(rng):
        blocks.append(threading.current_thread())
        if len(blocks) - 1 == bad_block:
            if isinstance(bad, Exception):
                raise bad
            return np.full((NOISE_BLOCK, 1), bad)
        return np.zeros((NOISE_BLOCK, 1))
    return start


def chunks_of(firsts, steps):
    return [(first, t0) for first in firsts for t0 in range(0, steps, CHUNK)]


@pytest.fixture
def drawn_ahead(monkeypatch):
    """Every block's noise drawn ahead, whatever its size; yields the
    thread count from before the test's marches."""
    monkeypatch.setattr(sde, "NOISE_AHEAD_BYTES", np.inf)
    return threading.active_count()


def test_divergence_beats_the_next_blocks_bad_start(drawn_ahead):
    # block 1's start, non-finite, has run on the worker before block 0
    # diverges; the divergence is raised with its own message
    blocks = []
    started = lambda: len(blocks) == 2

    def step(j, y, dW):
        if j == 2:
            for _ in range(1000):  # until block 1's draw is in flight
                if started():
                    break
                time.sleep(0.01)
            y = y.copy()
            y[5] = 2.0
        return y

    with pytest.raises(TrajectoryDivergence) as err:
        _march_paths(counted_start(blocks, 1, np.nan), step, 2 * NOISE_BLOCK, 1, 1, 0.1,
                     0.5, 0, escape_radius=1.0)
    assert str(err.value) == \
        "trajectory divergence: |state| = 2 > 1 at t = 0.3, trajectory index 5"
    assert started() and threading.main_thread() not in blocks
    assert threading.active_count() == drawn_ahead


@pytest.mark.parametrize("bad_block,bad,error,match", [
    (2, np.nan, ValueError, "initial states must be finite"),
    (2, np.inf, ValueError, "initial states must be finite"),
    (1, BadStart("block 1 cannot start"), BadStart, "block 1 cannot start")])
def test_bad_start_is_raised_at_its_blocks_turn(drawn_ahead, bad_block, bad, error, match):
    # a block's start runs while the block before steps, but its error,
    # unwrapped, comes only after every chunk of the blocks before it
    # reached the observer
    seen, blocks, steps = [], [], 2 * CHUNK + 3
    with pytest.raises(error, match=f"^{match}$") as err:
        _march_paths(counted_start(blocks, bad_block, bad), lambda j, y, dW: y + 0.0 * dW,
                     3 * NOISE_BLOCK - 5, 1, 1, 0.01, steps * 0.01, 0, 1.0,
                     (lambda first, t0, X: seen.append((first, t0)),))
    assert type(err.value) is error
    assert seen == chunks_of(range(0, bad_block * NOISE_BLOCK, NOISE_BLOCK), steps)
    assert len(blocks) == bad_block + 1 and threading.main_thread() not in blocks
    assert threading.active_count() == drawn_ahead


def test_start_that_overflows_on_the_worker_warns_nothing(drawn_ahead):
    # the worker runs under the march's error state: an overflow in start is
    # an invalid initial state, not a RuntimeWarning (an error under pytest)
    def start(rng):
        return np.full((NOISE_BLOCK, 1), 1e308) * 10.0

    with pytest.raises(ValueError, match="^initial states must be finite$"):
        _march_paths(start, lambda j, y, dW: y, 5, 1, 1, 0.1, 0.2, 0, None)
    assert threading.active_count() == drawn_ahead


def test_clean_march_draws_on_one_worker_and_joins_it(drawn_ahead):
    seen, blocks, steps = [], [], CHUNK + 1
    _march_paths(counted_start(blocks), lambda j, y, dW: y + 0.01 * dW, 2 * NOISE_BLOCK + 1,
                 1, 1, 0.01, steps * 0.01, 0, None,
                 (lambda first, t0, X: seen.append((first, t0)),))
    assert seen == chunks_of((0, NOISE_BLOCK, 2 * NOISE_BLOCK), steps)
    assert len(set(blocks)) == 1 and threading.main_thread() not in blocks
    assert threading.active_count() == drawn_ahead


def traced_peak(n_traj, steps):
    """The traced peak memory of a march of ``n_traj`` random walks over
    ``steps`` steps, with no observer."""
    tracemalloc.start()
    try:
        _march_paths(lambda rng: np.zeros((NOISE_BLOCK, 1)), lambda k, y, dW: y + dW,
                     n_traj, 1, 1, 1.0, float(steps), 0, escape_radius=1e300)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_noise_is_drawn_ahead_only_within_the_budget():
    # a block's noise over the budget is held once; under it, twice
    over = sde.NOISE_AHEAD_BYTES // (8 * NOISE_BLOCK) + 76
    block = NOISE_BLOCK * over * 8
    assert block > sde.NOISE_AHEAD_BYTES
    assert traced_peak(2 * NOISE_BLOCK, over) < 1.5 * block
    block = NOISE_BLOCK * 200 * 8
    assert 2 * block <= traced_peak(4 * NOISE_BLOCK, 200) < 2.5 * block


# ---------------------------------------------------------------------------
# density estimation
# ---------------------------------------------------------------------------

def _ensemble_from_samples(samples):
    samples = np.asarray(samples, dtype=float)
    return PathEnsemble(np.array([0.0]), samples[:, np.newaxis, :], 1.0)


def test_kde_close_to_exact_gaussian():
    rng = np.random.default_rng(21)
    ens = _ensemble_from_samples(rng.standard_normal((20_000, 1)))
    grid = Grid((-8.0,), (8.0,), (512,))
    est = estimate_density(ens, 0, grid)
    exact = GaussianDensity([0.0], [[1.0]]).sample_on(grid)
    assert relative_entropy(est, exact) < 0.05
    assert est.integrate() == pytest.approx(1.0, abs=1e-9)


def test_kde_single_sample_bump():
    ens = _ensemble_from_samples([[0.5]])
    grid = Grid((-4.0,), (4.0,), (256,))
    est = estimate_density(ens, 0, grid)
    assert est.integrate() == pytest.approx(1.0, abs=1e-9)
    x = grid.axis_centers(0)
    assert x[np.argmax(est.values)] == pytest.approx(0.5, abs=grid.dx[0])


@pytest.mark.parametrize("grid", [Grid((-1.0,), (1.0,), (10,)),
                                  Grid((-1.0, -1.0), (1.0, 1.0), (10, 10))],
                         ids=["1d", "2d"])
def test_density_histogram_is_the_cell_index_count(grid, monkeypatch):
    # samples on the cell edges lo + j dx: the histogram counts each in the
    # cell Grid.cell_index gives it, as the drift bins do
    axes = [grid.lo[a] + grid.dx[a] * np.arange(grid.cells[a]) for a in range(grid.ndim)]
    x = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, grid.ndim)
    cells, inside = grid.cell_index(x)
    assert inside.all()
    counts = np.bincount(cells, minlength=grid.size).reshape(grid.shape).astype(float)
    monkeypatch.setattr(scipy.ndimage, "gaussian_filter", lambda counts, **kernel: counts)
    est = estimate_density(_ensemble_from_samples(x), 0, grid)
    assert np.array_equal(est.values, counts / (counts.sum() * grid.cell_volume))


def test_kde_coverage_failure():
    rng = np.random.default_rng(4)
    ens = _ensemble_from_samples(3.0 * rng.standard_normal((5000, 1)))
    with pytest.raises(ValueError, match="escaped fraction"):
        estimate_density(ens, 0, Grid((-2.0,), (2.0,), (64,)))


def test_scott_bandwidth_1d():
    rng = np.random.default_rng(8)
    x = rng.standard_normal((10_000, 1))
    bw = scott_bandwidth(x)[0]
    assert bw == pytest.approx(1.06 * x.std(ddof=1) * 10_000 ** -0.2, rel=0.01)


# ---------------------------------------------------------------------------
# CSV rows
# ---------------------------------------------------------------------------

def test_csv_exports(ou_ham):
    ens = simulate_overdamped(ou_ham, None, 0.5, n_traj=3, dt=0.1, t1=0.2, seed=11)
    header, rows = ensemble_rows(ens)
    assert header == ["t", "trajectory", "x0"]
    assert len(list(rows)) == 3 * 3
    header, rows = ensemble_summary(ens)
    assert header == ["t", "mean0", "cov00"]
    assert [len(r) for r in rows] == [3] * 3

    spec = harmonic_cantilever(1.0)
    pens = simulate_polymer(spec, 0.0, n_traj=4, dt=0.1, t1=0.2, seed=1)
    header, rows = ensemble_summary(pens, spec)
    assert header == ["t", "mean0", "mean1", "cov00", "cov01", "cov10", "cov11", "Tkin0"]
    assert [len(r) for r in rows] == [len(header)] * 3
