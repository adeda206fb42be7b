import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from entroflow import GaussianDensity, Grid
from entroflow.sde import (
    NOISE_BLOCK,
    KineticTemperature,
    PathEnsemble,
    PolymerSpec,
    TrajectoryDivergence,
    _march_paths,
    ensemble_rows,
    ensemble_summary,
    estimate_density,
    harmonic_cantilever,
    kinetic_temperature,
    polymer_momenta,
    sample_moments,
    scott_bandwidth,
    simulate_overdamped,
    simulate_polymer,
)
from entroflow.thermo import relative_entropy


def gaussian_x0(mean, var):
    return lambda rng, size: mean + np.sqrt(var) * rng.standard_normal((size, 1))


# ---------------------------------------------------------------------------
# overdamped ensembles
# ---------------------------------------------------------------------------

def test_noise_free_ode_limit(ou_ham):
    # drift -x with the noise switched off: x(t) = e^{-t} up to O(dt)
    ens = simulate_overdamped(ou_ham, None, 1.0, n_traj=3, dt=1e-3, t1=1.0,
                              seed=0, sigma=0.0)
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
    spec = harmonic_cantilever(1.0, control_gain=0.5)
    simulators = [
        lambda n: simulate_overdamped(ou_ham, None, gaussian_x0(0.0, 1.0),
                                      n_traj=n, dt=1e-2, t1=0.1, seed=5),
        lambda n: simulate_polymer(spec, n_traj=n, dt=1e-2, t1=0.1, seed=5,
                                   q0=gaussian_x0(0.0, 1.0), p0=gaussian_x0(0.0, 1.0)),
    ]
    for simulate in simulators:
        big = simulate(2000)
        small = simulate(700)
        assert np.array_equal(big.states[:700], small.states)
        assert not np.array_equal(big.states[1024:1724], small.states)


def test_control_field_enters_drift(ou_ham):
    # constant u shifts the fixed point of the noise-free flow to u
    ens = simulate_overdamped(ou_ham, lambda x, t: np.ones_like(x), 0.0,
                              n_traj=2, dt=1e-3, t1=4.0, seed=1, sigma=0.0)
    assert ens.states[0, -1, 0] == pytest.approx(1.0, abs=0.03)


def test_escape_radius_aborts(ou_ham):
    from entroflow import HamiltonianSpec
    unstable = HamiltonianSpec(dim=1,
                               energy=lambda x: -0.5 * np.atleast_2d(x)[:, 0] ** 2,
                               grad=lambda x: -np.atleast_2d(x),
                               kT=1.0, sigma2=2.0)
    with pytest.raises(TrajectoryDivergence, match="trajectory index"):
        simulate_overdamped(unstable, None, 2.0, n_traj=4, dt=1e-2, t1=200.0,
                            seed=3, escape_radius=10.0)


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


def test_path_ensemble_validation():
    with pytest.raises(ValueError):
        PathEnsemble(np.array([0.0, 0.1]), np.zeros((0, 2, 1)), 0.1, 0)
    with pytest.raises(ValueError):
        PathEnsemble(np.array([0.0, 0.3]), np.zeros((2, 2, 1)), 0.1, 0)
    with pytest.raises(ValueError):
        PathEnsemble(np.array([0.0, 0.1]), np.full((2, 2, 1), np.nan), 0.1, 0)
    for bad in (np.nan, np.inf, -np.inf):
        states = np.zeros((2, 2, 1))
        states[1, 0, 0] = bad
        with pytest.raises(ValueError, match="ensemble states must be finite"):
            PathEnsemble(np.array([0.0, 0.1]), states, 0.1, 0)
    assert PathEnsemble(np.array([0.0, 0.1]), np.zeros((2, 2, 0)), 0.1, 0).dim == 0


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
    blocks = []

    def start(rng):
        blocks.append(len(blocks))
        return np.zeros((NOISE_BLOCK, 1))

    def step(j, y, dW):
        y = y.copy()
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
    spec = harmonic_cantilever(1.0)
    assert spec.noise_matrix[0, 0] == pytest.approx(np.sqrt(2.0))
    with pytest.raises(ValueError, match="fluctuation-dissipation"):
        PolymerSpec(masses=[1.0], potential=spec.potential,
                    grad_potential=spec.grad_potential, gamma=1.0,
                    control_gain=0.0, temperature=1.0, block_dim=1,
                    noise_matrix=[[3.0]])
    with pytest.raises(ValueError):
        harmonic_cantilever(1.0, mass=-1.0)
    with pytest.raises(ValueError):
        harmonic_cantilever(1.0, temperature=0.0)


@pytest.mark.parametrize("key", ["mass", "gamma", "control_gain", "temperature"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_polymer_spec_rejects_non_finite(key, bad):
    with pytest.raises(ValueError, match=f"{key.split('_')[0]}.* must be finite"):
        harmonic_cantilever(1.0, **{key: bad})


@pytest.mark.parametrize("window", [(np.nan, 0.1), (0.0, np.nan), (0.05, 0.05)])
def test_kinetic_temperature_rejects_bad_window(window):
    spec = harmonic_cantilever(1.0)
    ens = simulate_polymer(spec, n_traj=4, dt=1e-2, t1=0.1, seed=0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match="window outside ensemble horizon"):
            kinetic_temperature(ens, spec, window)


def test_cantilever_equipartition():
    spec = harmonic_cantilever(spring_k=1.0, gamma=1.0, control_gain=0.0,
                               temperature=1.0)
    ens = simulate_polymer(spec, n_traj=1500, dt=5e-3, t1=12.0, seed=7)
    kt = kinetic_temperature(ens, spec, window=(4.0, 12.0))
    assert kt.values[0] == pytest.approx(1.0, rel=0.02)


def test_cantilever_cooling_below_thermostat():
    spec = harmonic_cantilever(spring_k=1.0, gamma=1.0, control_gain=1.0,
                               temperature=1.0)
    ens = simulate_polymer(spec, n_traj=1500, dt=5e-3, t1=12.0, seed=7)
    kt = kinetic_temperature(ens, spec, window=(4.0, 12.0))
    assert kt.values[0] < 1.0 - 3.0 * kt.stderr[0]


def test_hamiltonian_limit_energy_conservation():
    spec = PolymerSpec(masses=[1.0],
                       potential=lambda q: 0.5 * np.sum(np.atleast_2d(q)**2, axis=-1),
                       grad_potential=lambda q: np.atleast_2d(q),
                       gamma=0.0, control_gain=0.0, temperature=1.0,
                       block_dim=1, noise_matrix=[[0.0]])
    dt = 1e-3
    ens = simulate_polymer(spec, n_traj=1, dt=dt, t1=1.0, seed=0, q0=1.0, p0=0.0)
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
        simulate_polymer(spec, n_traj=8, dt=1e-2, t1=1.0, seed=0,
                         q0=start(10.0, 5), p0=start(100.0, 3))


def test_kinetic_temperature_edge_cases():
    spec = harmonic_cantilever(1.0)
    ens = simulate_polymer(spec, n_traj=8, dt=1e-2, t1=0.5, seed=2)
    with pytest.raises(ValueError, match="window"):
        kinetic_temperature(ens, spec, window=(0.0, 2.0))
    frozen = PathEnsemble(ens.times, np.zeros_like(ens.states), ens.dt, 0)
    kt = kinetic_temperature(frozen, spec, window=(0.0, 0.5))
    assert kt.values[0] == 0.0


def test_polymer_3d_blocks_shapes():
    spec = PolymerSpec(masses=[1.0, 2.0],
                       potential=lambda q: 0.5 * np.sum(np.atleast_2d(q)**2, axis=-1),
                       grad_potential=lambda q: np.atleast_2d(q),
                       gamma=0.5, control_gain=0.0, temperature=1.0, block_dim=3)
    ens = simulate_polymer(spec, n_traj=16, dt=1e-2, t1=0.2, seed=1)
    assert ens.dim == 2 * 6
    assert polymer_momenta(ens, spec).shape == (16, 21, 6)
    kt = kinetic_temperature(ens, spec, window=(0.0, 0.2))
    assert kt.values.shape == (2,)


# ---------------------------------------------------------------------------
# density estimation
# ---------------------------------------------------------------------------

def _ensemble_from_samples(samples):
    samples = np.asarray(samples, dtype=float)
    return PathEnsemble(np.array([0.0]), samples[:, np.newaxis, :], 1.0, 0)


def test_kde_close_to_exact_gaussian():
    rng = np.random.default_rng(21)
    ens = _ensemble_from_samples(rng.standard_normal((20_000, 1)))
    grid = Grid((-8.0,), (8.0,), (512,))
    est = estimate_density(ens, 0, grid, bandwidth="auto")
    exact = GaussianDensity([0.0], [[1.0]]).sample_on(grid)
    assert relative_entropy(est, exact) < 0.05
    assert est.integrate() == pytest.approx(1.0, abs=1e-9)


def test_kde_single_sample_bump():
    ens = _ensemble_from_samples([[0.5]])
    grid = Grid((-4.0,), (4.0,), (256,))
    est = estimate_density(ens, 0, grid, bandwidth=0.3)
    assert est.integrate() == pytest.approx(1.0, abs=1e-9)
    x = grid.axis_centers(0)
    assert x[np.argmax(est.values)] == pytest.approx(0.5, abs=grid.dx[0])
    # ~gaussian bump of width 0.3
    assert est.values.max() == pytest.approx(1.0 / np.sqrt(2 * np.pi * 0.09), rel=0.01)


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
    pens = simulate_polymer(spec, n_traj=4, dt=0.1, t1=0.2, seed=1)
    header, rows = ensemble_summary(pens, spec)
    assert header == ["t", "mean0", "mean1", "cov00", "cov01", "cov10", "cov11", "Tkin0"]
    assert [len(r) for r in rows] == [len(header)] * 3
