import warnings

import numpy as np
import pytest

from entroflow import GaussianDensity, Grid, GridDensity, HamiltonianSpec, quadratic_hamiltonian
from entroflow.paths import (
    DriftEstimate,
    current_drift,
    default_test_functions,
    drift_field_rows,
    estimate_backward_drift,
    estimate_forward_drift,
    finite_energy_estimate,
    osmotic_residual,
    weak_continuity_check,
)
from entroflow.production import relative_entropy_rate
from entroflow.sde import PathEnsemble, estimate_density, simulate_overdamped
from entroflow.thermo import relative_entropy

BIN_GRID = Grid((-4.0,), (4.0,), (64,))
POOL = list(range(20, 200))  # stationary: pool estimation over these indices


def flat_hamiltonian(sigma2):
    return HamiltonianSpec(dim=1,
                           energy=lambda x: np.zeros(np.atleast_2d(x).shape[0]),
                           grad=lambda x: np.zeros_like(np.atleast_2d(x)),
                           kT=1.0, sigma2=sigma2)


@pytest.fixture(scope="module")
def ou_stationary(ou_ham):
    x0 = lambda rng, size: rng.standard_normal((size, 1))
    return simulate_overdamped(ou_ham, None, x0, n_traj=100_000, dt=5e-3,
                               t1=1.0, seed=42)


# ---------------------------------------------------------------------------
# drift estimators
# ---------------------------------------------------------------------------

def test_forward_drift_recovers_ou(ou_stationary):
    beta = estimate_forward_drift(ou_stationary, POOL, BIN_GRID)
    x = BIN_GRID.centers()[..., 0]
    m = beta.mask
    assert m.sum() > 40
    z = np.abs(beta.vectors[..., 0] + x)[m] / beta.stderr[..., 0][m]
    assert np.max(z) < 3.0


def test_backward_drift_recovers_osmotic_reversal(ou_stationary):
    # gamma = beta - sigma2 grad log p = -x + 2x = +x for the stationary OU
    gamma = estimate_backward_drift(ou_stationary, POOL, BIN_GRID)
    x = BIN_GRID.centers()[..., 0]
    m = gamma.mask
    z = np.abs(gamma.vectors[..., 0] - x)[m] / gamma.stderr[..., 0][m]
    assert np.max(z) < 3.0


def test_deterministic_ensemble_exact_drifts():
    ham = flat_hamiltonian(2.0)
    u = lambda x, t: np.full_like(x, 0.7)
    ens = simulate_overdamped(ham, u, 0.0, n_traj=64, dt=1e-2, t1=0.3,
                              seed=1, sigma=0.0)
    grid = Grid((-1.0,), (1.0,), (16,))
    beta = estimate_forward_drift(ens, 10, grid, min_count=1)
    gamma = estimate_backward_drift(ens, 10, grid, min_count=1)
    occupied = beta.counts > 0
    assert np.allclose(beta.vectors[occupied], 0.7, atol=1e-12)
    assert np.allclose(gamma.vectors[occupied], 0.7, atol=1e-12)


def test_pure_wiener_driftless(ou_ham):
    ham = flat_hamiltonian(2.0)
    x0 = lambda rng, size: rng.standard_normal((size, 1))
    ens = simulate_overdamped(ham, None, x0, n_traj=50_000, dt=5e-3, t1=0.25,
                              seed=3)
    beta = estimate_forward_drift(ens, list(range(10, 50)), BIN_GRID)
    m = beta.mask
    z = np.abs(beta.vectors[..., 0][m]) / beta.stderr[..., 0][m]
    assert np.max(z) < 3.0


def test_backward_drift_wide_wiener_interior():
    # near-stationary Wiener: uniform start on a wide box, symmetric increments
    ham = flat_hamiltonian(2.0)
    x0 = lambda rng, size: rng.uniform(-10.0, 10.0, (size, 1))
    ens = simulate_overdamped(ham, None, x0, n_traj=50_000, dt=5e-3, t1=0.05,
                              seed=4)
    interior = Grid((-3.0,), (3.0,), (24,))
    gamma = estimate_backward_drift(ens, [6, 7, 8, 9, 10], interior)
    m = gamma.mask
    z = np.abs(gamma.vectors[..., 0][m]) / gamma.stderr[..., 0][m]
    assert np.max(z) < 3.3


def test_index_validation(ou_stationary):
    with pytest.raises(ValueError):
        estimate_forward_drift(ou_stationary, len(ou_stationary.times) - 1, BIN_GRID)
    with pytest.raises(ValueError):
        estimate_backward_drift(ou_stationary, 0, BIN_GRID)


def test_estimator_consistency_se_scaling(ou_ham, ou_stationary):
    x0 = lambda rng, size: rng.standard_normal((size, 1))
    half = simulate_overdamped(ou_ham, None, x0, n_traj=50_000, dt=5e-3,
                               t1=1.0, seed=42)
    b_full = estimate_forward_drift(ou_stationary, POOL, BIN_GRID)
    b_half = estimate_forward_drift(half, POOL, BIN_GRID)
    m = b_full.mask & b_half.mask
    ratio = np.median(b_half.stderr[..., 0][m] / b_full.stderr[..., 0][m])
    assert 1.25 <= ratio <= 1.6


# ---------------------------------------------------------------------------
# osmotic relation
# ---------------------------------------------------------------------------

def test_osmotic_residual_statistical_floor(ou_stationary):
    beta = estimate_forward_drift(ou_stationary, POOL, BIN_GRID)
    gamma = estimate_backward_drift(ou_stationary, POOL, BIN_GRID)
    p_hat = estimate_density(ou_stationary, 100, BIN_GRID)
    assert osmotic_residual(beta, gamma, p_hat, 2.0) < 0.1


def test_osmotic_residual_shrinks_with_ensemble(ou_ham, ou_stationary):
    x0 = lambda rng, size: rng.standard_normal((size, 1))
    small = simulate_overdamped(ou_ham, None, x0, n_traj=10_000, dt=5e-3,
                                t1=1.0, seed=42)
    def resid(ens):
        b = estimate_forward_drift(ens, POOL, BIN_GRID)
        g = estimate_backward_drift(ens, POOL, BIN_GRID)
        return osmotic_residual(b, g, estimate_density(ens, 100, BIN_GRID), 2.0)
    assert resid(ou_stationary) < resid(small)


def test_osmotic_residual_deterministic_flow():
    ham = flat_hamiltonian(0.0)
    u = lambda x, t: np.full_like(x, 0.5)
    ens = simulate_overdamped(ham, u, lambda rng, s: rng.uniform(-1, 1, (s, 1)),
                              n_traj=2000, dt=1e-2, t1=0.2, seed=5, sigma=0.0)
    grid = Grid((-2.0,), (2.0,), (16,))
    beta = estimate_forward_drift(ens, 10, grid, min_count=5)
    gamma = estimate_backward_drift(ens, 10, grid, min_count=5)
    p = estimate_density(ens, 10, grid, bandwidth=0.2)
    assert osmotic_residual(beta, gamma, p, 0.0) == pytest.approx(0.0, abs=1e-12)


def test_osmotic_identity_synthetic_fields():
    grid = BIN_GRID
    x = grid.centers()
    counts = np.full(grid.shape, 1000.0)
    se = np.zeros(grid.shape + (1,))
    beta = DriftEstimate(grid, -x, counts, se)
    gamma = DriftEstimate(grid, x, counts, se)
    p = GaussianDensity([0.0], [[1.0]]).sample_on(grid)
    assert osmotic_residual(beta, gamma, p, 2.0) < 1e-8


# ---------------------------------------------------------------------------
# current drift
# ---------------------------------------------------------------------------

def test_current_drift_vanishes_in_stationarity(ou_stationary):
    beta = estimate_forward_drift(ou_stationary, POOL, BIN_GRID)
    gamma = estimate_backward_drift(ou_stationary, POOL, BIN_GRID)
    v = current_drift(beta, gamma)
    m = v.mask
    z = np.abs(v.vectors[..., 0][m]) / v.stderr[..., 0][m]
    assert np.max(z) < 3.0


def test_current_drift_antisymmetric_cancels():
    grid = BIN_GRID
    x = grid.centers()
    counts = np.full(grid.shape, 50.0)
    se = np.zeros(grid.shape + (1,))
    v = current_drift(DriftEstimate(grid, x, counts, se),
                      DriftEstimate(grid, -x, counts, se))
    assert np.all(v.vectors == 0.0)
    assert np.all(v.counts == 50.0)


# ---------------------------------------------------------------------------
# finite energy
# ---------------------------------------------------------------------------

def test_finite_energy_stationary_ou(ou_stationary):
    fe = finite_energy_estimate(ou_stationary, lambda x: -x)
    assert abs(fe.value - 1.0) < 3.0 * fe.stderr
    assert fe.coverage == 1.0


def test_finite_energy_zero_drift(ou_stationary):
    fe = finite_energy_estimate(ou_stationary, lambda x: np.zeros_like(x))
    assert fe.value == 0.0


def test_finite_energy_steeper_well():
    # drift -2x, stationary variance 1/2: E int |beta|^2 dt = 4 * 0.5 = 2
    ham = quadratic_hamiltonian(2.0, kT=1.0, sigma2=2.0)
    x0 = lambda rng, size: np.sqrt(0.5) * rng.standard_normal((size, 1))
    ens = simulate_overdamped(ham, None, x0, n_traj=50_000, dt=2e-3, t1=1.0, seed=6)
    fe = finite_energy_estimate(ens, lambda x: -2.0 * x)
    assert abs(fe.value - 2.0) < 3.0 * fe.stderr


def test_finite_energy_from_estimated_field(ou_stationary):
    beta = estimate_forward_drift(ou_stationary, POOL, BIN_GRID)
    fe = finite_energy_estimate(ou_stationary, beta)
    assert fe.coverage > 0.99
    assert fe.value == pytest.approx(1.0, rel=0.05)


# ---------------------------------------------------------------------------
# weak continuity equation
# ---------------------------------------------------------------------------

def test_weak_continuity_stationary(ou_stationary):
    beta = estimate_forward_drift(ou_stationary, POOL, BIN_GRID)
    gamma = estimate_backward_drift(ou_stationary, POOL, BIN_GRID)
    v = current_drift(beta, gamma)
    rows = weak_continuity_check(ou_stationary, v, default_test_functions(), 100)
    for r in rows:
        assert r.consistent
        assert abs(r.transport_rate) < 3.0 * max(r.se_transport, 1e-3) + 0.02


def test_weak_continuity_deterministic_transport():
    ham = flat_hamiltonian(0.0)
    c = 0.8
    u = lambda x, t: np.full_like(x, c)
    ens = simulate_overdamped(ham, u, lambda rng, s: rng.uniform(-1, 1, (s, 1)),
                              n_traj=5000, dt=1e-2, t1=0.3, seed=8, sigma=0.0)
    grid = Grid((-2.0,), (2.0,), (16,))
    v = current_drift(estimate_forward_drift(ens, 15, grid, min_count=5),
                      estimate_backward_drift(ens, 15, grid, min_count=5))
    rows = weak_continuity_check(ens, v, default_test_functions()[:1], 15)
    assert rows[0].ensemble_rate == pytest.approx(c, rel=1e-10)
    assert rows[0].transport_rate == pytest.approx(c, rel=1e-10)


def test_weak_continuity_ou_relaxation(ou_ham):
    x0 = lambda rng, size: 1.0 + rng.standard_normal((size, 1))
    ens = simulate_overdamped(ou_ham, None, x0, n_traj=50_000, dt=5e-3, t1=0.3,
                              seed=9)
    k = 30
    grid = Grid((-4.0,), (6.0,), (64,))
    v = current_drift(estimate_forward_drift(ens, k, grid),
                      estimate_backward_drift(ens, k, grid))
    rows = weak_continuity_check(ens, v, default_test_functions()[:1], k)
    mean_t = ens.states[:, k, 0].mean()
    assert rows[0].consistent
    assert rows[0].ensemble_rate == pytest.approx(-mean_t, abs=3.0 * rows[0].se_ensemble)


# ---------------------------------------------------------------------------
# rate formula with estimated current drifts (OU relaxation testbed)
# ---------------------------------------------------------------------------

def _floored(d, eps=1e-10):
    vals = (1.0 - eps) * d.values + eps / np.prod(np.asarray(d.grid.hi) - np.asarray(d.grid.lo))
    return GridDensity(d.grid, vals, mass=1.0)


def _estimated_rate_and_fd(ens_a, ens_b, grid, k, dk, bw):
    va = current_drift(estimate_forward_drift(ens_a, k, grid),
                       estimate_backward_drift(ens_a, k, grid))
    vb = current_drift(estimate_forward_drift(ens_b, k, grid),
                       estimate_backward_drift(ens_b, k, grid))
    pa = _floored(estimate_density(ens_a, k, grid, bandwidth=bw))
    pb = _floored(estimate_density(ens_b, k, grid, bandwidth=bw))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        formula = relative_entropy_rate(pa, pb, va.field(), vb.field(),
                                        check_boundary=False)
    D = [relative_entropy(_floored(estimate_density(ens_a, k + s, grid, bandwidth=bw)),
                          _floored(estimate_density(ens_b, k + s, grid, bandwidth=bw)))
         for s in (-dk, dk)]
    fd = (D[1] - D[0]) / (2 * dk * ens_a.dt)
    return formula, fd


def test_rate_formula_with_current_drifts(ou_ham):
    n, dt = 100_000, 5e-3
    grid = Grid((-5.0,), (5.0,), (100,))
    mk = lambda seed, mean: simulate_overdamped(
        ou_ham, None, lambda rng, s: mean + rng.standard_normal((s, 1)),
        n_traj=n, dt=dt, t1=0.4, seed=seed)
    ens_a = mk(10, 1.0)
    ens_b = mk(11, 0.0)
    k, dk, bw = 40, 10, 0.11
    formula, fd = _estimated_rate_and_fd(ens_a, ens_b, grid, k, dk, bw)
    diffs = []
    for i in range(10):
        sl = slice(i * n // 10, (i + 1) * n // 10)
        f_i, fd_i = _estimated_rate_and_fd(
            PathEnsemble(ens_a.times, ens_a.states[sl], dt, 0),
            PathEnsemble(ens_b.times, ens_b.states[sl], dt, 0), grid, k, dk, bw)
        diffs.append(f_i - fd_i)
    se = np.std(diffs, ddof=1) / np.sqrt(len(diffs))
    assert abs(formula - fd) < 3.0 * se


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------

def test_drift_fields_csv(ou_stationary):
    beta = estimate_forward_drift(ou_stationary, 50, BIN_GRID)
    gamma = estimate_backward_drift(ou_stationary, 50, BIN_GRID)
    v = current_drift(beta, gamma)
    header, rows = drift_field_rows(beta, gamma, v)
    assert header == ["x0", "beta", "gamma", "v", "count", "se"]
    assert [len(r) for r in rows] == [len(header)] * BIN_GRID.size
