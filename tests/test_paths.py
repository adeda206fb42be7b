import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from entroflow import GaussianDensity, Grid, GridDensity, quadratic_hamiltonian
from entroflow.paths import (
    DriftEstimate,
    EnergySum,
    IncrementBins,
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
from entroflow.sde import (
    CHUNK,
    NOISE_BLOCK,
    PathEnsemble,
    estimate_density,
    simulate_overdamped,
    stream_overdamped,
)
from entroflow.thermo import relative_entropy

from conftest import flat_hamiltonian

BIN_GRID = Grid((-4.0,), (4.0,), (64,))
POOL = list(range(20, 200))  # stationary: pool estimation over these indices


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and np.ascontiguousarray(a).tobytes() == \
        np.ascontiguousarray(b).tobytes()


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
    ham = flat_hamiltonian(0.0)
    u = lambda x, t: np.full_like(x, 0.7)
    ens = simulate_overdamped(ham, u, 0.0, n_traj=64, dt=1e-2, t1=0.3, seed=1)
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
    for pool in ([], range(5, 5)):
        with pytest.raises(ValueError, match="names no interior time"):
            estimate_forward_drift(ou_stationary, pool, BIN_GRID)
        with pytest.raises(ValueError, match="names no interior time"):
            IncrementBins(BIN_GRID, pool, ou_stationary.dt)


def test_estimator_consistency_se_scaling(ou_ham, ou_stationary):
    x0 = lambda rng, size: rng.standard_normal((size, 1))
    half = simulate_overdamped(ou_ham, None, x0, n_traj=50_000, dt=5e-3,
                               t1=1.0, seed=42)
    b_full = estimate_forward_drift(ou_stationary, POOL, BIN_GRID)
    b_half = estimate_forward_drift(half, POOL, BIN_GRID)
    m = b_full.mask & b_half.mask
    ratio = np.median(b_half.stderr[..., 0][m] / b_full.stderr[..., 0][m])
    assert 1.25 <= ratio <= 1.6


def pooled_add_at(ens, pool, grid, min_count, lag):
    """The drift estimate as pooled sums of the increments
    (x(t + lag dt) - x(t)) / (lag dt), binned by the cell of x(t) computed
    here from the grid's bounds: the floored cell along each axis, flattened
    by ``np.ravel_multi_index``.  For each block of ``NOISE_BLOCK``
    trajectories, then each time of the pool once, in increasing order,
    ``np.add.at`` adds the samples inside the box."""
    lo, hi, cells = np.array(grid.lo), np.array(grid.hi), np.array(grid.cells)
    size, dim = grid.size, grid.ndim
    counts = np.zeros(size)
    sums = np.zeros((size, dim))
    sq = np.zeros((size, dim))
    for first in range(0, ens.n_traj, NOISE_BLOCK):
        block = ens.states[first:first + NOISE_BLOCK]
        for k in sorted(set(pool)):
            x = block[:, k, :]
            dx = (block[:, k + lag, :] - x) / (lag * ens.dt)
            ij = np.floor((x - lo) / ((hi - lo) / cells)).astype(int)
            inside = np.all((ij >= 0) & (ij < cells), axis=1)
            idx = np.ravel_multi_index(tuple(ij[inside].T), grid.cells)
            np.add.at(counts, idx, 1)
            for ax in range(dim):
                np.add.at(sums[:, ax], idx, dx[inside, ax])
                np.add.at(sq[:, ax], idx, dx[inside, ax] ** 2)
    with np.errstate(invalid="ignore", divide="ignore"):
        mean = sums / counts[:, None]
        se = np.sqrt(np.maximum(sq / counts[:, None] - mean**2, 0.0) / counts[:, None])
    mean[counts < min_count] = 0.0
    se[counts < min_count] = 0.0
    return DriftEstimate(grid, mean.reshape(grid.shape + (dim,)), counts.reshape(grid.shape),
                         se.reshape(grid.shape + (dim,)), min_count)


def assert_bins_match_oracle(ens, grid, min_count, pools):
    """The stored estimators of each pool, and the streamed observer that
    ``pools`` pairs with it, are bitwise :func:`pooled_add_at`."""
    for lag, stored in ((+1, estimate_forward_drift), (-1, estimate_backward_drift)):
        for p, streamed in pools:
            ref = pooled_add_at(ens, p, grid, min_count, lag)
            for est in (stored(ens, p, grid, min_count), streamed.estimate(lag, min_count)):
                for field in ("vectors", "counts", "stderr"):
                    assert same_bits(getattr(est, field), getattr(ref, field)), (lag, field)


@settings(max_examples=20, deadline=None)
@given(n_traj=st.sampled_from([2, 1023, 1025, 3000]), steps=st.integers(2, 80),
       seed=st.integers(0, 2**32 - 1), data=st.data())
def test_one_pass_binning_is_bitwise_a_pooled_add_at(ou_ham, n_traj, steps, seed, data):
    # the streamed observer and the stored estimators against the pooled sums
    # of the oracle; the box [-0.6, 0.9] leaves about half the samples outside,
    # and pools reach both ends of the horizon and span several chunks
    dt = 0.01
    x0 = lambda rng, size: rng.standard_normal((size, 1))
    grid = Grid((-0.6,), (0.9,), (9,))
    lo = data.draw(st.integers(1, steps - 1), label="lo")
    pool = range(lo, data.draw(st.integers(lo + 1, steps), label="hi"))
    loose = data.draw(st.lists(st.integers(1, steps - 1), min_size=1, max_size=6),
                      label="unsorted pool with repeats")
    min_count = data.draw(st.integers(1, 40), label="min_count")
    ens = simulate_overdamped(ou_ham, None, x0, n_traj, dt, steps * dt, seed)
    bins, sparse = IncrementBins(grid, pool, dt), IncrementBins(grid, loose, dt)
    energy = EnergySum(n_traj, dt, lambda x: -x)
    whole = IncrementBins(grid, range(1, steps), dt)  # both ends of the horizon
    stream_overdamped(ou_ham, None, x0, n_traj, dt, steps * dt, seed,
                      (bins.add, sparse.add, whole.add, energy.add))
    assert_bins_match_oracle(ens, grid, min_count,
                             ((pool, bins), (range(1, steps), whole), (loose, sparse)))
    fe = finite_energy_estimate(ens, lambda x: -x)
    assert energy.estimate() == fe
    per_traj = np.zeros(n_traj)
    for k in range(steps):
        per_traj += ens.states[:, k, 0] ** 2 * dt
    assert fe.value == float(per_traj.mean())


def test_two_dimensional_binning_is_bitwise_a_pooled_add_at():
    # a 2-D grid flattens its cells in C order; the box leaves samples outside
    # along each axis, the ensemble ends with a one-trajectory block, and the
    # pools span several chunks, one of them sparse, unsorted and repeating
    ham = quadratic_hamiltonian(np.array([[1.0, 0.4], [0.4, 2.0]]), kT=1.0, sigma2=2.0)
    x0 = lambda rng, size: rng.standard_normal((size, 2))
    n_traj, steps, dt = NOISE_BLOCK + 1, 3 * CHUNK + 5, 0.01
    grid = Grid((-1.2, -0.5), (0.9, 1.4), (5, 4))
    pool = range(CHUNK - 3, 2 * CHUNK + 7)
    loose = [70, 3, CHUNK, 17, CHUNK, 2 * CHUNK + 1, 4, 5]
    ens = simulate_overdamped(ham, None, x0, n_traj, dt, steps * dt, 11)
    _, inside = grid.cell_index(ens.states[:, pool].reshape(-1, 2))
    assert 0.2 < inside.mean() < 0.8
    bins, sparse = IncrementBins(grid, pool, dt), IncrementBins(grid, loose, dt)
    stream_overdamped(ham, None, x0, n_traj, dt, steps * dt, 11, (bins.add, sparse.add))
    assert_bins_match_oracle(ens, grid, 3, ((pool, bins), (loose, sparse)))


def test_a_repeated_pool_time_counts_once(ou_ham):
    # a repeated time is the same samples: counting them twice would shrink
    # each cell's standard error by sqrt(2) and let a cell pass min_count on
    # half its samples
    x0 = lambda rng, size: rng.standard_normal((size, 1))
    n_traj, steps, dt = NOISE_BLOCK + 5, 2 * CHUNK + 3, 0.01
    repeated, once = [9, 40, 9, CHUNK, 40, 40, 3], [3, 9, CHUNK, 40]
    ens = simulate_overdamped(ou_ham, None, x0, n_traj, dt, steps * dt, 7)
    twice, single = IncrementBins(BIN_GRID, repeated, dt), IncrementBins(BIN_GRID, once, dt)
    stream_overdamped(ou_ham, None, x0, n_traj, dt, steps * dt, 7, (twice.add, single.add))
    for lag, stored in ((+1, estimate_forward_drift), (-1, estimate_backward_drift)):
        pairs = ((twice.estimate(lag, 5), single.estimate(lag, 5)),
                 (stored(ens, repeated, BIN_GRID, 5), stored(ens, once, BIN_GRID, 5)))
        for est, ref in pairs:
            for field in ("vectors", "counts", "stderr"):
                assert same_bits(getattr(est, field), getattr(ref, field)), (lag, field)


def test_bins_do_not_grow_with_the_pool():
    # one pooled count and two pooled sums per cell and lag, whatever the pool
    grid = Grid((-4.0,), (4.0,), (1000,))

    def held(bins):
        return sum(a.nbytes for a in (*bins.counts.values(), *bins.sums.values()))

    assert held(IncrementBins(grid, [80], 0.01)) == held(IncrementBins(grid, range(1, 161), 0.01))


def test_binning_a_chunk_allocates_no_chunk_sized_array():
    # after the first chunk, the work buffers are kept: later chunks raise the
    # traced peak by far less than the chunk itself
    rng = np.random.default_rng(0)
    X = rng.standard_normal((CHUNK + 1, NOISE_BLOCK, 1))
    bins = IncrementBins(BIN_GRID, range(0, 4 * CHUNK), 0.01)
    tracemalloc.start()
    try:
        bins.add(0, 0, X)
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        for t0 in (CHUNK, 2 * CHUNK, 3 * CHUNK):
            bins.add(0, t0, X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - base < X.nbytes / 4, (peak - base, X.nbytes)


def test_streamed_bins_count_only_samples_with_an_increment(ou_ham):
    # time 10 ends a 10-step run, so it has a backward step but no forward
    # one, and time 50 lies past the horizon: neither may count a sample
    # whose increment it never adds
    x0 = lambda rng, size: rng.standard_normal((size, 1))
    ens = simulate_overdamped(ou_ham, None, x0, 500, 0.01, 0.1, 1)
    bins = IncrementBins(BIN_GRID, [4, 10, 50], 0.01)
    stream_overdamped(ou_ham, None, x0, 500, 0.01, 0.1, 1, (bins.add,))
    for lag, stored, pool in ((+1, estimate_forward_drift, [4]),
                              (-1, estimate_backward_drift, [4, 10])):
        est, ref = bins.estimate(lag, 5), stored(ens, pool, BIN_GRID, 5)
        for field in ("vectors", "counts", "stderr"):
            assert same_bits(getattr(est, field), getattr(ref, field)), (lag, field)


def test_streamed_energy_from_an_estimated_field(ou_ham):
    x0 = lambda rng, size: rng.standard_normal((size, 1))
    ens = simulate_overdamped(ou_ham, None, x0, 3000, 0.01, 0.8, 5)
    beta = estimate_forward_drift(ens, range(1, 79), BIN_GRID, min_count=5)
    energy = EnergySum(3000, 0.01, beta)
    stream_overdamped(ou_ham, None, x0, 3000, 0.01, 0.8, 5, (energy.add,))
    assert energy.estimate() == finite_energy_estimate(ens, beta)


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
                              n_traj=2000, dt=1e-2, t1=0.2, seed=5)
    grid = Grid((-2.0,), (2.0,), (16,))
    beta = estimate_forward_drift(ens, 10, grid, min_count=5)
    gamma = estimate_backward_drift(ens, 10, grid, min_count=5)
    p = estimate_density(ens, 10, grid)
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


def test_finite_energy_needs_a_step():
    # a one-time ensemble has no step to integrate over
    ens = PathEnsemble(np.array([0.0]), np.zeros((5, 1, 1)), 0.1, 0)
    estimate = DriftEstimate(BIN_GRID, np.ones((64, 1)), np.full(64, 50), np.zeros((64, 1)))
    for field in (lambda x: -x, estimate):
        with pytest.raises(ValueError, match="no step"):
            finite_energy_estimate(ens, field)


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
                              n_traj=5000, dt=1e-2, t1=0.3, seed=8)
    grid = Grid((-2.0,), (2.0,), (16,))
    v = current_drift(estimate_forward_drift(ens, 15, grid, min_count=5),
                      estimate_backward_drift(ens, 15, grid, min_count=5))
    rows = weak_continuity_check(ens, v, default_test_functions()[:1], 15)
    assert rows[0].ensemble_rate == pytest.approx(c, rel=1e-10)
    assert rows[0].transport_rate == pytest.approx(c, rel=1e-10)


def test_weak_continuity_needs_two_samples_in_populated_cells(ou_ham):
    grid = Grid((-1.0,), (1.0,), (4,))
    # min_count above n_traj: no cell is populated, so no sample is usable
    ens = simulate_overdamped(ou_ham, None, 0.0, n_traj=50, dt=0.01, t1=0.1, seed=1)
    v = current_drift(estimate_forward_drift(ens, 5, grid, min_count=51),
                      estimate_backward_drift(ens, 5, grid, min_count=51))
    with pytest.raises(ValueError, match="0 sample"):
        weak_continuity_check(ens, v, default_test_functions(), 5)
    # exactly one sample in a populated cell: a mean, but no standard error
    x = np.array([0.1, 5.0, -6.0])
    lone = PathEnsemble(np.array([0.0, 0.1, 0.2]), np.repeat(x[:, None, None], 3, axis=1),
                        0.1, 0)
    full = DriftEstimate(grid, np.zeros((4, 1)), np.full(4, 100.0), np.zeros((4, 1)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="1 sample"):
            weak_continuity_check(lone, full, default_test_functions(), 1)


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
    return GridDensity(d.grid, vals)


def _estimated_rate_and_fd(ens_a, ens_b, grid, k, dk):
    va = current_drift(estimate_forward_drift(ens_a, k, grid),
                       estimate_backward_drift(ens_a, k, grid))
    vb = current_drift(estimate_forward_drift(ens_b, k, grid),
                       estimate_backward_drift(ens_b, k, grid))
    pa = _floored(estimate_density(ens_a, k, grid))
    pb = _floored(estimate_density(ens_b, k, grid))
    formula = relative_entropy_rate(pa, pb, va.field(), vb.field())
    D = [relative_entropy(_floored(estimate_density(ens_a, k + s, grid)),
                          _floored(estimate_density(ens_b, k + s, grid)))
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
    k, dk = 40, 10
    formula, fd = _estimated_rate_and_fd(ens_a, ens_b, grid, k, dk)
    diffs = []
    for i in range(10):
        sl = slice(i * n // 10, (i + 1) * n // 10)
        f_i, fd_i = _estimated_rate_and_fd(
            PathEnsemble(ens_a.times, ens_a.states[sl], dt, 0),
            PathEnsemble(ens_b.times, ens_b.states[sl], dt, 0), grid, k, dk)
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
