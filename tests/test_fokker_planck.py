import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg
from hypothesis import example, given, settings, strategies as st

import entroflow
from entroflow import GaussianDensity, Grid, GridDensity, gibbs_density
from entroflow.control import simulate_feedback
from entroflow.fokker_planck import (
    MassDriftError,
    PositivityError,
    _Stepper,
    bernoulli,
    clock_rate,
    continuity_velocity,
    energy_slopes,
    evolve,
    potential_drifts,
)
from entroflow.grids import MASS_TOL, boundary_certificate, quadrature
from entroflow.thermo import HamiltonianSpec, quadratic_hamiltonian, relative_entropy
from entroflow.tolerances import DENSITY_FLOOR, KRYLOV_RTOL

from conftest import flat_hamiltonian, same_bits, stencil_csr


def test_bernoulli_limits():
    assert bernoulli(np.array([0.0]))[0] == 1.0
    assert bernoulli(np.array([1e-12]))[0] == pytest.approx(1.0, abs=1e-11)
    assert bernoulli(np.array([800.0]))[0] == 0.0
    assert bernoulli(np.array([-800.0]))[0] == pytest.approx(800.0)
    # B(-z) = exp(z) B(z): the detailed-balance identity behind the scheme
    z = np.array([0.3])
    assert bernoulli(-z)[0] == pytest.approx(float(bernoulli(z)[0] * np.exp(z[0])), rel=1e-12)


def test_assembly_1d_matches_nd():
    # the banded 1-D step solves the Crank-Nicolson system of the loaded stencil
    grid = Grid((-2.0,), (2.0,), (32,))
    rng = np.random.default_rng(0)
    faces = [rng.normal(size=31)]
    rho = GaussianDensity([0.3], [[0.5]]).sample_on(grid).values
    eye = scipy.sparse.identity(grid.size, format="csc")
    dt = 0.01
    stepper = _Stepper(grid, dt)
    stepper.load(0.7, faces)
    A = stencil_csr(stepper)
    for s in (1.0, 1.7):
        x = stepper.advance(rho, s, dt)
        ref = scipy.sparse.linalg.spsolve((eye - 0.5 * dt * s * A).tocsc(),
                                          rho + 0.5 * dt * s * (A @ rho))
        assert np.max(np.abs(x - ref)) <= 1e-13 * np.max(np.abs(ref))
    # columns sum to zero: mass conservation is structural
    assert np.allclose(A.toarray().sum(axis=0), 0.0, atol=1e-14)


def test_one_stepper_per_run(monkeypatch, ou_ham):
    # the grid fixes the operator's pattern, so a run builds one stepper:
    # evolve loads it once, simulate_feedback once per solve
    real, builds = _Stepper.__init__, []

    def counting(self, *args):
        builds.append(args)
        real(self, *args)

    monkeypatch.setattr(_Stepper, "__init__", counting)
    grid_1d = Grid((-6.0,), (6.0,), (64,))
    grid_2d = Grid((-4.0, -4.0), (4.0, 4.0), (16, 16))
    ham_2d = quadratic_hamiltonian(np.eye(2), kT=1.0, sigma2=2.0)
    for ham, grid in ((ou_ham, grid_1d), (ham_2d, grid_2d)):
        rho0 = GaussianDensity(np.full(grid.ndim, 0.5), np.eye(grid.ndim)).sample_on(grid)
        for run in (
                lambda: evolve(ham, 0.0, rho0, 0.0, 0.05, 0.01),
                lambda: evolve(ham, lambda t: 10.0 * t, rho0, 0.0, 0.05, 0.01),
                lambda: simulate_feedback(ham, lambda t: 10.0 * t, rho0, 0.05, 0.01)):
            builds.clear()
            run()
            assert len(builds) == 1


def test_heat_kernel_variance():
    # pure diffusion: Var(t) = Var(0) + sigma2 * t
    grid = Grid((-9.0,), (9.0,), (1024,))
    rho0 = GaussianDensity([0.0], [[1.0]]).sample_on(grid)
    traj = evolve(flat_hamiltonian(2.0), 0.0, rho0, 0.0, 0.5, 1e-3, store_every=100)
    v = traj.densities[-1].covariance()[0, 0]
    assert v == pytest.approx(2.0, rel=0.01)
    exact = GaussianDensity([0.0], [[2.0]]).sample_on(grid)
    assert np.max(np.abs(traj.densities[-1].values - exact.values)) < 5e-4


def test_ou_moments(ou_ham):
    # linear SDE moment ODEs: m(t) = m0 e^{-t}, P(t) = 1 + (P0 - 1) e^{-2t}
    grid = Grid((-9.0,), (9.0,), (1024,))
    rho0 = GaussianDensity([1.0], [[2.0]]).sample_on(grid)
    traj = evolve(ou_ham, 0.0, rho0, 0.0, 0.3, 1e-3, store_every=50)
    m = traj.densities[-1].mean()[0]
    v = traj.densities[-1].covariance()[0, 0]
    assert m == pytest.approx(np.exp(-0.3), rel=0.01)
    assert m == pytest.approx(0.74082, rel=0.01)
    assert v == pytest.approx(1.0 + np.exp(-0.6), rel=0.01)
    assert v == pytest.approx(1.54881, rel=0.01)


def test_gibbs_is_stationary(ou_ham, ou_grid):
    rho_bar = gibbs_density(ou_ham, ou_grid)
    traj = evolve(ou_ham, 0.0, rho_bar, 0.0, 1.0, 1e-2, store_every=20)
    sup = max(np.max(np.abs(d.values - rho_bar.values)) for d in traj.densities)
    assert sup < 1e-6
    assert relative_entropy(traj.densities[-1], rho_bar) < 1e-6


def test_mass_conservation_and_positivity(ou_ham):
    grid = Grid((-9.0,), (9.0,), (512,))
    rho0 = GaussianDensity([1.0], [[0.5]]).sample_on(grid)
    traj = evolve(ou_ham, 0.0, rho0, 0.0, 1.0, 1e-3, store_every=100)
    masses = traj.mass_curve()
    assert np.max(np.abs(masses - masses[0])) < 1e-10
    assert all(d.values.min() >= 0.0 for d in traj.densities)


def test_modulated_flow_equals_rescaled_drift(ou_grid):
    # gain-alpha evolution == the uncontrolled evolution of the model with
    # sigma2 + 2 alpha: one discrete operator, so bit for bit; the gains are
    # dyadic, so sigma2/2 + alpha rounds alike on both sides
    grid_2d = Grid((-5.0, -5.0), (5.0, 5.0), (32, 32))
    for Q, grid, dt in ((1.0, ou_grid, 1e-3), ([[1.0, 0.3], [0.3, 2.0]], grid_2d, 1e-2)):
        rho0 = GaussianDensity([1.0, -0.5][:grid.ndim],
                               np.diag([2.0, 0.7][:grid.ndim])).sample_on(grid)
        ham = quadratic_hamiltonian(Q, kT=1.0, sigma2=2.0)
        for gain in (0.5, 1.0):
            rescaled = quadratic_hamiltonian(Q, kT=1.0, sigma2=2.0 + 2.0 * gain)
            a = evolve(ham, gain, rho0, 0.0, 0.2, dt, store_every=40)
            b = evolve(rescaled, 0.0, rho0, 0.0, 0.2, dt, store_every=40)
            assert np.array_equal(a.values, b.values)


def test_convergence_order(ou_ham):
    exact_m = np.exp(-0.3)
    exact_v = 1.0 + np.exp(-0.6)

    def run(cells, dt):
        grid = Grid((-9.0,), (9.0,), (cells,))
        rho0 = GaussianDensity([1.0], [[2.0]]).sample_on(grid)
        traj = evolve(ou_ham, 0.0, rho0, 0.0, 0.3, dt, store_every=10**9)
        d = traj.densities[-1]
        return abs(d.mean()[0] - exact_m) + abs(d.covariance()[0, 0] - exact_v)

    err_coarse = run(128, 0.02)
    err_fine = run(256, 0.01)
    assert err_coarse / err_fine >= 1.8


def test_positivity_error_on_rough_data():
    # a single-cell spike under Crank-Nicolson with a large dt rings negative,
    # in 1-D (banded solve) and 2-D (Krylov solve); the suggested dt is
    # 2 / max|diag A|, where the explicit half turns nonnegative, so a rerun at
    # the largest dt below it that divides the horizon keeps every density
    # nonnegative
    t1 = 0.1
    for grid in (Grid((-8.0,), (8.0,), (128,)), Grid((-4.0, -4.0), (4.0, 4.0), (32, 32))):
        vals = np.zeros(grid.shape)
        vals[tuple(c // 2 for c in grid.cells)] = 1.0 / grid.cell_volume
        spike = GridDensity(grid, vals)
        ham = flat_hamiltonian(2.0, dim=grid.ndim)
        with pytest.raises(PositivityError, match="positivity lost") as err:
            evolve(ham, 0.0, spike, 0.0, t1, 0.05)
        hint = float(re.search(r"try dt <= (\S+)$", str(err.value)).group(1))
        A = operator(grid, ham, 0.0)
        assert hint == pytest.approx(2.0 / np.max(np.abs(A.diagonal())), rel=1e-3)
        dt = t1 / np.ceil(t1 / hint)
        assert dt <= hint
        assert evolve(ham, 0.0, spike, 0.0, t1, dt).values.min() >= 0.0


def test_evolve_rejects_bad_time_grid(ou_ham):
    grid = Grid((-8.0,), (8.0,), (64,))
    rho0 = GaussianDensity([0.0], [[1.0]]).sample_on(grid)
    with pytest.raises(ValueError):
        evolve(ou_ham, 0.0, rho0, 0.0, 0.1, -1e-3)
    with pytest.raises(ValueError):
        evolve(ou_ham, 0.0, rho0, 0.0, 0.105, 1e-2)


def test_evolve_2d_heat():
    grid = Grid((-6.0, -6.0), (6.0, 6.0), (96, 96))
    rho0 = GaussianDensity([0.0, 0.0], np.eye(2)).sample_on(grid)
    traj = evolve(flat_hamiltonian(2.0, dim=2), 0.0, rho0, 0.0, 0.25, 5e-3,
                  store_every=50)
    cov = traj.densities[-1].covariance()
    assert cov[0, 0] == pytest.approx(1.5, rel=0.02)
    assert cov[1, 1] == pytest.approx(1.5, rel=0.02)
    assert abs(cov[0, 1]) < 1e-6


def test_continuity_velocity_zero_at_equilibrium(ou_ham, ou_grid):
    rho_bar = gibbs_density(ou_ham, ou_grid)
    v = continuity_velocity(rho_bar, ou_ham, 0.0, 0.0)
    assert np.max(np.abs(v.vectors)) < 1e-10


def test_boundary_decay_report(ou_ham, ou_grid):
    # the boundary-decay condition of the rate formulas, read off the
    # densities: a confined Gaussian pair is certified, and so is every
    # density the OU flow carries the first one through
    rho = GaussianDensity([1.0], [[1.0]]).sample_on(ou_grid)
    rho_ref = GaussianDensity([0.0], [[1.0]]).sample_on(ou_grid)
    assert not rho.boundary_suspect and not rho_ref.boundary_suspect
    traj = evolve(ou_ham, 0.0, rho, 0.0, 0.5, 0.05, store_every=2)
    ratios, suspect = boundary_certificate(ou_grid, traj.values)
    assert ratios.shape == (len(traj),) and not suspect.any()

    # a uniform density on a small box is all boundary: ratio 1, suspect
    small = Grid((-1.0,), (1.0,), (32,))
    uni = GridDensity(small, np.full(32, 0.5))
    assert uni.boundary_suspect
    assert boundary_certificate(small, uni.values) == (1.0, True)


def test_mass_drift_is_a_numerical_error():
    # a leak above MASS_TOL and a solve that is not finite fail the step's
    # own check, on the banded and on the Krylov stepper
    for grid in (Grid((-4.0,), (4.0,), (64,)), Grid((-4.0, -4.0), (4.0, 4.0), (16, 16))):
        rho = GaussianDensity(np.zeros(grid.ndim), np.eye(grid.ndim)).sample_on(grid).values
        stepper = _Stepper(grid, 0.01)
        stepper.load(0.7, [np.zeros(tuple(c - (i == a) for i, c in enumerate(grid.cells)))
                           for a in range(grid.ndim)])
        with pytest.raises(MassDriftError, match="mass drift at t=0.1: "):
            stepper.advance(rho * (1.0 + 2e-7), 1.0, 0.1)
        solve = stepper._solve

        def nan_solve(rho):
            x = solve(rho)
            x.flat[x.size // 2] = np.nan
            return x

        stepper._solve = nan_solve
        with pytest.raises(MassDriftError, match="mass drift at t=0.1: nan != 1"):
            stepper.advance(rho, 1.0, 0.1)


def test_failed_tridiagonal_solve_is_a_linalg_error(monkeypatch):
    # LAPACK reports a zero pivot through info, not by raising: the 1-D step
    # raises LinAlgError, a numerical failure to the CLI, as solve_banded did
    grid = Grid((-4.0,), (4.0,), (64,))
    rho = GaussianDensity([0.0], [[1.0]]).sample_on(grid).values
    stepper = _Stepper(grid, 0.01)
    stepper.load(0.7, [np.zeros(63)])
    dgtsv = scipy.linalg.lapack.dgtsv
    monkeypatch.setattr(scipy.linalg.lapack, "dgtsv", lambda *args: (*dgtsv(*args)[:4], 5))
    with pytest.raises(np.linalg.LinAlgError, match=r"dgtsv info=5"):
        stepper.advance(rho, 1.0, 0.01)


def stored_run(cells, half, q, gain, steps, store_every):
    """A run of ``steps`` steps at ``gain`` from a Gaussian on the cube
    [-half, half]^d, for H = x^T diag(q) x / 2 with kT = 1, sigma2 = 2."""
    ndim = len(cells)
    ham = quadratic_hamiltonian(np.diag(q), kT=1.0, sigma2=2.0)
    grid = Grid((-half,) * ndim, (half,) * ndim, cells)
    rho0 = GaussianDensity([0.5, -0.3][:ndim], np.diag([0.8, 1.2][:ndim])).sample_on(grid)
    return ham, rho0, gain, steps, store_every


@st.composite
def stored_runs(draw):
    ndim = draw(st.sampled_from([1, 2]))
    cells = tuple(draw(st.integers(8, 32)) for _ in range(ndim))
    half = draw(st.floats(3.0, 6.0))
    q = [draw(st.floats(0.3, 2.0)) for _ in range(ndim)]
    gain = draw(st.floats(-0.9, 2.0))  # admissible: > -sigma2/2
    return stored_run(cells, half, q, gain, draw(st.integers(1, 12)), draw(st.integers(1, 5)))


@settings(max_examples=30, deadline=None)
@given(run=stored_runs(), r=st.floats(0.05, 1.0))
# at a negative gain the feedback operator diffuses more than evolve's, so a
# dt from evolve's bound once turned its explicit half negative here
@example(run=stored_run((18,), 4.994952739085882, [2.0], -0.9, 12, 1), r=1.0)
def test_stored_trajectory_is_one_checked_array(run, r):
    ham, rho0, gain, steps, store_every = run
    grid = rho0.grid
    runs = {
        "evolve": (step_for(ham, grid, gain, r),
                   lambda dt: evolve(ham, gain, rho0, 0.0, steps * dt, dt,
                                     store_every=store_every)),
        "simulate_feedback": (feedback_step_for(ham, grid, gain, r),
                              lambda dt: simulate_feedback(ham, gain, rho0, steps * dt, dt,
                                                           store_every=store_every)),
    }
    for name, (dt, run_with) in runs.items():
        traj = run_with(dt)
        assert len(traj) == -(-steps // store_every) + 1
        assert traj.values.shape == (len(traj),) + grid.shape
        assert not traj.values.flags.writeable
        assert traj.times[-1] == steps * dt
        for k, d in enumerate(traj.densities):
            assert np.array_equal(traj.values[k], d.values)
        assert np.max(np.abs(traj.mass_curve() - 1.0)) <= MASS_TOL
        assert traj.values.min() >= 0.0


# ---------------------------------------------------------------------------
# the gain as a time change: property tests on random 2-D grids
# ---------------------------------------------------------------------------

def quartic_hamiltonian(c, kT, sigma2):
    """H(x) = sum_i c_i x_i^4 / 4."""
    c = np.asarray(c, dtype=float)
    return HamiltonianSpec(dim=c.size, energy=lambda x: np.atleast_2d(x) ** 4 @ c / 4.0,
                           grad=lambda x: c * np.atleast_2d(x) ** 3, kT=kT, sigma2=sigma2)


@st.composite
def time_change_cases(draw):
    cells = (draw(st.integers(8, 40)), draw(st.integers(8, 40)))
    half = draw(st.floats(3.0, 6.0))
    kT = draw(st.floats(0.5, 2.0))
    sigma2 = draw(st.floats(0.5, 3.0))
    c = [draw(st.floats(0.3, 2.0)), draw(st.floats(0.3, 2.0))]
    if draw(st.booleans()):
        ham = quadratic_hamiltonian(np.diag(c) + 0.2 * min(c) * (1.0 - np.eye(2)),
                                    kT=kT, sigma2=sigma2)
    else:
        ham = quartic_hamiltonian(c, kT=kT, sigma2=sigma2)
    # gains in [-0.45 sigma2, 2 sigma2]: every D = sigma2/2 + alpha stays positive
    lo, hi = (draw(st.floats(-0.45, 2.0)) * sigma2 for _ in range(2))
    grid = Grid((-half, -half), (half, half), cells)
    return ham, grid, lo, hi


def scheduled(lo, hi, t1):
    return lambda t: lo + (hi - lo) * t / t1


def evolve_load(grid, ham, gain):
    """The clock rate D at t = 0 and the potential face drifts evolve loads."""
    D = clock_rate(ham, gain, 0.0)
    return D, potential_drifts(ham, D, energy_slopes(ham, grid))


def operator(grid, ham, gain):
    """The operator A that evolve loads for ``ham`` under ``gain`` at t = 0."""
    stepper = _Stepper(grid, 1.0)
    stepper.load(*evolve_load(grid, ham, gain))
    return stencil_csr(stepper)


def step_for(ham, grid, gain, r):
    """dt with dt max|diag A| / 2 = r: r <= 1 keeps the explicit half
    nonnegative, so steps preserve positivity on any data."""
    A = operator(grid, ham, gain)
    return r / (0.5 * np.max(np.abs(A.diagonal())))


def feedback_step_for(ham, grid, gain, r):
    """dt with dt max|diag A| / 2 <= r for every operator A that
    simulate_feedback can load at the constant ``gain`` a from densities of
    mass 1 that are nonnegative, which r <= 1 then keeps step by step.  A
    solve loads the diffusion D = sigma2/2 and the face drift
    b = -(D + a) s / kT - a g: s is the energy slope and g the difference
    quotient of the floored log of a density, which lies in
    [DENSITY_FLOOR, 1 / cell volume], so |g| dx <= log(1 / (cell volume
    DENSITY_FLOOR)).  A Chang-Cooper coupling is at most D / dx^2 + |b| / dx,
    and a cell has two faces per axis."""
    D = 0.5 * ham.sigma2
    log_range = np.log(1.0 / (grid.cell_volume * DENSITY_FLOOR))
    bound = sum(2.0 * (D / dx**2 + ((D + gain) * np.max(np.abs(s)) / ham.kT
                                    + abs(gain) * log_range / dx) / dx)
                for s, dx in zip(energy_slopes(ham, grid), grid.dx))
    return r / (0.5 * bound)


@settings(max_examples=40, deadline=None)
@given(case=time_change_cases())
def test_operator_is_a_time_change(case):
    ham, grid, lo, hi = case
    A0 = operator(grid, ham, lo)
    A = operator(grid, ham, hi)
    s = clock_rate(ham, hi, 0.0) / clock_rate(ham, lo, 0.0)
    assert abs(A - s * A0).max() <= 1e-13 * abs(A).max()


@settings(max_examples=40, deadline=None)
@given(case=time_change_cases(), r=st.floats(0.05, 1.0))
def test_krylov_step_matches_direct_solve(case, r):
    ham, grid, lo, hi = case
    dt = step_for(ham, grid, hi, r)
    D0, drifts = evolve_load(grid, ham, lo)
    s = clock_rate(ham, hi, 0.0) / D0
    stepper = _Stepper(grid, dt)
    stepper.load(D0, drifts)
    rho = GaussianDensity([0.5, -0.3], np.diag([0.8, 1.2])).sample_on(grid).values
    x = stepper.advance(rho, s, dt)
    eye = scipy.sparse.identity(grid.size, format="csc")
    A = stencil_csr(stepper)
    ref = scipy.sparse.linalg.spsolve((eye - 0.5 * dt * s * A).tocsc(),
                                      rho.ravel() + 0.5 * dt * s * (A @ rho.ravel()))
    assert np.max(np.abs(x.ravel() - ref)) <= 1e-12 * np.max(np.abs(ref))


@settings(max_examples=25, deadline=None)
@given(case=time_change_cases(), steps=st.integers(1, 8), r=st.floats(0.05, 1.0))
def test_scheduled_gain_conserves_mass_and_gibbs(case, steps, r):
    ham, grid, lo, hi = case
    dt = step_for(ham, grid, max(lo, hi), r)
    gain = scheduled(lo, hi, steps * dt)
    rho0 = GaussianDensity([0.5, -0.3], np.diag([0.8, 1.2])).sample_on(grid)
    masses = evolve(ham, gain, rho0, 0.0, steps * dt, dt).mass_curve()
    assert np.max(np.abs(masses - masses[0])) <= 1e-12
    rho_bar = gibbs_density(ham, grid)
    traj = evolve(ham, gain, rho_bar, 0.0, steps * dt, dt)
    for d in traj.densities:
        assert np.max(np.abs(d.values - rho_bar.values)) <= 1e-12


@st.composite
def loaded_operators(draw, min_ndim=1):
    """A random ``min_ndim``-3-D grid and two diffusion/face-drift pairs on it
    (D = 0 too)."""
    ndim = draw(st.integers(min_ndim, 3))
    cells = tuple(draw(st.integers(2, 6)) for _ in range(ndim))
    lo = tuple(draw(st.floats(-3.0, -0.5)) for _ in range(ndim))
    hi = tuple(draw(st.floats(0.5, 3.0)) for _ in range(ndim))
    grid = Grid(lo, hi, cells)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pairs = []
    for _ in range(2):
        D = draw(st.sampled_from([0.0, 0.05, 0.7, 3.0]))
        scale = draw(st.floats(0.1, 20.0))
        faces = [scale * rng.normal(size=tuple(c - (i == a) for i, c in enumerate(cells)))
                 for a in range(ndim)]
        pairs.append((D, faces))
    return grid, pairs


def dense_operator(grid, D, face_drifts):
    """A built cell by cell: the flux F = cl rho_lo - ch rho_hi through each
    interior face leaves the cell below it and enters the cell above it."""
    n = grid.size
    M = np.zeros((n, n))
    idx = np.arange(n).reshape(grid.shape)
    for a, b in enumerate(face_drifts):
        dx = grid.dx[a]
        for face in np.ndindex(b.shape):
            p = idx[face]
            q = idx[tuple(i + (ax == a) for ax, i in enumerate(face))]
            if D > 0.0:
                w = b[face] * dx / D
                cl = D / dx * bernoulli(np.array([-w]))[0] / dx
                ch = D / dx * bernoulli(np.array([w]))[0] / dx
            else:
                cl, ch = max(b[face], 0.0) / dx, max(-b[face], 0.0) / dx
            M[p, p] -= cl
            M[q, p] += cl
            M[p, q] += ch
            M[q, q] -= ch
    return M


@settings(max_examples=60, deadline=None)
@given(case=loaded_operators())
def test_loaded_operator_matches_face_fluxes(case):
    grid, ((D1, faces1), (D2, faces2)) = case
    stepper = _Stepper(grid, 1.0)
    scales = []
    for D, faces in ((D1, faces1), (D2, faces2)):
        stepper.load(D, faces)
        A = stencil_csr(stepper).toarray()
        M = dense_operator(grid, D, faces)
        scales.append(np.max(np.abs(M)))
        assert np.max(np.abs(A - M)) <= 1e-14 * scales[-1]
        assert np.max(np.abs(A.sum(axis=0))) <= 1e-14 * scales[-1]  # mass conservation
    # a reloaded stepper steps exactly like a fresh one: no stale solver state
    dt = 0.5 / max(scales)  # keeps the explicit half nonnegative: positivity holds
    rho = np.random.default_rng(1).uniform(0.5, 1.5, grid.shape)
    rho /= quadrature(grid, rho)  # a step checks that its density has mass 1
    reused = _Stepper(grid, dt)
    reused.load(D1, faces1)
    reused.advance(rho, 1.3, dt)
    reused.load(D2, faces2)
    fresh = _Stepper(grid, dt)
    fresh.load(D2, faces2)
    assert np.array_equal(reused.advance(rho, 1.3, dt), fresh.advance(rho, 1.3, dt))


def implicit_csr(A, c):
    """I - c A from the CSR matrix A: its entries times -c, then 1 added to
    the diagonal."""
    implicit = A.copy()
    implicit.data *= -c
    implicit.setdiag(implicit.diagonal() + 1.0)
    return implicit


def scipy_step(stepper, rho):
    """The N-D step of ``stepper`` at its current scale s on the CSR matrix
    of its stencil: (I - c A) x = rho + c A rho, c = dt s / 2, solved by
    scipy's bicgstab with the Jacobi preconditioner, warm-started from rho."""
    c = 0.5 * stepper.dt * stepper.scale
    A = stencil_csr(stepper)
    implicit = implicit_csr(A, c)
    b = rho.ravel()
    x, info = scipy.sparse.linalg.bicgstab(
        implicit, b + c * (A @ b), x0=b, rtol=KRYLOV_RTOL, atol=0.0,
        M=scipy.sparse.diags(1.0 / implicit.diagonal()))
    assert info == 0
    return x.reshape(rho.shape)


SCALES = st.sampled_from([0.25, 1.0, 1.7, 3.5])


@settings(max_examples=60, deadline=None)
@given(case=loaded_operators(), s=SCALES, seed=st.integers(0, 2**32 - 1))
def test_stencil_product_is_the_csr_product(case, s, seed):
    # every grid's right-hand side, and the N-D Krylov products, are stencil
    # products
    grid, ((D, faces), _) = case
    dt = 0.01
    stepper = _Stepper(grid, dt)
    stepper.load(D, faces)
    stepper._rescale(s)
    A = stencil_csr(stepper)
    implicit = implicit_csr(A, 0.5 * dt * s)
    assert same_bits(stepper.jacobi, 1.0 / implicit.diagonal())
    x = np.random.default_rng(seed).normal(size=grid.size)
    x[::3] = -0.0
    out = np.empty(grid.size)
    for stencil, M in (((stepper.lower, stepper.diag, stepper.upper), A),
                       (stepper.implicit, implicit)):
        stepper._apply(stencil, x, out)
        assert same_bits(out, M @ x)
    stepper._precondition(x, out)  # a -0.0 comes out +0.0, as from a sparse product
    assert same_bits(out, scipy.sparse.diags(1.0 / implicit.diagonal()) @ x)


@settings(max_examples=40, deadline=None)
@given(case=loaded_operators(min_ndim=2), s=SCALES, seed=st.integers(0, 2**32 - 1))
def test_step_is_scipys_jacobi_bicgstab(case, s, seed):
    grid, ((D, faces), _) = case
    stepper = _Stepper(grid, 1.0)
    stepper.load(D, faces)
    # dt s max|diag A| / 2 <= 1 keeps the explicit half nonnegative
    stepper.dt = 0.25 / stepper.max_diag
    rho = np.random.default_rng(seed).uniform(0.5, 1.5, grid.shape)
    rho /= quadrature(grid, rho)  # a step checks that its density has mass 1
    x = stepper.advance(rho, s, stepper.dt)
    ref = scipy_step(stepper, rho)
    assert same_bits(x, np.maximum(ref, 0.0) if ref.min() < 0.0 else ref)


@settings(max_examples=60, deadline=None)
@given(cells=st.sampled_from([2, 3, 17, 2048]), D=st.sampled_from([0.0, 0.05, 0.7, 3.0]),
       scale=st.floats(0.1, 20.0), s=SCALES, seed=st.integers(0, 2**32 - 1))
def test_1d_step_is_scipys_banded_solve(cells, D, scale, s, seed):
    # the 1-D step hands the implicit stencil's three arrays to LAPACK's
    # tridiagonal solve: bitwise solve_banded of the same stencil as a band
    # array, on the right-hand side c A rho + rho, down to two cells
    grid = Grid((-3.0,), (3.0,), (cells,))
    rng = np.random.default_rng(seed)
    stepper = _Stepper(grid, 1.0)
    stepper.load(D, [scale * rng.normal(size=cells - 1)])
    # dt s max|diag A| / 2 <= 1 keeps the explicit half nonnegative
    stepper.dt = 0.25 / stepper.max_diag
    rho = rng.uniform(0.5, 1.5, cells)
    rho /= quadrature(grid, rho)  # a step checks that its density has mass 1
    x = stepper.advance(rho, s, stepper.dt)
    (lower,), diag, (upper,) = stepper.implicit
    bands = np.zeros((3, cells))
    bands[0, 1:], bands[1], bands[2, :-1] = upper, diag, lower
    rhs = 0.5 * stepper.dt * s * (stencil_csr(stepper) @ rho) + rho
    ref = scipy.linalg.solve_banded((1, 1), bands, rhs)
    assert same_bits(x, np.maximum(ref, 0.0) if ref.min() < 0.0 else ref)


def test_a_returned_density_is_the_callers():
    # the solver's work vectors are the stepper's, the densities it returns
    # the caller's: march feeds each back in, simulate_feedback reuses its input
    grid = Grid((-3.0, -3.0), (3.0, 3.0), (10, 12))
    stepper = _Stepper(grid, 0.01)
    stepper.load(0.7, [np.random.default_rng(a).normal(size=(9 + a, 12 - a))
                       for a in range(2)])
    rho = np.random.default_rng(2).uniform(0.5, 1.5, grid.shape)
    rho /= quadrature(grid, rho)  # a step checks that its density has mass 1
    first = stepper.advance(rho, 1.0, 0.01)
    kept = first.copy()
    second = stepper.advance(first, 1.3, 0.01)
    stepper.advance(second, 0.7, 0.01)
    assert same_bits(first, kept)


def test_feedback_run_is_the_scipy_solves(monkeypatch):
    # two solves per step, the second from the first's input: a 2-D
    # simulate_feedback gives the bits of one whose steps are scipy's
    ham = quadratic_hamiltonian(np.array([[1.0, 0.3], [0.3, 2.0]]), kT=1.0, sigma2=2.0)
    grid = Grid((-5.0, -5.0), (5.0, 5.0), (24, 20))
    rho0 = GaussianDensity([0.5, -0.2], np.eye(2)).sample_on(grid)
    owned = simulate_feedback(ham, lambda t: 1.0 + t, rho0, 0.1, 0.01)
    monkeypatch.setattr(_Stepper, "_solve", scipy_step)
    assert same_bits(owned.values, simulate_feedback(ham, lambda t: 1.0 + t, rho0, 0.1, 0.01).values)


def test_importing_entroflow_loads_no_sparse_module():
    # the solver owns its stencil and its Krylov loop: scipy.sparse is only
    # the tests' oracle
    src = pathlib.Path(entroflow.__file__).resolve().parents[1]
    code = (f"import sys; sys.path.insert(0, {str(src)!r}); import entroflow, entroflow.cli; "
            "print('scipy.sparse' in sys.modules)")
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True)
    assert run.stdout.strip() == "False"
