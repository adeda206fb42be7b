import numpy as np
import pytest

from entroflow import (
    GaussianDensity,
    GaussMarkovState,
    Grid,
    GridDensity,
    GridMismatchError,
    HamiltonianSpec,
    flux_and_force,
    free_energy,
    gauss_markov_propagate,
    gibbs_density,
    quadratic_hamiltonian,
    relative_entropy,
)
from entroflow.grids import quadrature

from conftest import normal_pdf


# ---------------------------------------------------------------------------
# HamiltonianSpec
# ---------------------------------------------------------------------------

def test_hamiltonian_validation():
    with pytest.raises(ValueError):
        quadratic_hamiltonian(1.0, kT=0.0, sigma2=2.0)
    with pytest.raises(ValueError):
        quadratic_hamiltonian(1.0, kT=1.0, sigma2=-1.0)
    with pytest.raises(ValueError):
        quadratic_hamiltonian(-1.0, kT=1.0, sigma2=2.0)
    # a gradient inconsistent with the energy is rejected
    with pytest.raises(ValueError):
        HamiltonianSpec(dim=1,
                        energy=lambda x: 0.5 * np.atleast_2d(x)[:, 0] ** 2,
                        grad=lambda x: 2.0 * np.atleast_2d(x),
                        kT=1.0, sigma2=2.0)


SPD = np.array([[2.0, 1.0], [1.0, 2.0]])
SPD_CHECKS = {
    "quadratic_hamiltonian": lambda M: quadratic_hamiltonian(M, kT=1.0, sigma2=2.0),
    "GaussianDensity": lambda M: GaussianDensity([0.0, 0.0], M),
    "GaussMarkovState": lambda M: GaussMarkovState(0.0, [0.0, 0.0], M),
    "gauss_markov_propagate": lambda M: gauss_markov_propagate(
        M, quadratic_hamiltonian(SPD, kT=1.0, sigma2=2.0), 0.0,
        GaussMarkovState(0.0, [0.0, 0.0], np.eye(2)), 0.1, 0.01),
}


@pytest.mark.parametrize("entry", sorted(SPD_CHECKS))
def test_one_symmetric_positive_definite_check(entry):
    # every matrix that must be SPD passes one check: symmetric to
    # HERMITICITY_TOL (1e-12, absolute), smallest eigenvalue > 0
    check = SPD_CHECKS[entry]
    check(SPD + np.array([[0.0, 1e-13], [0.0, 0.0]]))
    for bad, what in ((SPD + np.array([[0.0, 1e-11], [0.0, 0.0]]), "symmetric"),
                      (np.diag([1.0, 0.0]), "positive-definite"),
                      (np.diag([1.0, np.nan]), "symmetric")):
        with pytest.raises(ValueError, match=f"must be {what}"):
            check(bad)


def test_quadratic_hamiltonian_2d():
    Q = np.array([[2.0, 0.5], [0.5, 1.0]])
    ham = quadratic_hamiltonian(Q, kT=1.5, sigma2=1.0)
    x = np.array([[1.0, -1.0]])
    assert ham.energy(x)[0] == pytest.approx(0.5 * (2.0 - 1.0 + 1.0))
    assert np.allclose(ham.grad(x)[0], Q @ x[0])
    assert np.allclose(ham.drift(x)[0], -(1.0 / 3.0) * Q @ x[0])


# ---------------------------------------------------------------------------
# gibbs_density
# ---------------------------------------------------------------------------

def test_gibbs_standard_normal(ou_ham, ou_grid):
    rho = gibbs_density(ou_ham, ou_grid)
    assert rho.integrate() == pytest.approx(1.0, abs=1e-12)
    assert not rho.boundary_suspect
    x = ou_grid.axis_centers(0)
    k = np.argmin(np.abs(x))
    # oracle: closed-form standard normal density at the same center
    assert rho.values[k] == pytest.approx(normal_pdf(x[k]), rel=1e-10)
    assert rho.values[k] == pytest.approx(0.39894, abs=1e-4)


def test_gibbs_uniform_for_constant_energy():
    ham = HamiltonianSpec(dim=1,
                          energy=lambda x: np.full(np.atleast_2d(x).shape[0], 3.0),
                          grad=lambda x: np.zeros_like(np.atleast_2d(x)),
                          kT=0.7, sigma2=2.0)
    grid = Grid((-8.0,), (8.0,), (128,))
    rho = gibbs_density(ham, grid)
    assert np.allclose(rho.values, 1.0 / 16.0, rtol=1e-14)


def test_gibbs_kt2_variance2(ou_grid):
    ham = quadratic_hamiltonian(1.0, kT=2.0, sigma2=2.0)
    rho = gibbs_density(ham, ou_grid)
    x = ou_grid.axis_centers(0)
    k = np.argmin(np.abs(x))
    assert rho.values[k] == pytest.approx(normal_pdf(x[k], var=2.0), rel=1e-7)
    assert rho.values[k] == pytest.approx(0.28209, abs=1e-4)


def test_gibbs_nonfinite_energy_rejected(ou_grid):
    # well-behaved near the origin (where the gradient probes live) but -inf
    # in the far field, so exp(-H/kT) blows up on the wide grid
    def energy(x):
        x = np.atleast_2d(x)[:, 0]
        return np.where(np.abs(x) < 2.0, 0.5 * x**2, -np.inf)

    bad = HamiltonianSpec(dim=1, energy=energy,
                          grad=lambda x: np.atleast_2d(x),
                          kT=1.0, sigma2=2.0)
    with pytest.raises(ValueError, match="hamiltonian not finite"):
        gibbs_density(bad, ou_grid)


def test_gibbs_boundary_flag():
    # a box cut at 2 sigma leaves O(1e-2) boundary mass: flagged
    ham = quadratic_hamiltonian(1.0, kT=1.0, sigma2=2.0)
    rho = gibbs_density(ham, Grid((-2.0,), (2.0,), (64,)))
    assert rho.boundary_suspect


# ---------------------------------------------------------------------------
# relative_entropy / free_energy
# ---------------------------------------------------------------------------

def test_relative_entropy_self_is_zero(gauss12):
    grid = Grid((-10.0,), (10.0,), (512,))
    rho = gauss12.sample_on(grid)
    assert relative_entropy(rho, rho) == 0.0


def test_relative_entropy_gaussian_closed_form(gauss12, gauss01):
    # oracle: D(N(1,2)||N(0,1)) = (2 + 1 - 1 - ln 2)/2
    exact = 0.5 * (2.0 + 1.0 - 1.0 - np.log(2.0))
    assert gauss12.kl_to(gauss01) == pytest.approx(exact, abs=1e-15)
    assert exact == pytest.approx(0.65343, abs=1e-5)

    grid = Grid((-10.0,), (10.0,), (4096,))
    got = relative_entropy(gauss12.sample_on(grid), gauss01.sample_on(grid))
    assert got == pytest.approx(exact, abs=1e-6)


def test_relative_entropy_variance_only():
    # D(N(0,2)||N(0,1)) = (2 - 1 - ln 2)/2
    exact = 0.5 * (1.0 - np.log(2.0))
    assert exact == pytest.approx(0.15343, abs=1e-5)
    grid = Grid((-10.0,), (10.0,), (4096,))
    got = relative_entropy(GaussianDensity([0.0], [[2.0]]).sample_on(grid),
                           GaussianDensity([0.0], [[1.0]]).sample_on(grid))
    assert got == pytest.approx(exact, abs=1e-6)


def test_relative_entropy_refinement_stable(gauss12, gauss01):
    coarse = Grid((-10.0,), (10.0,), (4096,))
    fine = Grid((-10.0,), (10.0,), (8192,))
    a = relative_entropy(gauss12.sample_on(coarse), gauss01.sample_on(coarse))
    b = relative_entropy(gauss12.sample_on(fine), gauss01.sample_on(fine))
    assert abs(a - b) < 1e-4


def test_relative_entropy_grid_mismatch(gauss01):
    a = gauss01.sample_on(Grid((-8.0,), (8.0,), (256,)))
    b = gauss01.sample_on(Grid((-8.0,), (8.0,), (512,)))
    with pytest.raises(GridMismatchError):
        relative_entropy(a, b)


def test_relative_entropy_support_conventions(gauss01):
    grid = Grid((-8.0,), (8.0,), (256,))
    sigma = gauss01.sample_on(grid)
    # rho = 0 cells contribute nothing
    vals = np.where(np.abs(grid.axis_centers(0)) < 2.0, 1.0, 0.0)
    vals /= quadrature(grid, vals)
    rho = GridDensity(grid, vals)
    assert np.isfinite(relative_entropy(rho, sigma))
    # rho > 0 where sigma = 0 gives the +inf sentinel
    assert relative_entropy(sigma, rho) == np.inf


def test_relative_entropy_nonnegative_random_pairs():
    grid = Grid((-6.0,), (6.0,), (256,))
    x = grid.axis_centers(0)
    rng = np.random.default_rng(42)
    for _ in range(20):
        a = np.exp(rng.normal(size=3) @ np.stack([np.ones_like(x), x, -x**2 / 8]))
        b = np.exp(rng.normal(size=3) @ np.stack([np.ones_like(x), x, -x**2 / 8]))
        rho = GridDensity(grid, a / quadrature(grid, a))
        sig = GridDensity(grid, b / quadrature(grid, b))
        assert relative_entropy(rho, sig) >= 0.0


def test_free_energy(gauss12, gauss01):
    grid = Grid((-10.0,), (10.0,), (4096,))
    rho = gauss12.sample_on(grid)
    eq = gauss01.sample_on(grid)
    assert free_energy(eq, eq, kT=1.0) == 0.0
    kl = 0.5 * (2.0 - np.log(2.0))
    assert free_energy(rho, eq, kT=1.0) == pytest.approx(kl, abs=1e-6)
    assert free_energy(rho, eq, kT=3.0) == pytest.approx(3.0 * kl, abs=3e-6)
    assert free_energy(rho, eq, kT=3.0) == pytest.approx(1.96028, abs=1e-4)


# ---------------------------------------------------------------------------
# flux_and_force
# ---------------------------------------------------------------------------

def test_flux_force_zero_in_equilibrium(ou_ham, ou_grid):
    rho = gibbs_density(ou_ham, ou_grid)
    J, Phi = flux_and_force(rho, ou_ham)
    assert np.max(np.abs(J.vectors)) < 1e-6
    assert np.max(np.abs(Phi.vectors)) < 1e-6


def test_flux_force_constitutive_identity(ou_ham, ou_grid):
    rng = np.random.default_rng(3)
    x = ou_grid.axis_centers(0)
    raw = np.exp(-x**2 / 6.0 + 0.3 * np.sin(x) * rng.uniform(0.5, 1.0))
    rho = GridDensity(ou_grid, raw / quadrature(ou_grid, raw))
    J, Phi = flux_and_force(rho, ou_ham)
    coeff = ou_ham.sigma2 / (2.0 * ou_ham.kT)
    resid = J.vectors - coeff * Phi.vectors * rho.values[..., np.newaxis]
    scale = np.max(np.abs(J.vectors))
    assert np.max(np.abs(resid)) < 1e-8 * scale


def test_flux_ou_hand_value(ou_ham, ou_grid):
    # J = -grad(rho) - x rho for N(1,1): equals -rho(x) pointwise
    rho = GaussianDensity([1.0], [[1.0]]).sample_on(ou_grid)
    J, _ = flux_and_force(rho, ou_ham)
    x = ou_grid.axis_centers(0)
    k = np.argmin(np.abs(x - 1.0))
    assert J.vectors[k, 0] == pytest.approx(-rho.values[k], rel=1e-10)
    assert J.vectors[k, 0] == pytest.approx(-0.39894, abs=2e-4)


def test_flux_force_rejects_zero_density(ou_ham):
    grid = Grid((-8.0,), (8.0,), (64,))
    vals = np.where(np.abs(grid.axis_centers(0)) < 2.0, 1.0, 0.0)
    vals /= quadrature(grid, vals)
    with pytest.raises(ValueError, match="log-density undefined"):
        flux_and_force(GridDensity(grid, vals), ou_ham)
