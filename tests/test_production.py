import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from entroflow import GaussianDensity, Grid, GridDensity, VectorFieldGrid, gibbs_density
from entroflow.control import feedback_control
from entroflow.fokker_planck import HamiltonianFlow, continuity_velocity, evolve
from entroflow.grids import gradient, quadrature
from entroflow.production import (
    BoundaryLeakWarning,
    ProductionReport,
    entropy_rate,
    free_energy_decay_rate,
    log_ratio_gradient,
    production_decomposition,
    relative_entropy_rate,
)
from entroflow.thermo import (
    HamiltonianSpec,
    flux_and_force,
    quadratic_hamiltonian,
    relative_entropy,
)


def gaussian_rate_oracle(m, v, sigma2=2.0):
    """E_{N(m,v)} (X(1-1/v) + m/v)^2 scaled by sigma2/2: the closed-form
    divergence decay rate against N(0,1) under the uncontrolled flow."""
    second_moment = v * (1.0 - 1.0 / v) ** 2 + (m * (1.0 - 1.0 / v) + m / v) ** 2
    return -0.5 * sigma2 * second_moment


def test_gaussian_rate_oracle_value():
    # hand value: -( (v-1)^2/v + m^2 ) at sigma2 = 2
    assert gaussian_rate_oracle(1.0, 2.0) == pytest.approx(-1.5, abs=1e-14)


# ---------------------------------------------------------------------------
# relative_entropy_rate
# ---------------------------------------------------------------------------

def test_rate_zero_for_identical_flows(ou_grid, gauss01):
    rho = gauss01.sample_on(ou_grid)
    f = VectorFieldGrid.from_callable(ou_grid, lambda x: -x)
    assert relative_entropy_rate(rho, rho, f, f) == 0.0


def test_rate_ou_testbed_closed_form(ou_ham, ou_grid, gauss12, gauss01):
    rho_t = gauss12.sample_on(ou_grid)
    rho = gauss01.sample_on(ou_grid)
    flow = HamiltonianFlow(ou_ham)
    f_tilde = continuity_velocity(rho_t, flow, 0.0)
    f = continuity_velocity(rho, flow, 0.0)
    with pytest.warns(BoundaryLeakWarning):
        # N(1,2) on [-8,8] genuinely leaks ~4e-8 > 1e-9 at the box edge
        got = relative_entropy_rate(rho_t, rho, f_tilde, f)
    assert got == pytest.approx(-1.5, rel=0.01)


def test_rate_matches_finite_difference_of_divergence(ou_ham):
    # central-difference oracle on the divergence curve of two solver runs
    grid = Grid((-8.0,), (8.0,), (1024,))
    dt = 2e-4
    flow = HamiltonianFlow(ou_ham)
    traj_t = evolve(flow, GaussianDensity([1.0], [[2.0]]).sample_on(grid),
                    0.0, 0.02, dt)
    traj_r = evolve(flow, GaussianDensity([0.5], [[1.5]]).sample_on(grid),
                    0.0, 0.02, dt)
    k = 50
    D = [relative_entropy(traj_t.densities[k + s], traj_r.densities[k + s])
         for s in (-1, 0, 1)]
    fd = (D[2] - D[0]) / (2.0 * dt)
    t = traj_t.times[k]
    with pytest.warns(BoundaryLeakWarning):
        formula = relative_entropy_rate(
            traj_t.densities[k], traj_r.densities[k],
            continuity_velocity(traj_t.densities[k], flow, t),
            continuity_velocity(traj_r.densities[k], flow, t))
    assert formula == pytest.approx(fd, rel=1e-3)


def test_rate_rejects_support_violation(ou_grid, gauss01):
    rho_t = gauss01.sample_on(ou_grid)
    vals = np.where(np.abs(ou_grid.axis_centers(0)) < 2.0, 1.0, 0.0)
    vals /= quadrature(ou_grid, vals)
    rho = GridDensity(ou_grid, vals)
    f = VectorFieldGrid.zero(ou_grid)
    with pytest.raises(ValueError, match="nonpositive density"):
        relative_entropy_rate(rho_t, rho, f, f, check_boundary=False)


# ---------------------------------------------------------------------------
# entropy_rate
# ---------------------------------------------------------------------------

def test_entropy_rate_zero_field(ou_grid, gauss01):
    rho = gauss01.sample_on(ou_grid)
    assert entropy_rate(rho, VectorFieldGrid.zero(ou_grid)) == 0.0


def test_entropy_rate_heat_flow_fisher_identity(ou_grid, gauss01):
    # heat-flow velocity f = -(sigma2/2) grad log rho; rate = Fisher info = 1/v
    rho = gauss01.sample_on(ou_grid)
    g = gradient(ou_grid, np.log(rho.values))
    f = VectorFieldGrid(ou_grid, -1.0 * g)
    assert entropy_rate(rho, f) == pytest.approx(1.0, rel=0.01)


# ---------------------------------------------------------------------------
# production_decomposition
# ---------------------------------------------------------------------------

def test_decomposition_uncontrolled(ou_ham, ou_grid, gauss12):
    rho_u = gauss12.sample_on(ou_grid)
    rho_bar = gibbs_density(ou_ham, ou_grid)
    rep = production_decomposition(rho_u, rho_bar, VectorFieldGrid.zero(ou_grid), 2.0)
    assert rep.epur == 0.0
    assert rep.pepr >= 0.0
    assert rep.total == -rep.pepr
    assert rep.total == pytest.approx(-1.5, rel=0.01)
    assert rep.entropy_production == pytest.approx(1.5, rel=0.01)


def test_decomposition_feedback_gain_one(ou_ham, ou_grid, gauss12):
    rho_u = gauss12.sample_on(ou_grid)
    rho_bar = gibbs_density(ou_ham, ou_grid)
    g = log_ratio_gradient(rho_u, rho_bar)
    u = VectorFieldGrid(ou_grid, -1.0 * g)
    rep = production_decomposition(rho_u, rho_bar, u, 2.0)
    assert rep.pepr == pytest.approx(1.5, rel=0.01)
    assert rep.epur == pytest.approx(-1.5, rel=0.01)
    assert rep.total == pytest.approx(-3.0, rel=0.01)
    assert rep.total == -rep.pepr + rep.epur  # exact by construction


def test_decomposition_orthogonal_control_pumps_nothing():
    # 2-D: a control everywhere orthogonal to the log-ratio gradient
    grid = Grid((-7.0, -7.0), (7.0, 7.0), (96, 96))
    rho_u = GaussianDensity([1.0, 0.0], [[2.0, 0.0], [0.0, 1.0]]).sample_on(grid)
    rho_bar = GaussianDensity([0.0, 0.0], np.eye(2)).sample_on(grid)
    g = log_ratio_gradient(rho_u, rho_bar)
    u = np.stack([-g[..., 1], g[..., 0]], axis=-1)
    rep = production_decomposition(rho_u, rho_bar, VectorFieldGrid(grid, u), 2.0)
    assert abs(rep.epur) <= 1e-6
    assert rep.pepr > 0.0


def test_decomposition_specializes_theorem_rate(ou_ham, ou_grid, gauss12):
    # feeding f~ - f = u - (sigma2/2) grad log(rho/rho_bar) into the generic
    # rate formula reproduces the decomposition to quadrature roundoff
    rho_u = gauss12.sample_on(ou_grid)
    rho_bar = gibbs_density(ou_ham, ou_grid)
    g = log_ratio_gradient(rho_u, rho_bar)
    u = VectorFieldGrid(ou_grid, 0.3 * np.cos(ou_grid.centers()))
    rep = production_decomposition(rho_u, rho_bar, u, 2.0)
    f_tilde = VectorFieldGrid(ou_grid, u.vectors - 1.0 * g)
    rate = relative_entropy_rate(rho_u, rho_bar, f_tilde,
                                 VectorFieldGrid.zero(ou_grid),
                                 check_boundary=False)
    assert rate == pytest.approx(rep.total, abs=1e-12)


def test_production_report_identity_enforced():
    from entroflow.fokker_planck import BoundaryDecayReport
    rep = BoundaryDecayReport(0.0, 0.0, 0.0)
    with pytest.raises(ValueError, match="decomposition identity"):
        ProductionReport(total=1.0, pepr=1.0, epur=1.0, boundary=rep)


# ---------------------------------------------------------------------------
# free_energy_decay_rate
# ---------------------------------------------------------------------------

def test_free_energy_decay_zero_at_equilibrium(ou_ham, ou_grid):
    rho_bar = gibbs_density(ou_ham, ou_grid)
    assert free_energy_decay_rate(rho_bar, ou_ham) == pytest.approx(0.0, abs=1e-12)


def test_free_energy_decay_ou_value(ou_ham, ou_grid, gauss12):
    rho = gauss12.sample_on(ou_grid)
    got = free_energy_decay_rate(rho, ou_ham)
    assert got == pytest.approx(-1.5, rel=0.01)


def test_free_energy_two_forms_agree_on_random_densities(ou_ham, ou_grid):
    rng = np.random.default_rng(11)
    x = ou_grid.axis_centers(0)
    for _ in range(20):
        c = rng.normal(scale=[0.5, 0.3, 0.2], size=3)
        raw = np.exp(-x**2 / rng.uniform(1.5, 4.0)
                     + c[0] * np.sin(x) + c[1] * x + c[2] * np.cos(2 * x))
        rho = GridDensity(ou_grid, raw / quadrature(ou_grid, raw))
        # raises internally if the two forms disagree beyond 1e-6 relative
        val = free_energy_decay_rate(rho, ou_ham)
        assert val <= 0.0


def test_free_energy_equals_kt_times_total(ou_ham, ou_grid, gauss12):
    rho = gauss12.sample_on(ou_grid)
    rho_bar = gibbs_density(ou_ham, ou_grid)
    rep = production_decomposition(rho, rho_bar, VectorFieldGrid.zero(ou_grid),
                                   ou_ham.sigma2)
    assert free_energy_decay_rate(rho, ou_ham) == pytest.approx(
        ou_ham.kT * rep.total, abs=1e-12)


def test_divergence_decay_monotone_along_solver(ou_ham):
    grid = Grid((-8.0,), (8.0,), (512,))
    rho_bar = gibbs_density(ou_ham, grid)
    traj = evolve(HamiltonianFlow(ou_ham),
                  GaussianDensity([1.0], [[2.0]]).sample_on(grid),
                  0.0, 1.0, 1e-3, store_every=50)
    D = traj.divergence_curve(rho_bar)
    assert np.all(np.diff(D) < 0.0)


# ---------------------------------------------------------------------------
# property tests on random 1-D and 2-D grids
# ---------------------------------------------------------------------------

@st.composite
def production_cases(draw):
    """Grid, Hamiltonian (quadratic or quartic), Gaussian or quartic density
    and a control: a random cell field or the log-ratio feedback field of a
    random admissible gain (``None`` for the former)."""
    ndim = draw(st.integers(1, 2))
    cells = tuple(draw(st.integers(8, 200 if ndim == 1 else 32)) for _ in range(ndim))
    half = draw(st.floats(3.0, 4.0))
    grid = Grid((-half,) * ndim, (half,) * ndim, cells)
    kT = draw(st.floats(0.5, 2.0))
    sigma2 = draw(st.floats(0.5, 3.0))
    c = np.array([draw(st.floats(0.3, 1.5)) for _ in range(ndim)])
    if draw(st.booleans()):
        ham = quadratic_hamiltonian(np.diag(c), kT=kT, sigma2=sigma2)
    else:
        ham = HamiltonianSpec(dim=ndim, energy=lambda x: np.atleast_2d(x) ** 4 @ c / 4.0,
                              grad=lambda x: c * np.atleast_2d(x) ** 3, kT=kT, sigma2=sigma2)
    if draw(st.booleans()):
        mean = [draw(st.floats(-1.0, 1.0)) for _ in range(ndim)]
        var = [draw(st.floats(0.3, 2.0)) for _ in range(ndim)]
        rho = GaussianDensity(mean, np.diag(var)).sample_on(grid)
    else:
        b = np.array([draw(st.floats(0.3, 1.5)) for _ in range(ndim)])
        raw = np.exp(-(grid.centers() - draw(st.floats(-0.5, 0.5))) ** 4 @ b / 4.0)
        rho = GridDensity(grid, raw / quadrature(grid, raw))
    equilibrium = gibbs_density(ham, grid)
    if draw(st.booleans()):
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        gain = None
        u = VectorFieldGrid(grid, rng.normal(scale=2.0, size=grid.shape + (ndim,)))
    else:
        gain = draw(st.floats(-0.45, 2.0)) * sigma2
        u = feedback_control(rho, equilibrium, gain)
    return ham, rho, equilibrium, u, gain


@settings(max_examples=60, deadline=None)
@given(case=production_cases())
def test_decomposition_identity_on_random_grids(case):
    ham, rho, equilibrium, u, gain = case
    rep = production_decomposition(rho, equilibrium, u, ham.sigma2)
    scale = max(1.0, rep.pepr + abs(rep.epur))
    assert rep.pepr >= 0.0
    assert rep.total == pytest.approx(-rep.pepr + rep.epur, rel=0.0, abs=1e-12 * scale)
    # the generic two-flow rate with the controlled velocity against the
    # stationary reference is the same integral, written without the split
    g = log_ratio_gradient(rho, equilibrium)
    f_tilde = VectorFieldGrid(rho.grid, u.vectors - 0.5 * ham.sigma2 * g)
    generic = relative_entropy_rate(rho, equilibrium, f_tilde,
                                    VectorFieldGrid.zero(rho.grid), check_boundary=False)
    assert rep.total == pytest.approx(generic, rel=0.0, abs=1e-12 * scale)
    if gain is not None:
        # feedback of gain a: the rate is -(sigma2/2 + a) * Fisher
        fisher = 2.0 * rep.pepr / ham.sigma2
        assert rep.total == pytest.approx(-(0.5 * ham.sigma2 + gain) * fisher,
                                          rel=0.0, abs=1e-12 * scale)


@settings(max_examples=60, deadline=None)
@given(case=production_cases())
def test_free_energy_forms_agree_on_random_grids(case):
    ham, rho, _, _, _ = case
    fisher_form = free_energy_decay_rate(rho, ham)
    J, Phi = flux_and_force(rho, ham)
    flux_force = -float(np.sum(J.vectors * Phi.vectors) * rho.grid.cell_volume)
    assert fisher_form <= 0.0
    assert fisher_form == pytest.approx(flux_force, rel=1e-9, abs=1e-12)
