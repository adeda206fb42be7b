import numpy as np
import pytest

from entroflow import GaussianDensity, Grid, GridDensity, NumericalFailure, control, gibbs_density
from entroflow.cli import ScenarioConfig
from entroflow.control import (
    GainSchedule,
    GaussMarkovState,
    decomposition_curve,
    equilibrium_gaussian,
    evolve_modulated,
    feedback_control,
    gauss_markov_propagate,
    modulated_decay_rate,
    simulate_feedback,
)
from entroflow.fokker_planck import PositivityError, evolve
from entroflow.production import production_decomposition
from entroflow.thermo import quadratic_hamiltonian, relative_entropy


GRID = Grid((-8.0,), (8.0,), (1024,))


def test_public_names_resolve():
    import entroflow

    missing = [name for name in entroflow.__all__ if not hasattr(entroflow, name)]
    assert not missing


def test_gain_schedule_forms(tmp_path):
    tab = GainSchedule.from_table([0.0, 1.0], [0.0, 2.0])
    assert tab(0.25) == pytest.approx(0.5)
    assert tab(5.0) == 2.0  # clamped
    with pytest.raises(ValueError):
        GainSchedule.from_table([0.0, 0.0], [1.0, 1.0])
    p = tmp_path / "alpha.csv"
    p.write_text("t,alpha\n0.0,0.0\n1.0,1.0\n")
    assert GainSchedule.from_csv(p)(0.5) == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# feedback law
# ---------------------------------------------------------------------------

def test_feedback_zero_cases(ou_ham):
    rho_bar = gibbs_density(ou_ham, GRID)
    u = feedback_control(rho_bar, rho_bar, alpha=1.0)
    assert np.max(np.abs(u.vectors)) == 0.0
    rho = GaussianDensity([1.0], [[2.0]]).sample_on(GRID)
    u0 = feedback_control(rho, rho_bar, alpha=0.0)
    assert np.max(np.abs(u0.vectors)) == 0.0


def test_feedback_ou_hand_value(ou_ham):
    # u(x) = -[grad log N(1,2) - grad log N(0,1)] = -(x+1)/2; u(1) = -1
    rho = GaussianDensity([1.0], [[2.0]]).sample_on(GRID)
    rho_bar = gibbs_density(ou_ham, GRID)
    u = feedback_control(rho, rho_bar, alpha=1.0)
    x = GRID.axis_centers(0)
    k = np.argmin(np.abs(x - 1.0))
    assert u.vectors[k, 0] == pytest.approx(-(x[k] + 1.0) / 2.0, rel=1e-9)
    assert u.vectors[k, 0] == pytest.approx(-1.0, abs=5e-3)


def test_feedback_accepts_underflowed_tails(ou_ham):
    # the tails of N(0, 0.01) underflow to exact zeros, which carry no weight,
    # so the substituted law gives -(sigma2/2 + 1)(m^2 + (v-1)^2/v) = -196.02
    rho = GaussianDensity([0.0], [[0.01]]).sample_on(GRID)
    assert np.count_nonzero(rho.values == 0.0) == 530
    gibbs = gibbs_density(ou_ham, GRID)
    total = production_decomposition(rho, gibbs, feedback_control(rho, gibbs, 1.0),
                                     ou_ham.sigma2).total
    assert total == pytest.approx(modulated_decay_rate(rho, ou_ham, 1.0), rel=1e-12)
    assert total == pytest.approx(-196.02, rel=1e-6)
    with pytest.raises(ValueError, match="nonpositive density"):
        feedback_control(gibbs, rho, 1.0)  # the law needs log(equilibrium)


# ---------------------------------------------------------------------------
# modulated evolution
# ---------------------------------------------------------------------------

def test_modulated_alpha_zero_reduces_to_plain(ou_ham):
    rho0 = GaussianDensity([1.0], [[2.0]]).sample_on(GRID)
    a = evolve_modulated(ou_ham, 0.0, rho0, 0.1, 1e-3, store_every=20)
    b = evolve(ou_ham, 0.0, rho0, 0.0, 0.1, 1e-3, store_every=20)
    for x, y in zip(a.densities, b.densities):
        assert np.array_equal(x.values, y.values)


def test_modulated_gibbs_invariant_for_schedules(ou_ham):
    rho_bar = gibbs_density(ou_ham, GRID)
    sched = GainSchedule(lambda t: 0.5 + 0.4 * np.sin(4.0 * t))
    traj = evolve_modulated(ou_ham, sched, rho_bar, 1.0, 5e-3, store_every=40)
    sup = max(np.max(np.abs(d.values - rho_bar.values)) for d in traj.densities)
    assert sup < 1e-6


def test_modulated_mean_decay_rate(ou_ham):
    # alpha = 1: mean contracts at rate sigma2/2 + alpha = 2
    rho0 = GaussianDensity([1.0], [[2.0]]).sample_on(GRID)
    traj = evolve_modulated(ou_ham, 1.0, rho0, 0.3, 1e-3, store_every=60)
    m = traj.densities[-1].mean()[0]
    assert m == pytest.approx(np.exp(-0.6), rel=0.01)
    assert m == pytest.approx(0.54881, rel=0.01)


def test_modulated_rejects_ill_posed_gain(ou_ham):
    rho0 = GaussianDensity([1.0], [[2.0]]).sample_on(GRID)
    with pytest.raises(ValueError, match="ill-posed gain"):
        evolve_modulated(ou_ham, -2.0, rho0, 0.1, 1e-3)
    with pytest.raises(ValueError, match="ill-posed gain"):
        evolve_modulated(ou_ham, lambda t: -1.5 * t, rho0, 1.0, 1e-2)


SMALL = Grid((-8.0,), (8.0,), (64,))


def _start():
    return GaussianDensity([1.0], [[2.0]]).sample_on(SMALL)


# every entry point that takes a gain, with a bad gain: the boundary
# alpha = -sigma2/2 = -1 for ou_ham, NaN or inf; "late" turns bad after a few
# admissible steps
ILL_POSED_CALLS = {
    "evolve": lambda ham, bad: evolve(ham, bad, _start(), 0.0, 0.01, 1e-3),
    "evolve_late": lambda ham, bad: evolve(
        ham, lambda t: 1.0 if t < 5e-3 else bad, _start(), 0.0, 0.01, 1e-3),
    "evolve_modulated": lambda ham, bad: evolve_modulated(ham, bad, _start(), 0.01, 1e-3),
    "modulated_decay_rate": lambda ham, bad: modulated_decay_rate(_start(), ham, bad),
    "simulate_feedback": lambda ham, bad: simulate_feedback(ham, bad, _start(), 0.01, 1e-3),
    "simulate_feedback_late": lambda ham, bad: simulate_feedback(
        ham, lambda t: 1.0 if t < 5e-3 else bad, _start(), 0.01, 1e-3),
    "decomposition_curve": lambda ham, bad: decomposition_curve(
        evolve_modulated(ham, 0.0, _start(), 0.01, 1e-3), ham, bad),
    "gauss_markov_propagate": lambda ham, bad: gauss_markov_propagate(
        1.0, ham, bad, GaussMarkovState(0.0, [1.0], [[2.0]]), 0.1, 1e-2),
    "ScenarioConfig": lambda ham, bad: ScenarioConfig(
        "bad", "control-run", model=dict(sigma2=ham.sigma2), control=dict(alpha=bad)),
}


@pytest.mark.parametrize("entry", sorted(ILL_POSED_CALLS))
def test_ill_posed_gain_every_entry_point(ou_ham, entry):
    for bad in (-1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="ill-posed gain"):
            ILL_POSED_CALLS[entry](ou_ham, bad)


# ---------------------------------------------------------------------------
# modulated decay rate
# ---------------------------------------------------------------------------

def test_modulated_rate_values(ou_ham):
    rho = GaussianDensity([1.0], [[2.0]]).sample_on(GRID)
    assert modulated_decay_rate(rho, ou_ham, 0.0) == pytest.approx(-1.5, rel=0.01)
    assert modulated_decay_rate(rho, ou_ham, 1.0) == pytest.approx(-3.0, rel=0.01)
    eps = 1e-4
    frozen = modulated_decay_rate(rho, ou_ham, -1.0 + eps)
    assert -0.01 < frozen < 0.0  # prefactor -> 0 freezes the flow
    with pytest.raises(ValueError, match="ill-posed gain"):
        modulated_decay_rate(rho, ou_ham, -1.0)


def test_modulated_rate_self_check_is_numerical_failure(ou_ham, monkeypatch):
    # a production split that disagrees with the Fisher form is a solver
    # failure (exit code 3), not invalid input
    rho = GaussianDensity([1.0], [[2.0]]).sample_on(GRID)
    split = control.split_rate
    monkeypatch.setattr(control, "split_rate",
                        lambda *a: (split(*a)[0] + 1.0, *split(*a)[1:]))
    with pytest.raises(NumericalFailure, match="disagrees"):
        modulated_decay_rate(rho, ou_ham, 1.0)


def test_modulated_rate_scaling(ou_ham):
    rho = GaussianDensity([0.5], [[1.5]]).sample_on(GRID)
    r0 = modulated_decay_rate(rho, ou_ham, 0.0)
    for a in (0.5, 1.0, 3.0):
        ra = modulated_decay_rate(rho, ou_ham, a)
        assert ra / r0 == pytest.approx((1.0 + a) / 1.0, rel=1e-12)


# ---------------------------------------------------------------------------
# equivalence of the two routes
# ---------------------------------------------------------------------------

def test_direct_feedback_matches_modulated(ou_ham, ou_grid):
    # the residual is the O(dx^2) consistency gap between the u-transport
    # and rescaled-coefficient operator forms; at 2048 cells it sits ~2.4e-7
    rho0 = GaussianDensity([1.0], [[2.0]]).sample_on(ou_grid)
    a = evolve_modulated(ou_ham, 1.0, rho0, 0.1, 5e-4, store_every=50)
    b = simulate_feedback(ou_ham, 1.0, rho0, 0.1, 5e-4, store_every=50)
    sup = max(np.max(np.abs(x.values - y.values))
              for x, y in zip(a.densities, b.densities))
    assert sup < 1e-6


def test_feedback_positivity_error_on_rough_data(ou_ham):
    # a one-cell spike under Crank-Nicolson with a coarse dt rings negative;
    # the feedback solver stops instead of clamping the ringing away
    grid = Grid((-8.0,), (8.0,), (128,))
    vals = np.full(128, 1e-6)
    vals[64] += 1.0
    spike = GridDensity(grid, vals / (vals.sum() * grid.cell_volume))
    with pytest.raises(PositivityError, match="positivity lost"):
        simulate_feedback(ou_ham, 1.0, spike, 0.1, 0.05)


# ---------------------------------------------------------------------------
# Gauss-Markov moment propagation
# ---------------------------------------------------------------------------

def test_gauss_markov_scalar_closed_form(ou_ham):
    # exact for any dt: a step far from the RK4 regime changes nothing
    s0 = GaussMarkovState(0.0, [1.0], [[2.0]])
    for dt in (1e-3, 0.1):
        states = gauss_markov_propagate(1.0, ou_ham, 0.0, s0, 0.3, dt)
        last = states[-1]
        assert last.time == pytest.approx(0.3)
        assert last.mean[0] == pytest.approx(np.exp(-0.3), rel=1e-12)
        assert last.cov[0, 0] == pytest.approx(1.0 + np.exp(-0.6), rel=1e-12)


def test_gauss_markov_stationary(ou_ham):
    s0 = GaussMarkovState(0.0, [0.0], [[1.0]])  # kT Q^{-1} = 1
    states = gauss_markov_propagate(1.0, ou_ham, 0.7, s0, 1.0, 1e-2)
    for s in states:
        assert s.mean[0] == pytest.approx(0.0, abs=1e-12)
        assert s.cov[0, 0] == pytest.approx(1.0, abs=1e-12)


def test_gauss_markov_keeps_positive_definite(ou_ham):
    # strongly negative but admissible gain: covariance stays PD
    # (GaussMarkovState construction enforces it)
    s0 = GaussMarkovState(0.0, [1.0], [[2.0]])
    states = gauss_markov_propagate(1.0, ou_ham, -0.9, s0, 2.0, 1e-2)
    assert len(states) == 201


def test_gauss_markov_validation(ou_ham):
    s0 = GaussMarkovState(0.0, [1.0], [[2.0]])
    with pytest.raises(ValueError, match="positive-definite"):
        gauss_markov_propagate(-1.0, ou_ham, 0.0, s0, 0.1, 1e-2)
    from entroflow import quadratic_hamiltonian
    other = quadratic_hamiltonian(3.0, kT=1.0, sigma2=2.0)
    with pytest.raises(ValueError, match="quadratic form"):
        gauss_markov_propagate(1.0, other, 0.0, s0, 0.1, 1e-2)


def test_gauss_markov_rejects_partial_horizon(ou_ham):
    s0 = GaussMarkovState(0.0, [1.0], [[2.0]])
    with pytest.raises(ValueError, match="multiple of dt"):
        gauss_markov_propagate(1.0, ou_ham, 0.0, s0, 0.105, 1e-2)


def test_gauss_markov_divergence_matches_grid(ou_ham):
    s0 = GaussMarkovState(0.0, [1.0], [[2.0]])
    states = gauss_markov_propagate(1.0, ou_ham, 1.0, s0, 0.3, 1e-3)
    eq_gauss = equilibrium_gaussian(1.0, 1.0)
    grid_grid = Grid((-8.0,), (8.0,), (2048,))
    rho0 = GaussianDensity([1.0], [[2.0]]).sample_on(grid_grid)
    traj = evolve_modulated(ou_ham, 1.0, rho0, 0.3, 1e-3, store_every=100)
    rho_bar = gibbs_density(ou_ham, grid_grid)
    for d, t in zip(traj.densities, traj.times):
        k = int(round((t - 0.0) / 1e-3))
        exact = states[k].divergence_to(eq_gauss)
        assert relative_entropy(d, rho_bar) == pytest.approx(exact, abs=1e-3)


# ---------------------------------------------------------------------------
# decomposition curve (CLI backbone)
# ---------------------------------------------------------------------------

def test_decomposition_curve(ou_ham):
    rho0 = GaussianDensity([1.0], [[2.0]]).sample_on(GRID)
    traj = evolve_modulated(ou_ham, 1.0, rho0, 0.1, 1e-3, store_every=10)
    curve = decomposition_curve(traj, ou_ham, 1.0)
    assert curve["total_rate"][0] == pytest.approx(-3.0, rel=0.01)
    assert np.all(curve["pepr"] >= 0.0)
    assert np.allclose(curve["total_rate"], -curve["pepr"] + curve["epur"], atol=1e-12)
    # central-difference residual small in the interior
    assert np.all(curve["fd_check_residual"][1:-1] < 1e-2)
    # every row equals the object-level decomposition under the feedback law
    # exactly, on this constant-gain run and on a scheduled 2-D run
    ham2 = quadratic_hamiltonian(np.diag([1.0, 2.0]), kT=1.0, sigma2=2.0)
    grid2 = Grid((-6.0, -6.0), (6.0, 6.0), (40, 40))
    sched = GainSchedule.from_table([0.0, 0.02], [0.3, 1.2])
    rho2 = GaussianDensity([1.0, -0.5], [[1.5, 0.3], [0.3, 0.8]]).sample_on(grid2)
    traj2 = evolve_modulated(ham2, sched, rho2, 0.02, 2e-3, store_every=5)
    runs = [(ou_ham, lambda t: 1.0, traj, curve),
            (ham2, sched, traj2, decomposition_curve(traj2, ham2, sched))]
    for ham, gain, tr, c in runs:
        gibbs = gibbs_density(ham, tr.grid)
        for k, (t, row) in enumerate(zip(tr.times, tr.values)):
            rho = GridDensity(tr.grid, row)
            rep = production_decomposition(rho, gibbs, feedback_control(rho, gibbs, gain(t)),
                                           ham.sigma2)
            assert (c["total_rate"][k], c["pepr"][k], c["epur"][k]) == \
                (rep.total, rep.pepr, rep.epur)
