"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion (a failed assertion shows up as the usual pytest FAILED line).
The testbed throughout is the 1-D quadratic well H = x^2/2 with kT = 1,
sigma^2 = 2 on the grid [-8, 8] x 2048 unless a criterion says otherwise.
"""

import time
import warnings

import numpy as np
import pytest
import scipy.linalg

from entroflow import (
    GaussianDensity,
    Grid,
    GridDensity,
    VectorFieldGrid,
    flux_and_force,
    free_energy_decay_rate,
    gibbs_density,
    production_decomposition,
    relative_entropy,
    relative_entropy_rate,
)
from entroflow.control import (
    GaussMarkovState,
    evolve_modulated,
    feedback_control,
    gauss_markov_propagate,
    simulate_feedback,
)
from entroflow.fokker_planck import continuity_velocity, evolve
from entroflow.grids import quadrature
from entroflow.paths import (
    current_drift,
    default_test_functions,
    estimate_drifts,
    finite_energy_estimate,
    osmotic_residual,
    weak_continuity_check,
)
from entroflow.quantum import (
    DensityOperator,
    HamiltonianOperator,
    LindbladSpec,
    depolarizing_jump_operators,
    dissipative_production_rate,
    evolve_closed,
    gibbs_state,
    lindblad_evolve,
    production_decomposition as q_production_decomposition,
    relative_entropy as q_relative_entropy,
    relative_entropy_rate as q_relative_entropy_rate,
    sigma_x,
    sigma_y,
    von_neumann_entropy,
)
from entroflow.sde import estimate_density, sample_moments, simulate_overdamped
from entroflow.cli import run_scenario, BUILTIN_FACTORIES


def announce(n, text):
    print(f"\nACCEPTANCE {n}: PASS - {text}")


@pytest.fixture(scope="module")
def testbed(ou_ham, ou_grid):
    return ou_ham, ou_grid


# ---------------------------------------------------------------------------

def test_criterion_01_rate_formula_vs_finite_difference(testbed):
    ham, grid = testbed
    start = time.monotonic()
    dt = 1e-4
    traj_t = evolve(ham, 0.0, GaussianDensity([1.0], [[2.0]]).sample_on(grid),
                    0.0, 0.02, dt)
    traj_r = evolve(ham, 0.0, GaussianDensity([0.5], [[1.5]]).sample_on(grid),
                    0.0, 0.02, dt)
    worst = 0.0
    for k in (40, 100, 160):
        D = [relative_entropy(traj_t.densities[k + s], traj_r.densities[k + s])
             for s in (-1, 0, 1)]
        fd = (D[2] - D[0]) / (2.0 * dt)
        t = traj_t.times[k]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            formula = relative_entropy_rate(
                traj_t.densities[k], traj_r.densities[k],
                continuity_velocity(traj_t.densities[k], ham, 0.0, t),
                continuity_velocity(traj_r.densities[k], ham, 0.0, t))
        worst = max(worst, abs(formula - fd) / abs(fd))
    elapsed = time.monotonic() - start
    assert worst < 1e-3
    assert elapsed < 30.0
    announce(1, f"rate formula vs FD rel err {worst:.2e} (<1e-3), {elapsed:.1f}s (<30s)")


def test_criterion_02_closed_form_rates(testbed):
    ham, grid = testbed
    rho_u = GaussianDensity([1.0], [[2.0]]).sample_on(grid)
    rho_bar = gibbs_density(ham, grid)
    rep0 = production_decomposition(rho_u, rho_bar, VectorFieldGrid.zero(grid), 2.0)
    assert rep0.total == pytest.approx(-1.5, rel=0.01)
    u1 = feedback_control(rho_u, rho_bar, alpha=1.0)
    rep1 = production_decomposition(rho_u, rho_bar, u1, 2.0)
    assert rep1.total == pytest.approx(-3.0, rel=0.01)
    for rep in (rep0, rep1):
        assert rep.pepr >= 0.0
        assert abs(rep.total - (-rep.pepr + rep.epur)) <= 1e-12
    announce(2, f"uncontrolled rate {rep0.total:.4f} (~-1.5), "
                f"feedback rate {rep1.total:.4f} (~-3.0), identities exact")


def test_criterion_03_free_energy_and_constitutive_identities(testbed):
    ham, grid = testbed
    rng = np.random.default_rng(2029)
    x = grid.axis_centers(0)
    worst_fl = 0.0
    for _ in range(20):
        c = rng.normal(scale=[0.4, 0.3, 0.2], size=3)
        raw = np.exp(-x**2 / rng.uniform(1.5, 4.0)
                     + c[0] * np.sin(x) + c[1] * x + c[2] * np.cos(2.0 * x))
        rho = GridDensity(grid, raw / quadrature(grid, raw))
        free_energy_decay_rate(rho, ham)  # raises if the two forms differ > 1e-6
        J, Phi = flux_and_force(rho, ham)
        resid = J.vectors - (ham.sigma2 / (2.0 * ham.kT)) * Phi.vectors \
            * rho.values[..., np.newaxis]
        worst_fl = max(worst_fl, float(np.max(np.abs(resid))))
    assert worst_fl < 1e-8
    announce(3, f"free-energy forms agree to 1e-6 on 20 densities; "
                f"constitutive residual {worst_fl:.2e} (<1e-8)")


def test_criterion_04_gibbs_invariance_and_monotone_decay(testbed):
    ham, grid = testbed
    rho_bar = gibbs_density(ham, grid)
    for alpha in (0.0, 1.0):
        traj = evolve_modulated(ham, alpha, rho_bar, 1.0, 1e-3, store_every=100)
        sup = max(np.max(np.abs(d.values - rho_bar.values)) for d in traj.densities)
        assert sup < 1e-6
    rho0 = GaussianDensity([1.0], [[2.0]]).sample_on(grid)
    for alpha in (0.0, 1.0):
        traj = evolve_modulated(ham, alpha, rho0, 1.0, 1e-3, store_every=10)
        D = traj.divergence_curve(rho_bar)
        assert np.all(np.diff(D) < 0.0)
    announce(4, "Gibbs stays fixed (sup < 1e-6 over t=1, alpha in {0,1}); "
                "divergence strictly decreasing from N(1,2)")


def test_criterion_05_feedback_equivalence_and_moment_oracle(testbed):
    ham, grid = testbed
    rho0 = GaussianDensity([1.0], [[2.0]]).sample_on(grid)
    dt = 1e-4
    direct = simulate_feedback(ham, 1.0, rho0, 0.25, dt, store_every=250)
    modulated = evolve_modulated(ham, 1.0, rho0, 0.25, dt, store_every=250)
    sup = max(np.max(np.abs(a.values - b.values))
              for a, b in zip(direct.densities, modulated.densities))
    assert sup < 1e-6
    states = gauss_markov_propagate(1.0, ham, 1.0,
                                    GaussMarkovState(0.0, [1.0], [[2.0]]),
                                    0.25, dt)
    worst = 0.0
    for d, t in zip(modulated.densities, modulated.times):
        s = states[int(round(t / dt))]
        worst = max(worst, abs(d.mean()[0] - s.mean[0]),
                    abs(d.covariance()[0, 0] - s.cov[0, 0]))
    assert worst < 1e-3
    announce(5, f"direct feedback vs linear solve sup {sup:.2e} (<1e-6); "
                f"moment propagator vs grid {worst:.2e} (<1e-3)")


def test_criterion_06_sde_fp_cross_validation(testbed):
    ham, grid = testbed
    start = time.monotonic()
    n, dt, t1 = 100_000, 1e-3, 0.3
    x0 = lambda rng, size: 1.0 + np.sqrt(2.0) * rng.standard_normal((size, 1))
    ens = simulate_overdamped(ham, None, x0, n, dt, t1, seed=2718)
    k = ens.index_of(t1)
    mom = sample_moments(ens, k)

    fp = evolve(ham, 0.0, GaussianDensity([1.0], [[2.0]]).sample_on(grid),
                0.0, t1, dt, store_every=300)
    fp_mean = fp.densities[-1].mean()[0]
    fp_var = fp.densities[-1].covariance()[0, 0]
    assert abs(mom.mean[0] - fp_mean) < 3.0 * mom.se_mean[0]
    assert abs(mom.cov[0, 0] - fp_var) < 3.0 * mom.se_var[0]

    kde = estimate_density(ens, k, grid)
    kl = relative_entropy(kde, fp.densities[-1])
    assert kl < 0.05

    # KDE into the production decomposition: grid pipeline within 10%
    rho_bar = gibbs_density(ham, grid)
    rep_kde = production_decomposition(kde, rho_bar, VectorFieldGrid.zero(grid), 2.0)
    rep_grid = production_decomposition(fp.densities[-1], rho_bar,
                                        VectorFieldGrid.zero(grid), 2.0)
    assert rep_kde.total == pytest.approx(rep_grid.total, rel=0.10)

    rerun = simulate_overdamped(ham, None, x0, n, dt, t1, seed=2718)
    assert np.array_equal(ens.states, rerun.states)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    announce(6, f"moments within 3SE, KDE KL {kl:.3f} (<0.05), rate within 10%, "
                f"bit-identical rerun, {elapsed:.1f}s (<60s)")


def test_criterion_07_velocity_feedback_cooling(tmp_path):
    manifest = run_scenario(BUILTIN_FACTORIES["polymer-cooling"](),
                            out_dir=str(tmp_path / "cooling"))
    rows = (tmp_path / "cooling" / "temperature.csv").read_text().strip().splitlines()[1:]
    data = np.array([[float(v) for v in r.split(",")] for r in rows])
    gains, temps, errs = data[:, 0], data[:, 1], data[:, 2]
    assert list(gains) == [0.0, 0.5, 1.0, 2.0]
    k_gamma = 2  # alpha_c = gamma row
    assert temps[k_gamma] < 1.0 - 3.0 * errs[k_gamma]
    assert np.all(np.diff(temps) < 0.0)
    assert temps[0] - temps[-1] > 3.0 * (errs[0] + errs[-1])
    announce(7, f"T_kin(alpha=gamma) = {temps[k_gamma]:.3f} << 1; "
                f"monotone over gains {temps.round(3).tolist()}")


def test_criterion_07_cooling_matches_discrete_lyapunov(tmp_path):
    # the cantilever is linear: the symplectic-Euler recursion y' = A y + B w
    # of y = (q, p) has the stationary covariance P = A P A^T + B B^T, exact
    # for the scheme at its dt (K = m = gamma = T = 1 in the builtin)
    run_scenario(BUILTIN_FACTORIES["polymer-cooling"](), out_dir=str(tmp_path / "cooling"))
    rows = (tmp_path / "cooling" / "temperature.csv").read_text().strip().splitlines()[1:]
    dt, K, m, gamma, T = 5e-3, 1.0, 1.0, 1.0, 1.0
    for alpha_c, t_kin, se in (map(float, r.split(",")) for r in rows):
        c = 1.0 - dt * (gamma + alpha_c) / m
        A = np.array([[1.0 - dt**2 * K / m, dt * c / m], [-dt * K, c]])
        B = np.sqrt(2.0 * gamma * T * dt) * np.array([[dt / m], [1.0]])
        lyapunov = scipy.linalg.solve_discrete_lyapunov(A, B @ B.T)[1, 1] / m
        assert abs(t_kin - lyapunov) <= 3.0 * se, (alpha_c, t_kin, lyapunov, se)
    announce(7, "T_kin within 3 SE of the discrete-Lyapunov value at every gain")


def test_criterion_08_quantum_closed():
    rng = np.random.default_rng(88)
    for _ in range(20):
        A = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho0 = DensityOperator((A @ A.conj().T) / np.trace(A @ A.conj().T).real)
        B = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        H = HamiltonianOperator(0.5 * (B + B.conj().T))
        rho_t = evolve_closed(H, rho0, 1.0)
        assert np.max(np.abs(np.sort(rho_t.spectrum())
                             - np.sort(rho0.spectrum()))) < 1e-10
        assert abs(von_neumann_entropy(rho_t) - von_neumann_entropy(rho0)) < 1e-10

    H = HamiltonianOperator(np.diag([1.0, -1.0]).astype(complex))
    dH = HamiltonianOperator(sigma_x)
    rho = DensityOperator(0.5 * (np.eye(2) + 0.5 * sigma_y))
    rho_tilde = gibbs_state(H, 1.0)
    rate = q_relative_entropy_rate(rho, dH, rho_tilde)
    assert rate == pytest.approx(-1.0, abs=1e-8)

    Ht = HamiltonianOperator(H.matrix + dH.matrix)
    t, eps = 0.15, 1e-5
    rho_t = evolve_closed(H, rho, t)
    rho_tilde_t = evolve_closed(Ht, rho_tilde, t)
    rate_t = q_relative_entropy_rate(rho_t, dH, rho_tilde_t)
    vals = [q_relative_entropy(evolve_closed(H, rho, s),
                               evolve_closed(Ht, rho_tilde, s))
            for s in (t - eps, t + eps)]
    fd = (vals[1] - vals[0]) / (2.0 * eps)
    assert rate_t == pytest.approx(fd, abs=1e-6)
    announce(8, f"20 random 4-level systems preserve spectrum/entropy to 1e-10; "
                f"hand value {rate:.6f} (=-1), FD match {abs(rate_t - fd):.2e}")


def test_criterion_09_quantum_open():
    start = time.monotonic()
    spec = LindbladSpec(HamiltonianOperator(np.zeros((2, 2))),
                        depolarizing_jump_operators(1.0))
    mixed = DensityOperator.maximally_mixed(2)
    rho0 = DensityOperator(np.diag([0.9, 0.1]))
    traj = lindblad_evolve(spec, rho0, 1.0, 1e-3)
    traces = np.array([np.trace(s.matrix).real for s in traj.states])
    assert np.max(np.abs(traces - 1.0)) < 1e-10
    D = traj.divergence_curve(mixed)
    assert np.all(np.diff(D) < 1e-10)

    eps = 1e-4
    short = lindblad_evolve(spec, rho0, 2 * eps, eps)
    rate = dissipative_production_rate(short.states[1], spec, mixed)
    fd = (q_relative_entropy(short.states[2], mixed)
          - q_relative_entropy(short.states[0], mixed)) / (2 * eps)
    assert rate <= 0.0
    assert rate == pytest.approx(fd, abs=1e-6)

    H = HamiltonianOperator(np.diag([1.0, -1.0]).astype(complex))
    dH = HamiltonianOperator(sigma_x)
    rho_bar = gibbs_state(H, 1.0)
    rho = DensityOperator(0.5 * (np.eye(2) + 0.5 * sigma_y))
    spec_base = LindbladSpec(H, depolarizing_jump_operators(1.0))
    spec_pert = LindbladSpec(HamiltonianOperator(H.matrix + dH.matrix),
                             depolarizing_jump_operators(1.0))
    pert = lindblad_evolve(spec_pert, rho, 2 * eps, eps)
    rep = q_production_decomposition(pert.states[1], dH, spec_base, rho_bar)
    fd2 = (q_relative_entropy(pert.states[2], rho_bar)
           - q_relative_entropy(pert.states[0], rho_bar)) / (2 * eps)
    assert rep.total == pytest.approx(fd2, abs=1e-6)
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    announce(9, f"trace to 1e-10/step, monotone divergence, dissipative rate "
                f"{rate:.4f}<=0 matches FD, perturbed total matches FD, "
                f"{elapsed:.1f}s (<10s)")


def test_criterion_10_path_kinematics(ou_ham):
    x0 = lambda rng, size: rng.standard_normal((size, 1))
    ens = simulate_overdamped(ou_ham, None, x0, n_traj=100_000, dt=5e-3,
                              t1=1.0, seed=42)
    bin_grid = Grid((-4.0,), (4.0,), (64,))
    pool = list(range(20, 200))
    beta, gamma = estimate_drifts(ens, pool, bin_grid)
    x = bin_grid.centers()[..., 0]
    m = beta.mask & gamma.mask
    zb = np.max(np.abs(beta.vectors[..., 0] + x)[m] / beta.stderr[..., 0][m])
    zg = np.max(np.abs(gamma.vectors[..., 0] - x)[m] / gamma.stderr[..., 0][m])
    assert zb < 3.0 and zg < 3.0

    p_hat = estimate_density(ens, 100, bin_grid)
    resid = osmotic_residual(beta, gamma, p_hat, 2.0)
    assert resid < 0.1

    v = current_drift(beta, gamma)
    zv = np.max(np.abs(v.vectors[..., 0][m]) / v.stderr[..., 0][m])
    assert zv < 3.0

    fe = finite_energy_estimate(ens, lambda x: -x)
    assert abs(fe.value - 1.0) < 3.0 * fe.stderr

    rows = weak_continuity_check(ens, v, default_test_functions(), 100)
    assert all(r.consistent for r in rows)
    announce(10, f"drift estimates within 3SE (z={zb:.2f},{zg:.2f}), osmotic "
                 f"{resid:.3f} (<0.1), current drift ~0, energy "
                 f"{fe.value:.3f}~1, continuity OK for x, x^2, cos x")


def _csv_rows(path):
    lines = path.read_text().strip().splitlines()
    return np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])


def test_builtin_scenarios_reproducible(tmp_path):
    cfg1 = BUILTIN_FACTORIES["ou-relax"]()
    cfg2 = BUILTIN_FACTORIES["ou-relax"]()
    m1 = run_scenario(cfg1, out_dir=str(tmp_path / "a"))
    m2 = run_scenario(cfg2, out_dir=str(tmp_path / "b"))
    assert m1["files"] == m2["files"]
    first = _csv_rows(tmp_path / "a" / "divergence.csv")[0]
    assert first[2] == pytest.approx(-1.5, rel=0.01)

    run_scenario(BUILTIN_FACTORIES["ou-modulated"](), out_dir=str(tmp_path / "c"))
    first = _csv_rows(tmp_path / "c" / "divergence.csv")[0]
    assert first[2] == pytest.approx(-3.0, rel=0.01)
    announce("CLI", "builtins byte-reproducible; ou-relax rate -1.5, ou-modulated -3.0")


def test_remaining_builtins_end_to_end(tmp_path):
    run_scenario(BUILTIN_FACTORIES["qubit-qrec"](), out_dir=str(tmp_path / "qq"))
    rates = _csv_rows(tmp_path / "qq" / "rates.csv")
    assert rates[0, 2] == pytest.approx(-1.0, abs=1e-8)
    assert np.max(rates[:, 3]) < 1e-6  # FD residual column

    run_scenario(BUILTIN_FACTORIES["qubit-lindblad"](), out_dir=str(tmp_path / "ql"))
    lb = _csv_rows(tmp_path / "ql" / "lindblad.csv")
    assert np.max(np.abs(lb[:, 1] - 1.0)) < 1e-10   # trace
    assert np.all(np.diff(lb[:, 2]) < 1e-10)        # monotone divergence
    assert np.all(lb[:, 3] <= 0.0)                  # dissipative rate

    run_scenario(BUILTIN_FACTORIES["paths-osmotic"](), out_dir=str(tmp_path / "po"))
    summ = _csv_rows(tmp_path / "po" / "summary.csv")[0]
    assert summ[0] < 0.1                       # osmotic residual
    assert abs(summ[1] - 1.0) < 3.0 * summ[2]  # finite energy within 3 SE
    announce("CLI", "qubit-qrec, qubit-lindblad and paths-osmotic builtins "
                    "produce certified artifacts")
