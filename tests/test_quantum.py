import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from entroflow.grids import NumericalFailure
from entroflow.tolerances import COMMUTATION_TOL, EIG_FLOOR
from entroflow.quantum import (
    DensityOperator,
    HamiltonianOperator,
    LindbladSpec,
    OpenProductionRate,
    _real_rate,
    depolarizing_jump_operators,
    dissipative_production_rate,
    evolve_closed,
    gibbs_state,
    lindblad_evolve,
    load_operator,
    production_decomposition,
    relative_entropy,
    relative_entropy_rate,
    save_operator,
    sigma_x,
    sigma_y,
    sigma_z,
    von_neumann_entropy,
)

from conftest import davies_generator, kron_liouvillian


def random_density(rng, n):
    A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    M = A @ A.conj().T
    return DensityOperator(M / np.trace(M).real)


def random_hamiltonian(rng, n):
    A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return HamiltonianOperator(0.5 * (A + A.conj().T))


def thermal_qubit_jumps(beta, rate=1.0):
    # detailed-balance pair for H = diag(1,-1): Gibbs(H, beta) is stationary
    down = np.zeros((2, 2), dtype=complex)
    down[1, 0] = np.sqrt(rate)                      # |e=0> -> |g=1>
    up = np.zeros((2, 2), dtype=complex)
    up[0, 1] = np.sqrt(rate * np.exp(-2.0 * beta))  # |g> -> |e>
    return (down, up)


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

def test_density_operator_validation():
    with pytest.raises(ValueError, match="Hermitian"):
        DensityOperator([[0.5, 1.0], [0.0, 0.5]])
    with pytest.raises(ValueError, match="trace"):
        DensityOperator(np.eye(2))
    with pytest.raises(ValueError, match="negative eigenvalue"):
        DensityOperator([[1.1, 0.0], [0.0, -0.1]])
    # tiny negatives are clamped, not rejected
    rho = DensityOperator([[1.0 + 5e-13, 0.0], [0.0, -5e-13]])
    assert rho.spectrum().min() == 0.0
    assert np.trace(rho.matrix).real == pytest.approx(1.0, abs=1e-15)


def test_pure_state_and_purity():
    rho = DensityOperator.pure([1.0, 1.0])
    assert rho.purity() == pytest.approx(1.0, abs=1e-12)
    assert rho.matrix[0, 1] == pytest.approx(0.5)
    assert DensityOperator.maximally_mixed(4).purity() == pytest.approx(0.25)


def test_hamiltonian_validation():
    with pytest.raises(ValueError, match="Hermitian"):
        HamiltonianOperator([[0.0, 1.0], [0.5, 0.0]])


@pytest.mark.parametrize("M", [[[1e308, 0.0], [0.0, -1e308]], [[0.0, 1e308], [-1e308, 0.0]],
                               [[0.0, 1e308j], [1e308j, 0.0]]])
def test_hermitian_check_near_the_largest_float(M):
    # neither the check nor the Hermitian part may overflow (RuntimeWarnings
    # are errors here); an overflowed difference M - M^dag still fails
    M = np.array(M, dtype=complex)
    if np.array_equal(M, M.conj().T):
        assert np.array_equal(HamiltonianOperator(M).matrix, M)
    else:
        with pytest.raises(ValueError, match="Hermitian"):
            HamiltonianOperator(M)


def test_imaginary_residue_is_numerical_failure():
    with pytest.raises(NumericalFailure, match="imaginary residue"):
        _real_rate(1.0 + 1e-3j, "rate")


# ---------------------------------------------------------------------------
# closed evolution
# ---------------------------------------------------------------------------

def test_commuting_state_is_stationary():
    H = HamiltonianOperator(sigma_z)
    rho0 = DensityOperator(np.diag([0.7, 0.3]))
    rho_t = evolve_closed(H, rho0, 2.7)
    assert np.allclose(rho_t.matrix, rho0.matrix, atol=1e-14)


def test_bloch_rotation_hand_value():
    # H = sigma_z, rho0 = |+><+|: off-diagonal picks up e^{-2it}
    H = HamiltonianOperator(sigma_z)
    rho0 = DensityOperator.pure([1.0, 1.0])
    rho_t = evolve_closed(H, rho0, np.pi / 2.0)
    assert rho_t.matrix[0, 1] == pytest.approx(-0.5, abs=1e-12)


def test_unitary_invariants_random_systems():
    rng = np.random.default_rng(17)
    for _ in range(10):
        rho0 = random_density(rng, 4)
        H = random_hamiltonian(rng, 4)
        rho_t = evolve_closed(H, rho0, 1.0)
        assert np.max(np.abs(np.sort(rho_t.spectrum()) - np.sort(rho0.spectrum()))) < 1e-10
        assert abs(von_neumann_entropy(rho_t) - von_neumann_entropy(rho0)) < 1e-10
        assert rho_t.purity() == pytest.approx(rho0.purity(), abs=1e-10)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 6), t=st.floats(-5.0, 5.0), seed=st.integers(0, 2**32 - 1))
def test_closed_evolution_is_the_unitary_conjugation(n, t, seed):
    # evolve_closed rotates the stored eigensystem and skips the check, so the
    # result is compared with expm and put through the check here
    rng = np.random.default_rng(seed)
    H = random_hamiltonian(rng, n)
    rho, sigma = random_density(rng, n), random_density(rng, n)
    U = scipy.linalg.expm(-1j * t * H.matrix)
    rho_t = evolve_closed(H, rho, t)
    assert np.max(np.abs(rho_t.matrix - U @ rho.matrix @ U.conj().T)) <= 1e-12
    checked = DensityOperator(rho_t.matrix)
    assert np.array_equal(rho_t.spectrum(), rho.spectrum())
    assert np.max(np.abs(rho_t.spectrum() - np.linalg.eigvalsh(rho_t.matrix))) <= 1e-12
    assert np.max(np.abs(checked.spectrum() - rho.spectrum())) <= 1e-12
    # a shared unitary flow conserves the divergence (the delta H = 0 rate)
    D = relative_entropy(rho, sigma)
    assert relative_entropy(rho_t, evolve_closed(H, sigma, t)) == pytest.approx(D, abs=1e-12)


# ---------------------------------------------------------------------------
# relative entropy
# ---------------------------------------------------------------------------

def test_relative_entropy_basics():
    rng = np.random.default_rng(3)
    rho = random_density(rng, 3)
    assert relative_entropy(rho, rho) == pytest.approx(0.0, abs=1e-12)
    # diag(1,0) against I/2: log 2
    pure = DensityOperator(np.diag([1.0, 0.0]))
    mixed = DensityOperator.maximally_mixed(2)
    assert relative_entropy(pure, mixed) == pytest.approx(np.log(2.0), abs=1e-12)
    # disjoint support: sentinel
    assert relative_entropy(DensityOperator(np.diag([1.0, 0.0])),
                            DensityOperator(np.diag([0.0, 1.0]))) == np.inf


def test_relative_entropy_nonnegative_and_faithful():
    rng = np.random.default_rng(5)
    for _ in range(10):
        a = random_density(rng, 3)
        b = random_density(rng, 3)
        d = relative_entropy(a, b)
        assert d >= -1e-12
        if np.max(np.abs(a.matrix - b.matrix)) < 1e-10:
            assert d < 1e-10


# ---------------------------------------------------------------------------
# gibbs state
# ---------------------------------------------------------------------------

def test_gibbs_state_values():
    H = HamiltonianOperator(np.diag([1.0, -1.0]).astype(complex))
    assert np.allclose(gibbs_state(H, 0.0).matrix, np.eye(2) / 2.0)
    g = gibbs_state(H, 1.0)
    z = np.exp(-1.0) + np.exp(1.0)
    assert g.matrix[0, 0].real == pytest.approx(np.exp(-1.0) / z, abs=1e-12)
    assert g.matrix[0, 0].real == pytest.approx(0.11920, abs=1e-5)
    assert g.matrix[1, 1].real == pytest.approx(0.88080, abs=1e-5)
    comm = g.matrix @ H.matrix - H.matrix @ g.matrix
    assert np.max(np.abs(comm)) < 1e-12
    ground = gibbs_state(H, 50.0)
    assert np.max(np.abs(ground.matrix - np.diag([0.0, 1.0]))) < 1e-6
    with pytest.raises(ValueError):
        gibbs_state(H, -1.0)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, -1.0])
def test_gibbs_state_and_jump_rate_not_finite_or_negative_rejected(value):
    H = HamiltonianOperator(np.diag([1.0, -1.0]).astype(complex))
    with pytest.raises(ValueError, match="beta"):
        gibbs_state(H, value)
    with pytest.raises(ValueError, match="rate"):
        depolarizing_jump_operators(value)


# ---------------------------------------------------------------------------
# perturbed closed evolution rate
# ---------------------------------------------------------------------------

def test_rate_zero_for_commuting_perturbation():
    rho = DensityOperator(np.diag([0.6, 0.4]))
    rho_tilde = gibbs_state(HamiltonianOperator(np.diag([1.0, -1.0]).astype(complex)), 1.0)
    dh = HamiltonianOperator(sigma_z)  # commutes with log rho~
    assert relative_entropy_rate(rho, dh, rho_tilde) == pytest.approx(0.0, abs=1e-14)


def test_rate_two_level_hand_value():
    # rho~ = Gibbs(diag(1,-1), beta=1), dH = sigma_x, rho = (I + 0.5 sigma_y)/2
    rho_tilde = gibbs_state(HamiltonianOperator(np.diag([1.0, -1.0]).astype(complex)), 1.0)
    rho = DensityOperator(0.5 * (np.eye(2) + 0.5 * sigma_y))
    rate = relative_entropy_rate(rho, HamiltonianOperator(sigma_x), rho_tilde)
    assert rate == pytest.approx(-1.0, abs=1e-8)


def fd_divergence_rate_closed(rho0, rho_tilde0, H, dH, t, eps):
    """Central difference of D(rho_t||rho~_t) with rho under H, rho~ under H+dH."""
    Ht = HamiltonianOperator(H.matrix + dH.matrix)
    vals = []
    for s in (t - eps, t + eps):
        a = evolve_closed(H, rho0, s)
        b = evolve_closed(Ht, rho_tilde0, s)
        vals.append(relative_entropy(a, b))
    return (vals[1] - vals[0]) / (2.0 * eps)


def test_rate_matches_fd_oracle():
    H = HamiltonianOperator(np.diag([1.0, -1.0]).astype(complex))
    dH = HamiltonianOperator(sigma_x)
    rho0 = DensityOperator(0.5 * (np.eye(2) + 0.5 * sigma_y))
    rho_tilde0 = gibbs_state(H, 1.0)
    t = 0.2
    Ht = HamiltonianOperator(H.matrix + dH.matrix)
    rho_t = evolve_closed(H, rho0, t)
    rho_tilde_t = evolve_closed(Ht, rho_tilde0, t)
    rate = relative_entropy_rate(rho_t, dH, rho_tilde_t)
    fd = fd_divergence_rate_closed(rho0, rho_tilde0, H, dH, t, 1e-5)
    assert rate == pytest.approx(fd, abs=1e-6)


def test_rate_antisymmetric_roles():
    # exchanged roles: d/dt D(rho~||rho) = -i <[dH, log rho]>_rho~
    H = HamiltonianOperator(np.diag([1.0, -1.0]).astype(complex))
    dH = HamiltonianOperator(sigma_x)
    Ht = HamiltonianOperator(H.matrix + dH.matrix)
    rho0 = DensityOperator(0.5 * (np.eye(2) + 0.4 * sigma_y + 0.2 * sigma_x))
    rho_tilde0 = gibbs_state(H, 1.0)
    t, eps = 0.2, 1e-5
    rho_t = evolve_closed(H, rho0, t)
    rho_tilde_t = evolve_closed(Ht, rho_tilde0, t)
    # rate of D(rho~_t || rho_t): the perturbation of the reference is -dH
    exchanged = relative_entropy_rate(
        rho_tilde_t, HamiltonianOperator(-dH.matrix), rho_t)
    vals = []
    for s in (t - eps, t + eps):
        vals.append(relative_entropy(evolve_closed(Ht, rho_tilde0, s),
                                     evolve_closed(H, rho0, s)))
    fd = (vals[1] - vals[0]) / (2.0 * eps)
    assert exchanged == pytest.approx(fd, abs=1e-6)


def test_rate_rejects_singular_state():
    rho = DensityOperator.maximally_mixed(2)
    singular = DensityOperator(np.diag([1.0, 0.0]))
    with pytest.raises(ValueError, match="singular"):
        relative_entropy_rate(rho, HamiltonianOperator(sigma_x), singular)


# ---------------------------------------------------------------------------
# Lindblad evolution
# ---------------------------------------------------------------------------

def test_lindblad_reduces_to_closed():
    H = HamiltonianOperator(sigma_z + 0.3 * sigma_x)
    spec = LindbladSpec(H)
    rho0 = DensityOperator.pure([1.0, 0.5])
    traj = lindblad_evolve(spec, rho0, 1.0, 1e-3, store_every=1000)
    exact = evolve_closed(H, rho0, 1.0)
    assert np.max(np.abs(traj.states[-1].matrix - exact.matrix)) < 1e-8


def test_depolarizing_channel_closed_form():
    spec = LindbladSpec(HamiltonianOperator(np.zeros((2, 2))),
                        depolarizing_jump_operators(1.0))
    rho0 = DensityOperator(np.diag([1.0, 0.0]))
    traj = lindblad_evolve(spec, rho0, 1.0, 1e-3, store_every=100)
    mixed = DensityOperator.maximally_mixed(2)
    for t, state in zip(traj.times, traj.states):
        # Bloch vector decays like e^{-t}
        exact = 0.5 * np.eye(2) + np.exp(-t) * (rho0.matrix - 0.5 * np.eye(2))
        assert np.max(np.abs(state.matrix - exact)) < 1e-7
        assert np.trace(state.matrix).real == pytest.approx(1.0, abs=1e-10)
    D = traj.divergence_curve(mixed)
    assert np.all(np.diff(D) < 1e-10)  # nonincreasing (Lindblad monotonicity)


def test_lindblad_trace_preserved_per_step():
    spec = LindbladSpec(HamiltonianOperator(sigma_z),
                        depolarizing_jump_operators(0.7))
    traj = lindblad_evolve(spec, DensityOperator.pure([1.0, 0.3j]), 0.5, 1e-3)
    traces = np.array([np.trace(s.matrix).real for s in traj.states])
    assert np.max(np.abs(traces - 1.0)) < 1e-10


def test_lindblad_stationary_state_fixed():
    spec = LindbladSpec(HamiltonianOperator(sigma_z),
                        depolarizing_jump_operators(1.0))
    mixed = DensityOperator.maximally_mixed(2)
    traj = lindblad_evolve(spec, mixed, 1.0, 1e-3, store_every=200)
    for s in traj.states:
        assert np.max(np.abs(s.matrix - mixed.matrix)) < 1e-8


def test_lindblad_step_size_independent():
    # steps are exact, so dt far beyond the decay scale changes nothing
    spec = LindbladSpec(HamiltonianOperator(np.zeros((2, 2))),
                        depolarizing_jump_operators(1.0))
    rho0 = DensityOperator(np.diag([1.0, 0.0]))
    coarse = lindblad_evolve(spec, rho0, 40.0, 4.0)
    fine = lindblad_evolve(spec, rho0, 40.0, 1e-2, store_every=400)
    assert np.allclose(coarse.times, fine.times, rtol=0.0, atol=1e-9)
    for a, b in zip(coarse.states, fine.states):
        assert np.max(np.abs(a.matrix - b.matrix)) < 1e-12


@settings(max_examples=25, deadline=None)
@given(n=st.integers(2, 5), n_jumps=st.integers(0, 3),
       seed=st.integers(0, 2**32 - 1), dt=st.floats(1e-3, 2.0),
       steps=st.integers(1, 30), store_every=st.integers(1, 7))
def test_lindblad_cptp_and_exact(n, n_jumps, seed, dt, steps, store_every):
    rng = np.random.default_rng(seed)
    H = random_hamiltonian(rng, n)
    jumps = tuple(0.5 * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
                  for _ in range(n_jumps))
    rho0 = random_density(rng, n)
    traj = lindblad_evolve(LindbladSpec(H, jumps), rho0, steps * dt, dt,
                           store_every=store_every)
    stack = np.stack([s.matrix for s in traj.states])
    assert traj.matrices.shape == (len(traj), n, n) and not traj.matrices.flags.writeable
    # states come from one batched eigh of the checked stack, bitwise the
    # state that the full DensityOperator check builds from each matrix
    for state, M in zip(traj.states, traj.matrices):
        own = DensityOperator(M)
        assert np.array_equal(state.matrix, own.matrix)
        assert np.array_equal(state.spectrum(), own.spectrum())
    assert np.max(np.abs(traj.matrices - stack)) <= 1e-14
    assert np.max(np.abs(traj.spectra - np.linalg.eigvalsh(stack))) <= 1e-14
    S = kron_liouvillian(H.matrix, jumps)
    for t, state in zip(traj.times, traj.states):
        M = state.matrix
        assert abs(np.trace(M).real - 1.0) <= 1e-12
        assert np.max(np.abs(M - M.conj().T)) <= 1e-12
        assert np.linalg.eigvalsh(M).min() >= -1e-12
        exact = (scipy.linalg.expm(t * S) @ rho0.matrix.reshape(-1)).reshape(n, n)
        assert np.max(np.abs(M - exact)) < 1e-10


def test_thermal_qubit_gibbs_stationary_and_monotone():
    beta = 1.0
    H = HamiltonianOperator(np.diag([1.0, -1.0]).astype(complex))
    spec = LindbladSpec(H, thermal_qubit_jumps(beta))
    rho_g = gibbs_state(H, beta)
    assert np.max(np.abs(spec.generator(rho_g.matrix))) < 1e-10
    rho0 = DensityOperator(0.5 * (np.eye(2) + 0.6 * sigma_x + 0.3 * sigma_z))
    traj = lindblad_evolve(spec, rho0, 2.0, 1e-3, store_every=50)
    D = traj.divergence_curve(rho_g)
    assert np.all(np.diff(D) < 1e-10)


@st.composite
def davies_draws(draw):
    """(spec, Gibbs state, full-rank state) of a random Davies generator at
    n = 2-8: a random spectrum scaled to [-1, 1], beta <= 3 and symmetric
    base rates in [0.1, 2]."""
    n = draw(st.integers(2, 8), label="n")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    beta = draw(st.floats(0.0, 3.0), label="beta")
    E, V = np.linalg.eigh(random_hamiltonian(rng, n).matrix)
    E = 2.0 * (E - E[0]) / (E[-1] - E[0]) - 1.0
    H = HamiltonianOperator((V * E) @ V.conj().T)
    rates = np.triu(rng.uniform(0.1, 2.0, (n, n)))
    spec = LindbladSpec(H, davies_generator(H.matrix, beta, rates + np.triu(rates, 1).T))
    return spec, gibbs_state(H, beta), random_density(rng, n)


@settings(max_examples=30, deadline=None)
@given(draw=davies_draws())
def test_davies_generator_annihilates_the_gibbs_state(draw):
    spec, sigma, _ = draw
    assert np.max(np.abs(spec.generator(sigma.matrix))) <= COMMUTATION_TOL


@settings(max_examples=30, deadline=None)
@given(draw=davies_draws())
def test_davies_dissipative_rate_is_nonpositive(draw):
    # Spohn's inequality for a stationary target that commutes with H
    spec, sigma, rho = draw
    assert dissipative_production_rate(rho, spec, sigma) <= 0.0


@settings(max_examples=30, deadline=None)
@given(draw=davies_draws())
def test_davies_divergence_from_gibbs_does_not_increase(draw):
    # up to the roundoff of the eigenvalues D is computed from
    spec, sigma, rho = draw
    D = lindblad_evolve(spec, rho, 1.0, 0.1).divergence_curve(sigma)
    assert np.all(np.diff(D) <= EIG_FLOOR)


def test_states_at_large_jump_rates_stay_exactly_hermitian():
    # at a jump rate of about 1e7 the roundoff of exp(dt L) alone moves the
    # states off Hermitian by up to 1.5e-10, past HERMITICITY_TOL; each step
    # takes the Hermitian part, so the stack is exactly Hermitian and is
    # exp(t L) rho0 up to the roundoff of its steps, eps ||dt L||_1 each
    H = HamiltonianOperator(np.array([[1.0, 0.5], [0.5, -1.0]]))
    L = 3000.0 * np.array([[1.0, 2.0], [0.5j, -1.0]])
    rho0 = DensityOperator(np.array([[0.6, 0.2j], [-0.2j, 0.4]]))
    dt = 0.01
    traj = lindblad_evolve(LindbladSpec(H, (L,)), rho0, 1.0, dt)
    assert np.array_equal(traj.matrices, traj.matrices.conj().swapaxes(1, 2))
    S = kron_liouvillian(H.matrix, (L,))
    tol = (len(traj) - 1) * np.finfo(float).eps * np.linalg.norm(dt * S, 1)
    for t, M in zip(traj.times, traj.matrices):
        exact = (scipy.linalg.expm(t * S) @ rho0.matrix.reshape(-1)).reshape(2, 2)
        assert np.max(np.abs(M - exact)) <= tol


def test_evolved_state_that_fails_its_check_is_a_numerical_failure(monkeypatch):
    # valid inputs, but a propagator that flips the sign of rho_11 is not
    # positive: the first evolved state has a negative eigenvalue
    monkeypatch.setattr(scipy.linalg, "expm", lambda A: np.diag([1.0, 1.0, 1.0, -1.0]))
    rho0 = DensityOperator(np.diag([0.8, 0.2]))
    with pytest.raises(NumericalFailure, match=r"^the evolved state at t = 0.01: negative "
                                               r"eigenvalue "):
        lindblad_evolve(LindbladSpec(HamiltonianOperator(sigma_z)), rho0, 1.0, 0.01)


# ---------------------------------------------------------------------------
# dissipative production rate
# ---------------------------------------------------------------------------

def test_dissipative_rate_zero_at_target():
    spec = LindbladSpec(HamiltonianOperator(np.zeros((2, 2))),
                        depolarizing_jump_operators(1.0))
    mixed = DensityOperator.maximally_mixed(2)
    assert dissipative_production_rate(mixed, spec, mixed) == pytest.approx(0.0, abs=1e-14)


def test_dissipative_rate_matches_fd():
    spec = LindbladSpec(HamiltonianOperator(np.zeros((2, 2))),
                        depolarizing_jump_operators(1.0))
    mixed = DensityOperator.maximally_mixed(2)
    rho = DensityOperator(np.diag([0.9, 0.1]))
    rate = dissipative_production_rate(rho, spec, mixed)
    assert rate < 0.0
    eps = 1e-4
    traj = lindblad_evolve(spec, rho, 2 * eps, eps)
    fd = (relative_entropy(traj.states[2], mixed)
          - relative_entropy(traj.states[0], mixed)) / (2 * eps)
    # the FD is centered at t = eps; compare the formula there
    rate_mid = dissipative_production_rate(traj.states[1], spec, mixed)
    assert rate_mid == pytest.approx(fd, abs=1e-6)


def test_pure_dephasing_rate_nonpositive():
    spec = LindbladSpec(HamiltonianOperator(np.zeros((2, 2))),
                        (np.sqrt(0.8) * sigma_z,))
    rho = DensityOperator(0.5 * (np.eye(2) + 0.5 * sigma_x + 0.3 * sigma_z))
    rho_bar = DensityOperator(np.diag(np.diag(rho.matrix)).real / np.trace(rho.matrix).real)
    assert np.max(np.abs(spec.dissipator(rho_bar.matrix))) < 1e-14
    assert dissipative_production_rate(rho, spec, rho_bar) <= 0.0


def test_dissipative_rate_commutation_precondition():
    spec = LindbladSpec(HamiltonianOperator(sigma_z),
                        depolarizing_jump_operators(1.0))
    skew = DensityOperator(0.5 * (np.eye(2) + 0.5 * sigma_x))
    with pytest.raises(ValueError, match="commute"):
        dissipative_production_rate(DensityOperator.maximally_mixed(2), spec, skew)


# ---------------------------------------------------------------------------
# perturbed open decomposition
# ---------------------------------------------------------------------------

def qrecd_testbed():
    H = HamiltonianOperator(np.diag([1.0, -1.0]).astype(complex))
    dH = HamiltonianOperator(sigma_x)
    spec_perturbed = LindbladSpec(HamiltonianOperator(H.matrix + dH.matrix),
                                  depolarizing_jump_operators(1.0))
    spec_base = LindbladSpec(H, depolarizing_jump_operators(1.0))
    rho_bar = gibbs_state(H, 1.0)
    rho = DensityOperator(0.5 * (np.eye(2) + 0.5 * sigma_y))
    return H, dH, spec_base, spec_perturbed, rho_bar, rho


def test_open_decomposition_reduces_to_dissipative():
    H, _, spec_base, _, rho_bar, rho = qrecd_testbed()
    zero = HamiltonianOperator(np.zeros((2, 2)))
    rep = production_decomposition(rho, zero, spec_base, rho_bar)
    assert rep.hamiltonian_term == 0.0
    assert rep.total == dissipative_production_rate(rho, spec_base, rho_bar)


def test_open_decomposition_commuting_perturbation():
    H, _, spec_base, _, rho_bar, rho = qrecd_testbed()
    rep = production_decomposition(rho, HamiltonianOperator(2.0 * sigma_z),
                                   spec_base, rho_bar)
    assert rep.hamiltonian_term == pytest.approx(0.0, abs=1e-14)


def test_open_decomposition_two_level_values_and_fd():
    H, dH, spec_base, spec_perturbed, rho_bar, rho = qrecd_testbed()
    rep = production_decomposition(rho, dH, spec_base, rho_bar)
    assert isinstance(rep, OpenProductionRate)
    assert rep.hamiltonian_term == pytest.approx(1.0, abs=1e-8)
    assert rep.dissipative_term < 0.0
    assert rep.total == rep.hamiltonian_term + rep.dissipative_term
    # FD along the perturbed open flow
    eps = 1e-4
    traj = lindblad_evolve(spec_perturbed, rho, 2 * eps, eps)
    fd = (relative_entropy(traj.states[2], rho_bar)
          - relative_entropy(traj.states[0], rho_bar)) / (2 * eps)
    rep_mid = production_decomposition(traj.states[1], dH, spec_base, rho_bar)
    assert rep_mid.total == pytest.approx(fd, abs=1e-6)


# ---------------------------------------------------------------------------
# operator I/O
# ---------------------------------------------------------------------------

def test_operator_io_roundtrip(tmp_path):
    rng = np.random.default_rng(2)
    M = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    path = tmp_path / "op.txt"
    save_operator(M, path)
    back = load_operator(path)
    assert np.array_equal(back, M)
    bad = tmp_path / "bad.txt"
    bad.write_text("2\n1\n")
    with pytest.raises(ValueError, match="entries"):
        load_operator(bad)
