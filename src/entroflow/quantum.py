"""Closed and open n-level quantum systems and their entropy production.

Units have hbar = 1, so energies are rates.  Closed dynamics is the unitary
von Neumann flow i d rho/dt = [H, rho]; open dynamics adds the Lindblad
dissipator

    L[rho] = sum_k ( L_k rho L_k^dag - (L_k^dag L_k rho + rho L_k^dag L_k)/2 ).

The relative entropy D(rho||sigma) = tr(rho (log rho - log sigma)) with the
0 log 0 = 0 convention plays the role of the classical divergence, and its
rates mirror the classical formulas:

* perturbing the Hamiltonian of the reference evolution by Delta H gives
  d/dt D(rho||rho~) = i <[Delta H, log rho~]>_rho  (closed systems);
* against a fixed full-rank target rho_bar commuting with H,
  d/dt D(rho||rho_bar) = -i <[Delta H, log rho_bar]>_rho
                         + tr(L[rho](log rho - log rho_bar)),
  and the dissipative term alone is nonpositive whenever rho_bar is
  stationary for the semigroup (Lindblad monotonicity).

All matrix functions go through Hermitian eigendecompositions, so the
functional calculus is exact for the operators this module accepts.  Each
state and Hamiltonian is diagonalised once: a state keeps the eigensystem
its check computes, a Hamiltonian its own from first use, and closed
evolution, which keeps the spectrum, only rotates the eigenvectors.  Open
evolution steps with the exponential of the generator's superoperator, so
it is exact for any step size; :func:`.grids.march`, the loop the grid
solvers step through too, applies it and stores the states in one
read-only ``(n_times, n, n)`` stack, checked once for trace, Hermiticity
and eigenvalues by the check every :class:`DensityOperator` runs.  The
batched eigenvalues feed the purity and entropy curves, and one batched
eigendecomposition gives the state objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg

from .grids import NumericalFailure, march, time_steps
from .tolerances import (COMMUTATION_TOL, EIG_FLOOR, HERMITICITY_TOL, IMAG_RESIDUE_TOL,
                         SUPPORT_ESCAPE_TOL, TRACE_TOL)

sigma_x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
sigma_y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
sigma_z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def _as_matrix(M) -> np.ndarray:
    M = np.asarray(M, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("operator must be a square matrix")
    if not np.all(np.isfinite(M)):
        raise ValueError("operator entries must be finite")
    return M


def _require_hermitian(M: np.ndarray, what: str) -> np.ndarray:
    """Hermitian part of a matrix or a stack ``(..., n, n)``, if close to it."""
    Mh = np.swapaxes(M.conj(), -1, -2)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow gives inf or NaN
        off = np.max(np.abs(M - Mh))
    if not off <= HERMITICITY_TOL:  # NaN fails too
        raise ValueError(f"{what} must be Hermitian (off by {off:.3e})")
    return 0.5 * M + 0.5 * Mh  # 0.5 * (M + Mh) overflows near the largest float


def _check_density(M: np.ndarray, vectors: bool = False):
    """Eigenvalues (and eigenvectors if ``vectors``) of a density matrix or a
    stack of them, checked: Hermitian, unit trace, none below -EIG_FLOOR."""
    M = _require_hermitian(M, "density operator")
    with np.errstate(over="ignore"):  # an overflowed trace is inf and fails
        off = np.max(np.abs(np.trace(M, axis1=-2, axis2=-1).real - 1.0))
    if not off <= TRACE_TOL:
        raise ValueError(f"trace must be 1 (off by {off:.3e})")
    lam, U = np.linalg.eigh(M) if vectors else (np.linalg.eigvalsh(M), None)
    if lam.min() < -EIG_FLOOR:
        raise ValueError(f"negative eigenvalue {lam.min():.3e}")
    return lam, U


class DensityOperator:
    """Hermitian positive-semidefinite unit-trace matrix with its eigensystem.

    Eigenvalues in [-EIG_FLOOR, 0) are clamped to zero; anything more
    negative or a trace off 1 by more than TRACE_TOL is rejected.  ``matrix``
    is built from the eigenvalues (clamped, unit sum) and eigenvectors, kept
    read-only.
    """

    def __init__(self, matrix):
        lam, U = _check_density(_as_matrix(matrix), vectors=True)
        lam = np.maximum(lam, 0.0)
        self._keep(lam / lam.sum(), U)

    @classmethod
    def _from_eigensystem(cls, lam: np.ndarray, U: np.ndarray) -> "DensityOperator":
        """Eigenvalues ``lam`` >= 0 with unit sum, orthonormal ``U``: not checked."""
        return cls.__new__(cls)._keep(lam, U)

    def _keep(self, lam: np.ndarray, U: np.ndarray) -> "DensityOperator":
        self._lam, self._U, self.matrix = lam, U, (U * lam) @ U.conj().T
        for a in (lam, U, self.matrix):
            a.flags.writeable = False
        return self

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def pure(cls, psi) -> "DensityOperator":
        psi = np.asarray(psi, dtype=complex).reshape(-1)
        psi = psi / np.linalg.norm(psi)
        return cls(np.outer(psi, psi.conj()))

    @classmethod
    def maximally_mixed(cls, n: int) -> "DensityOperator":
        return cls(np.eye(n) / n)

    def eigensystem(self) -> tuple[np.ndarray, np.ndarray]:
        return self._lam, self._U

    def spectrum(self) -> np.ndarray:
        return self._lam

    def purity(self) -> float:
        return float(spectral_purity(self.spectrum()))


@dataclass(frozen=True)
class HamiltonianOperator:
    """Hermitian energy observable, in units with hbar = 1."""

    matrix: np.ndarray

    def __post_init__(self):
        M = _require_hermitian(_as_matrix(self.matrix), "hamiltonian")
        M.flags.writeable = False  # _eigh is cached from it
        object.__setattr__(self, "matrix", M)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @cached_property
    def _eigh(self) -> tuple[np.ndarray, np.ndarray]:
        return np.linalg.eigh(self.matrix)  # once per Hamiltonian, on first use


@dataclass(frozen=True)
class LindbladSpec:
    """Effective Hamiltonian plus jump operators of a Markovian semigroup."""

    hamiltonian: HamiltonianOperator
    jump_ops: tuple = ()

    def __post_init__(self):
        ops = tuple(_as_matrix(L) for L in self.jump_ops)
        for L in ops:
            if L.shape != self.hamiltonian.matrix.shape:
                raise ValueError("jump operator dimension mismatch")
        object.__setattr__(self, "jump_ops", ops)

    def dissipator(self, rho: np.ndarray) -> np.ndarray:
        out = np.zeros_like(rho)
        for L in self.jump_ops:
            Ld = L.conj().T
            LdL = Ld @ L
            out += L @ rho @ Ld - 0.5 * (LdL @ rho + rho @ LdL)
        return out

    def generator(self, rho: np.ndarray) -> np.ndarray:
        H = self.hamiltonian.matrix
        comm = H @ rho - rho @ H
        return -1j * comm + self.dissipator(rho)


def depolarizing_jump_operators(rate: float) -> tuple:
    """sqrt(rate/4) sigma_k for k in {x, y, z}: isotropic qubit noise."""
    if not 0.0 <= rate < np.inf:  # NaN fails too
        raise ValueError(f"rate must be nonnegative and finite, got {rate!r}")
    c = np.sqrt(rate / 4.0)
    return (c * sigma_x, c * sigma_y, c * sigma_z)


# ---------------------------------------------------------------------------
# matrix functions (Hermitian functional calculus)
# ---------------------------------------------------------------------------

def _log_psd(rho: DensityOperator, what: str = "state") -> np.ndarray:
    lam, U = rho.eigensystem()
    if lam.min() <= EIG_FLOOR:
        raise ValueError(f"log of singular {what}")
    return (U * np.log(lam)) @ U.conj().T


def von_neumann_entropy(rho: DensityOperator) -> float:
    """-tr(rho log rho) in nats, with 0 log 0 = 0."""
    return float(spectral_entropy(rho.spectrum()))


def spectral_entropy(lam: np.ndarray) -> np.ndarray:
    """-sum lam log lam over the last axis of spectra; lam <= EIG_FLOOR counts as 0."""
    lam = np.where(lam > EIG_FLOOR, lam, 1.0)
    return -np.sum(lam * np.log(lam), axis=-1)


def spectral_purity(lam: np.ndarray) -> np.ndarray:
    """tr(rho^2) = sum lam^2 over the last axis of spectra."""
    return np.sum(lam * lam, axis=-1)


def relative_entropy(rho: DensityOperator, sigma: DensityOperator) -> float:
    """tr(rho(log rho - log sigma)); +inf when supp(rho) leaves supp(sigma)."""
    if rho.dim != sigma.dim:
        raise ValueError("dimension mismatch")
    lam, U = rho.eigensystem()
    mu, V = sigma.eigensystem()
    overlap = np.abs(U.conj().T @ V) ** 2  # overlap[i, j] = |<u_i|v_j>|^2
    sing = mu <= EIG_FLOOR
    if lam @ overlap[:, sing].sum(axis=1) > SUPPORT_ESCAPE_TOL:
        return np.inf
    cross = float((lam[:, None] * overlap[:, ~sing] * np.log(mu[~sing])[None, :]).sum())
    return -float(spectral_entropy(lam)) - cross


def gibbs_state(H: HamiltonianOperator, beta: float) -> DensityOperator:
    """Z^{-1} exp(-beta H); commutes with H by construction."""
    if not 0.0 <= beta < np.inf:  # NaN fails too
        raise ValueError(f"beta must be nonnegative and finite, got {beta!r}")
    lam, U = H._eigh
    w = np.exp(-beta * (lam - lam.min()))
    return DensityOperator._from_eigensystem(w / w.sum(), U)


# ---------------------------------------------------------------------------
# closed dynamics
# ---------------------------------------------------------------------------

def evolve_closed(H: HamiltonianOperator, rho0: DensityOperator,
                  t: float) -> DensityOperator:
    """rho_t = U rho0 U^dag with U = exp(-i H t): the eigenvalues of
    rho0 with eigenvectors U V0 (unitary conjugation keeps the spectrum)."""
    if H.dim != rho0.dim:
        raise ValueError("dimension mismatch")
    lam, V = H._eigh
    U = (V * np.exp(-1j * lam * t)) @ V.conj().T
    p, W = rho0.eigensystem()
    return DensityOperator._from_eigensystem(p, U @ W)


def _real_rate(value: complex, what: str) -> float:
    if abs(value.imag) > IMAG_RESIDUE_TOL:
        raise NumericalFailure(f"{what} has imaginary residue {value.imag:.3e}")
    return float(value.real)


def relative_entropy_rate(rho: DensityOperator, delta_h: HamiltonianOperator,
                          rho_tilde: DensityOperator) -> float:
    """d/dt D(rho||rho~) = i <[Delta H, log rho~]>_rho.

    ``rho`` follows the unperturbed Hamiltonian, ``rho~`` the perturbed one
    H + Delta H; both evaluated at the same instant.  ``rho~`` must be
    full-rank.  Exchanging the roles flips the sign and replaces the log
    argument (pass -Delta H and swap the states).
    """
    L = _log_psd(rho_tilde, "state")
    comm = delta_h.matrix @ L - L @ delta_h.matrix
    val = 1j * np.trace(rho.matrix @ comm)
    return _real_rate(val, "relative entropy rate")


# ---------------------------------------------------------------------------
# open dynamics
# ---------------------------------------------------------------------------

@dataclass
class OperatorTrajectory:
    """States ``matrices[k]`` at ``times[k]`` in one read-only stack, and their
    eigenvalues ``spectra[k]`` from the check in :func:`lindblad_evolve`."""

    times: np.ndarray
    matrices: np.ndarray
    spectra: np.ndarray

    def __len__(self) -> int:
        return len(self.times)

    @cached_property
    def states(self) -> tuple[DensityOperator, ...]:
        """The stored states as :class:`DensityOperator` objects, built on first
        use from one batched eigensystem of the exactly Hermitian stack
        :func:`lindblad_evolve` checked, eigenvalues clamped and normalised as a state's own."""
        lam, U = np.linalg.eigh(self.matrices)
        lam = np.maximum(lam, 0.0)
        lam /= lam.sum(axis=-1, keepdims=True)
        return tuple(map(DensityOperator._from_eigensystem, lam, U))

    def divergence_curve(self, reference: DensityOperator) -> np.ndarray:
        return np.array([relative_entropy(s, reference) for s in self.states])


CHECK_BLOCK = 64  # states per batched check: temporaries stay a block, not the stack


def lindblad_evolve(spec: LindbladSpec, rho0: DensityOperator, t1: float,
                    dt: float, store_every: int = 1) -> OperatorTrajectory:
    """Exact steps of the semigroup: rho <- exp(dt L) rho.

    The n^2 x n^2 superoperator is assembled once by applying the generator
    to the matrix units, and exponentiated once.  The generator does not
    depend on time, so each step is exact up to roundoff and completely
    positive and trace-preserving (Lindblad's theorem).  Each step takes the
    Hermitian part, then renormalises the trace, so roundoff can neither move
    the state off Hermitian nor accumulate.  :func:`.grids.march` stores every
    ``store_every``-th state and the last in one stack, checked once, block by
    block, as a :class:`DensityOperator` is; a failing state is a numerical failure.
    """
    n = rho0.dim
    if spec.hamiltonian.dim != n:
        raise ValueError("dimension mismatch")
    time_steps(0.0, t1, dt)  # a bad horizon is rejected before the O(n^6) expm
    # S[k] = L[E_k] for the k-th matrix unit E_k, i.e. column k of the
    # superoperator; scaled in place so expm runs with no second copy
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is rejected below
        S = spec.generator(np.eye(n * n, dtype=complex).reshape(n * n, n, n))
        S *= dt
        propagator = scipy.linalg.expm(S.reshape(n * n, n * n).T)
    if not np.all(np.isfinite(propagator)):
        raise ValueError(f"the step propagator exp(dt L) is not finite at dt = {dt:g}: "
                         "the generator's rates overflow")

    transpose = np.arange(n * n).reshape(n, n).T.reshape(-1)  # flat index of M^T

    def step(k, rho):
        rho = propagator @ rho
        rho += rho[transpose].conj()  # exactly Hermitian; the 2 cancels in the trace
        return rho / rho[::n + 1].sum().real

    start = _require_hermitian(rho0.matrix, "density operator")  # exactly Hermitian
    times, stack = march(step, start.reshape(-1), 0.0, t1, dt, store_every)
    matrices = stack.reshape(-1, n, n)
    return OperatorTrajectory(times, matrices, _check_evolved(times, matrices))


def _check_evolved(times: np.ndarray, matrices: np.ndarray, block=CHECK_BLOCK) -> np.ndarray:
    """The eigenvalues of evolved states, checked ``block`` states at a time
    as a :class:`DensityOperator` is.  The inputs were checked, so a failure
    is a :class:`.grids.NumericalFailure` naming the first time that fails."""
    spectra = []
    for i in range(0, len(times), block):
        try:
            spectra.append(_check_density(matrices[i:i + block])[0])
        except ValueError as e:
            if block > 1:  # the first state of the block that fails raises
                _check_evolved(times[i:i + block], matrices[i:i + block], 1)
            raise NumericalFailure(f"the evolved state at t = {times[i]:.6g}: {e}") from None
    return np.concatenate(spectra)


def dissipative_production_rate(rho: DensityOperator, spec: LindbladSpec,
                                rho_bar: DensityOperator) -> float:
    """tr(L[rho] (log rho - log rho_bar)) for a commuting full-rank target.

    Nonpositive whenever rho_bar is stationary for the semigroup; requires
    [rho_bar, H] = 0 (within COMMUTATION_TOL) and full-rank states.
    """
    H = spec.hamiltonian.matrix
    comm = rho_bar.matrix @ H - H @ rho_bar.matrix
    if np.max(np.abs(comm)) > COMMUTATION_TOL:
        raise ValueError("target state does not commute with the effective hamiltonian")
    diff = _log_psd(rho) - _log_psd(rho_bar, "target state")
    val = np.trace(spec.dissipator(rho.matrix) @ diff)
    return _real_rate(val, "dissipative production rate")


@dataclass(frozen=True)
class OpenProductionRate:
    """d/dt D(rho||rho_bar) under perturbed open evolution, term by term."""

    total: float
    hamiltonian_term: float
    dissipative_term: float


def production_decomposition(rho: DensityOperator, delta_h: HamiltonianOperator,
                             spec: LindbladSpec, rho_bar: DensityOperator
                             ) -> OpenProductionRate:
    """Split d/dt D(rho||rho_bar) for the flow with Hamiltonian H + Delta H.

    hamiltonian_term = -i <[Delta H, log rho_bar]>_rho,
    dissipative_term = tr(L[rho](log rho - log rho_bar));
    ``rho_bar`` is a fixed target commuting with the effective H.
    """
    ham_term = -relative_entropy_rate(rho, delta_h, rho_bar)
    diss = dissipative_production_rate(rho, spec, rho_bar)
    return OpenProductionRate(ham_term + diss, ham_term, diss)


# ---------------------------------------------------------------------------
# operator text I/O: first line n, then n^2 entries a+bi row-major
# ---------------------------------------------------------------------------

def save_operator(M, path) -> None:
    M = _as_matrix(M)
    n = M.shape[0]
    with open(path, "w") as fh:
        fh.write(f"{n}\n")
        for v in M.reshape(-1):
            fh.write(f"{v.real:.17g}{v.imag:+.17g}i\n")


def load_operator(path) -> np.ndarray:
    """Read the size n, then the n*n entries row by row; errors name the file."""
    with open(path) as fh:
        tokens = fh.read().split()
    try:
        if not tokens:
            raise ValueError("empty operator file")
        n = int(tokens[0]) if tokens[0].lstrip("+-").isdigit() else 0
        if n < 1:
            raise ValueError(f"size must be an integer >= 1, got {tokens[0]!r}")
        if len(tokens) != 1 + n * n:
            raise ValueError(f"expected {n * n} entries, got {len(tokens) - 1}")
        # only a trailing i or j is the imaginary unit, so inf and nan parse
        vals = [complex(tok[:-1] + "j") if tok[-1] in "ij" else complex(float(tok))
                for tok in tokens[1:]]
        return _as_matrix(np.array(vals).reshape(n, n))
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None
