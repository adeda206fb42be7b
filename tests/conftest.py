import numpy as np
import pytest
import scipy.sparse

from entroflow import Grid, GaussianDensity, HamiltonianSpec, quadratic_hamiltonian
from entroflow.grids import face_sides


@pytest.fixture(scope="session")
def ou_ham():
    """H = x^2/2, kT = 1, sigma^2 = 2: the 1-D testbed used throughout."""
    return quadratic_hamiltonian(1.0, kT=1.0, sigma2=2.0)


@pytest.fixture(scope="session")
def ou_grid():
    return Grid((-8.0,), (8.0,), (2048,))


@pytest.fixture(scope="session")
def gauss12():
    return GaussianDensity([1.0], [[2.0]])


@pytest.fixture(scope="session")
def gauss01():
    return GaussianDensity([0.0], [[1.0]])


def normal_pdf(x, mean=0.0, var=1.0):
    return np.exp(-((x - mean) ** 2) / (2.0 * var)) / np.sqrt(2.0 * np.pi * var)


def flat_hamiltonian(sigma2, dim=1):
    """H = 0: pure diffusion of intensity ``sigma2`` (sigma2 = 0: no motion
    but the control's)."""
    return HamiltonianSpec(dim=dim,
                           energy=lambda x: np.zeros(np.atleast_2d(x).shape[0]),
                           grad=lambda x: np.zeros_like(np.atleast_2d(x)),
                           kT=1.0, sigma2=sigma2)


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and np.ascontiguousarray(a).tobytes() == \
        np.ascontiguousarray(b).tobytes()


def stencil_csr(stepper):
    """The operator A a ``fokker_planck._Stepper`` has loaded, as a canonical
    CSR matrix built from its face stencil: A[hi, lo] = ``lower[a]`` and
    A[lo, hi] = ``upper[a]`` at the interior faces along each axis a, and
    ``diag`` on the diagonal.  Zero couplings stay explicit entries."""
    grid = stepper.grid
    idx = np.arange(grid.size).reshape(grid.shape)
    rows, cols, values = [idx.ravel()], [idx.ravel()], [stepper.diag.ravel()]
    for a, (lower, upper) in enumerate(zip(stepper.lower, stepper.upper)):
        lo, hi = face_sides(a)
        rows += [idx[hi].ravel(), idx[lo].ravel()]
        cols += [idx[lo].ravel(), idx[hi].ravel()]
        values += [lower.ravel(), upper.ravel()]
    A = scipy.sparse.csr_matrix(
        (np.concatenate(values), (np.concatenate(rows), np.concatenate(cols))),
        shape=(grid.size, grid.size))
    A.sum_duplicates()  # sorted columns, as a product sums them
    return A


def kron_liouvillian(H, jumps):
    """The Lindblad generator in row-major vec form: vec(A X B) = (A kron B^T) vec(X)."""
    eye = np.eye(H.shape[0])
    S = -1j * (np.kron(H, eye) - np.kron(eye, H.T))
    for L in jumps:
        LdL = L.conj().T @ L
        S += np.kron(L, L.conj()) - 0.5 * (np.kron(LdL, eye) + np.kron(eye, LdL.T))
    return S


def davies_generator(H, beta, rates):
    """Jump operators of a Davies generator for the Hermitian matrix ``H``:
    sqrt(gamma_jk) |j><k| between its eigenvectors for every j != k, with
    gamma_jk = rates[j, k] exp(-beta (E_j - E_k) / 2).  A symmetric
    ``rates`` gives gamma_jk / gamma_kj = exp(-beta (E_j - E_k)), detailed
    balance against exp(-beta H), whose Gibbs state is then stationary
    (Davies, Commun. Math. Phys. 39 (1974) 91)."""
    E, V = np.linalg.eigh(H)
    n = len(E)
    return tuple(np.sqrt(rates[j, k] * np.exp(-0.5 * beta * (E[j] - E[k])))
                 * np.outer(V[:, j], V[:, k].conj())
                 for j in range(n) for k in range(n) if j != k)
