import numpy as np
import pytest

from entroflow import Grid, GaussianDensity, HamiltonianSpec, quadratic_hamiltonian


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
