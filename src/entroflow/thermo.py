"""Equilibrium densities, relative entropy, free energy, fluxes and forces.

The model is an overdamped diffusion with Hamiltonian drift,

    dx = [-(sigma^2 / 2 kT) grad H(x) + u] dt + sigma dW,

whose equilibrium is the Gibbs density  exp(-H/kT)/Z.  This module holds the
Hamiltonian description, the Gibbs construction, the Kullback-Leibler
divergence D(rho||sigma) = integral rho log(rho/sigma), the free energy
kT * D(rho||equilibrium), and the flux/force pair

    J   = -(sigma^2/2) grad rho - (sigma^2 / 2 kT) grad H rho,
    Phi = -grad(H + kT log rho),

linked by the constitutive relation J = (sigma^2 / 2 kT) Phi rho.

Discrete conventions: gradients of H are taken on the *sampled* energy (same
stencil as every other field) and the density gradient enters J through
rho * grad(log rho), so the constitutive relation and the free-energy decay
identity hold in the discrete algebra, not merely in the continuum limit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .grids import (
    Grid,
    GridDensity,
    VectorFieldGrid,
    gradient,
    log_gradient,
    quadrature,
    require_same_grid,
)
from .tolerances import GRAD_CHECK_RTOL, GRAD_CHECK_STEP, HERMITICITY_TOL


@dataclass(frozen=True)
class HamiltonianSpec:
    """Scalar energy landscape plus thermodynamic constants.

    energy    : H, callable on points of shape (m, dim) -> (m,)
    grad      : grad H, callable on points (m, dim) -> (m, dim)
    kT        : temperature in energy units, > 0
    sigma2    : noise intensity sigma^2 (state^2 / time), >= 0
    dim       : state dimension

    The supplied gradient is checked against central differences of the
    energy at a fixed set of probe points (step GRAD_CHECK_STEP, relative
    tolerance GRAD_CHECK_RTOL).
    """

    dim: int
    energy: Callable[[np.ndarray], np.ndarray]
    grad: Callable[[np.ndarray], np.ndarray]
    kT: float
    sigma2: float

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if not 0.0 < self.kT < np.inf:  # NaN fails too
            raise ValueError(f"kT must be positive and finite, got {self.kT!r}")
        if not 0.0 <= self.sigma2 < np.inf:
            raise ValueError(f"sigma2 must be nonnegative and finite, got {self.sigma2!r}")
        self._check_gradient()

    def _check_gradient(self):
        rng = np.random.default_rng(1234)
        pts = rng.uniform(-1.0, 1.0, size=(8, self.dim))
        g = np.asarray(self.grad(pts), dtype=float).reshape(8, self.dim)
        fd = np.empty_like(g)
        for a in range(self.dim):
            dp = np.zeros(self.dim)
            dp[a] = GRAD_CHECK_STEP
            fd[:, a] = (np.asarray(self.energy(pts + dp), dtype=float)
                        - np.asarray(self.energy(pts - dp), dtype=float)) / (2 * GRAD_CHECK_STEP)
        scale = np.maximum(np.abs(g), 1.0)
        if np.max(np.abs(fd - g) / scale) > GRAD_CHECK_RTOL:
            raise ValueError("grad does not match finite differences of energy")

    def sample_energy(self, grid: Grid) -> np.ndarray:
        vals = np.asarray(self.energy(grid.points()), dtype=float)
        return vals.reshape(grid.shape)

    def drift(self, x: np.ndarray) -> np.ndarray:
        """Uncontrolled drift -(sigma^2 / 2 kT) grad H."""
        return -(self.sigma2 / (2.0 * self.kT)) * np.asarray(self.grad(x), dtype=float)


def require_spd(M: np.ndarray, what: str) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and eigenvectors of the 2-D array ``M``, checked: square,
    symmetric to HERMITICITY_TOL, smallest eigenvalue > 0 (NaN fails)."""
    if M.shape[0] != M.shape[1]:
        raise ValueError(f"{what} must be square")
    if not np.max(np.abs(M - M.T)) <= HERMITICITY_TOL:
        raise ValueError(f"{what} must be symmetric")
    lam, V = np.linalg.eigh(M)
    if not lam[0] > 0.0:
        raise ValueError(f"{what} must be positive-definite")
    return lam, V


def quadratic_hamiltonian(Q, kT: float, sigma2: float) -> HamiltonianSpec:
    """H(x) = x^T Q x / 2 for symmetric positive-definite Q (scalar Q means 1-D)."""
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    require_spd(Q, "Q")
    dim = Q.shape[0]

    def energy(x):
        x = np.atleast_2d(x)
        return 0.5 * np.einsum("mi,ij,mj->m", x, Q, x)

    def grad(x):
        x = np.atleast_2d(x)
        # x @ Q.T, but BLAS at every dim: matmul takes a slower non-BLAS
        # loop at dim 1.  Adding 0.0 turns the -0.0 that np.dot gives for a
        # single point into matmul's 0.0, so that every bit is matmul's
        g = np.dot(x, Q.T)
        g += 0.0
        return g

    return HamiltonianSpec(dim=dim, energy=energy, grad=grad, kT=kT, sigma2=sigma2)


@dataclass(frozen=True)
class GaussianDensity:
    """Exact Gaussian N(mean, cov); the closed-form oracle for linear problems."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.atleast_1d(np.asarray(self.mean, dtype=float))
        cov = np.atleast_2d(np.asarray(self.cov, dtype=float))
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)
        if cov.shape != (mean.size, mean.size):
            raise ValueError("cov shape incompatible with mean")
        require_spd(cov, "cov")

    @property
    def dim(self) -> int:
        return self.mean.size

    def logpdf(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(x)
        d = x - self.mean
        prec = np.linalg.inv(self.cov)
        quad = np.einsum("mi,ij,mj->m", d, prec, d)
        _, logdet = np.linalg.slogdet(self.cov)
        return -0.5 * (quad + logdet + self.dim * np.log(2.0 * np.pi))

    def pdf(self, x: np.ndarray) -> np.ndarray:
        return np.exp(self.logpdf(x))

    def sample_on(self, grid: Grid) -> GridDensity:
        """Sample at cell centers and renormalize to quadrature mass 1."""
        vals = self.pdf(grid.points()).reshape(grid.shape)
        z = quadrature(grid, vals)
        if not 0.0 < z < np.inf:  # NaN fails too
            raise ValueError(f"the sampled density has quadrature mass {z:g} on the grid "
                             "box; move the box over the density's support")
        return GridDensity(grid, vals / z)

    def kl_to(self, other: "GaussianDensity") -> float:
        """Closed-form D(self || other) in nats."""
        n = self.dim
        prec = np.linalg.inv(other.cov)
        dm = other.mean - self.mean
        _, logdet_self = np.linalg.slogdet(self.cov)
        _, logdet_other = np.linalg.slogdet(other.cov)
        return 0.5 * (np.trace(prec @ self.cov) + dm @ prec @ dm - n
                      + logdet_other - logdet_self)


def gibbs_density(ham: HamiltonianSpec, grid: Grid) -> GridDensity:
    """Equilibrium density proportional to exp(-H/kT), grid-normalized.

    Its ``boundary_suspect``, as every density's, tells whether the box
    truncates the equilibrium support; the rates of `production` against
    it are valid when neither it nor the other density is suspect.
    """
    H = ham.sample_energy(grid)
    if not np.all(np.isfinite(H)):
        raise ValueError("hamiltonian not finite")
    w = np.exp(-(H - H.min()) / ham.kT)
    return GridDensity(grid, w / quadrature(grid, w))


def relative_entropy(rho: GridDensity, sigma: GridDensity) -> float:
    """D(rho||sigma) = sum rho log(rho/sigma) dV in nats.

    Cells with rho = 0 contribute nothing (0 log 0 = 0); rho > 0 on a cell
    where sigma = 0 yields +inf.  Both are probability densities, of unit
    quadrature mass to within ``MASS_TOL``, so the divergence is
    nonnegative up to that error.
    """
    require_same_grid(rho, sigma)
    return float(relative_entropy_rows(rho.values[np.newaxis], sigma)[0])


def relative_entropy_rows(rows: np.ndarray, sigma: GridDensity) -> np.ndarray:
    """D(rho_k||sigma) for each probability density ``rows[k]`` on sigma's grid.

    The one implementation behind :func:`relative_entropy` and trajectory curves.
    """
    out = np.empty(len(rows))
    for k, values in enumerate(rows):
        supp = values > 0.0
        if np.any(sigma.values[supp] == 0.0):
            out[k] = np.inf
            continue
        r, s = values[supp], sigma.values[supp]
        out[k] = np.sum(r * np.log(r / s)) * sigma.grid.cell_volume
    return out


def free_energy(rho: GridDensity, equilibrium: GridDensity, kT: float) -> float:
    """F(rho) = kT * D(rho||equilibrium), in energy units."""
    return kT * relative_entropy(rho, equilibrium)


def flux_and_force(rho: GridDensity, ham: HamiltonianSpec
                   ) -> tuple[VectorFieldGrid, VectorFieldGrid]:
    """Probability flux J and thermodynamic force Phi = -grad(H + kT log rho).

    Both fields use the shared discrete gradient on the sampled energy and on
    log(rho), floored as in every rate; the density gradient in J is rho *
    grad(log rho), which makes J = (sigma^2 / 2 kT) Phi rho a discrete identity.
    """
    grid = rho.grid
    if np.any(rho.values <= 0.0):
        raise ValueError("log-density undefined")
    H = ham.sample_energy(grid)
    gH = gradient(grid, H)
    gL = log_gradient(grid, rho.values, 0.0)
    w = rho.values[..., np.newaxis]
    J = -(ham.sigma2 / 2.0) * gL * w - (ham.sigma2 / (2.0 * ham.kT)) * gH * w
    Phi = -gH - ham.kT * gL
    return VectorFieldGrid(grid, J), VectorFieldGrid(grid, Phi)
