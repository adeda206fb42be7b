"""Relative-entropy production rates along continuity-equation flows.

For two positive families solving d rho/dt + div(f rho) = 0 with velocity
fields f and f~, and decaying boundary terms, the divergence evolves as

    d/dt D(rho~ || rho) = integral grad log(rho~/rho) . (f~ - f) rho~ dx.

Specializing rho to the Gibbs equilibrium and f~ to the controlled velocity
u - (sigma2/2) grad log(rho^u / rho_bar) splits the rate into

    d/dt D = -PEPR + EPuR,
    PEPR = (sigma2/2) integral |grad log(rho^u/rho_bar)|^2 rho^u  >= 0,
    EPuR = integral grad log(rho^u/rho_bar) . u rho^u,

an always-dissipative Fisher-information term and a pumping term carrying
the entire control dependence.  The free energy kT D(rho||rho_bar) decays at
rate -(sigma2 kT / 2) * Fisher = -integral J . Phi, and the equality of the
two forms is asserted on every call (to ``FREE_ENERGY_RTOL``) as a
discretization self-check.

One array kernel computes every grid rate: the floored log-ratio gradient on
the shared stencil of `grids.gradient`, the support weight, which gives
cells below ``DENSITY_FLOOR`` (1e-300, in `tolerances`) zero weight, and one
weighted inner product.  The functions here and in `control` wrap it, so the identities
with `thermo.flux_and_force` and the finite-volume solver hold to roundoff
rather than to discretization error.

The boundary terms these formulas drop decay on all of R^n but not
necessarily on a box: every rate here is valid when neither density it
reads is ``boundary_suspect`` (`grids.boundary_certificate`).  A rate
function computes only its rate; the caller reads the flag off the
densities it passed in.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import Grid, GridDensity, VectorFieldGrid, gradient, quadrature, require_same_grid
from .thermo import HamiltonianSpec, gibbs_density, flux_and_force
from .tolerances import (DECOMPOSITION_TOL, DENSITY_FLOOR, FREE_ENERGY_RTOL,
                         FREE_ENERGY_SCALE_FLOOR)


def floored_log(values) -> np.ndarray:
    """log(values) with values floored at DENSITY_FLOOR (IEEE underflow guard)."""
    return np.log(np.maximum(values, DENSITY_FLOOR))


def floored_log_ratio_gradient(grid: Grid, values: np.ndarray,
                               ref_values: np.ndarray) -> np.ndarray:
    """grad log(values/ref_values) on the shared stencil, both floored at DENSITY_FLOOR."""
    return gradient(grid, floored_log(values) - floored_log(ref_values))


def support_weight(values: np.ndarray, ref_values: np.ndarray | None = None) -> np.ndarray:
    """Density on cells at or above DENSITY_FLOOR, 0 below; ref_values must be > 0 there."""
    supp = values >= DENSITY_FLOOR
    if ref_values is not None and np.any(ref_values[supp] <= 0.0):
        raise ValueError("nonpositive density")
    return np.where(supp, values, 0.0)


def weighted_inner(grid: Grid, a: np.ndarray, b: np.ndarray, w: np.ndarray) -> float:
    """Midpoint quadrature of the cellwise dot product a . b weighted by w."""
    return quadrature(grid, np.einsum("...i,...i->...", a, b) * w)


def split_rate(grid: Grid, g: np.ndarray, u: np.ndarray, w: np.ndarray,
               sigma2: float) -> tuple[float, float, float]:
    """(total, pepr, epur) from the log-ratio gradient g, control u and weight w."""
    pepr = 0.5 * sigma2 * weighted_inner(grid, g, g, w)
    epur = weighted_inner(grid, g, u, w)
    return -pepr + epur, pepr, epur


def check_decomposition_identity(total, pepr, epur) -> None:
    """Raise unless total = -pepr + epur to DECOMPOSITION_TOL, elementwise (NaN fails)."""
    if not np.all(np.isclose(total, -pepr + epur, rtol=0.0, atol=DECOMPOSITION_TOL)):
        raise ValueError("decomposition identity violated")


def log_ratio_gradient(rho: GridDensity, ref: GridDensity) -> np.ndarray:
    """grad log(rho/ref) with the shared discrete stencil; floored at DENSITY_FLOOR."""
    return floored_log_ratio_gradient(require_same_grid(rho, ref), rho.values, ref.values)


def relative_entropy_rate(rho_tilde: GridDensity, rho: GridDensity,
                          f_tilde: VectorFieldGrid, f: VectorFieldGrid) -> float:
    """d/dt D(rho~||rho) from the velocity fields of the two evolutions.

    Quadrature of grad log(rho~/rho) . (f~ - f) rho~.  The formula drops
    the boundary terms of an integration by parts, so the rate is valid when
    neither density is ``boundary_suspect``; the caller reads that flag.
    """
    grid = require_same_grid(rho_tilde, rho, f_tilde, f)
    w = support_weight(rho_tilde.values, rho.values)
    g = floored_log_ratio_gradient(grid, rho_tilde.values, rho.values)
    return weighted_inner(grid, g, f_tilde.vectors - f.vectors, w)


def entropy_rate(rho: GridDensity, f: VectorFieldGrid) -> float:
    """d/dt S(rho) = -integral grad log rho . f rho for a continuity flow."""
    grid = require_same_grid(rho, f)
    g = gradient(grid, floored_log(rho.values))
    return -weighted_inner(grid, g, f.vectors, support_weight(rho.values))


@dataclass(frozen=True)
class ProductionReport:
    """Rate decomposition d/dt D(rho^u||rho_bar) = -pepr + epur.

    pepr >= 0 is the Fisher-information production term, epur the pumping
    term carried by the control.  ``entropy_production`` = -total exposes
    the opposite sign convention used when quoting production rather than
    divergence decay.
    """

    total: float
    pepr: float
    epur: float

    @property
    def entropy_production(self) -> float:
        return -self.total

    def __post_init__(self):
        check_decomposition_identity(self.total, self.pepr, self.epur)


def production_decomposition(rho_u: GridDensity, equilibrium: GridDensity,
                             u: VectorFieldGrid, sigma2: float) -> ProductionReport:
    """Split d/dt D(rho^u||equilibrium) into -PEPR + EPuR.

    ``equilibrium`` must be the Gibbs density of the Hamiltonian that
    generates the uncontrolled drift (caller's responsibility: it enters
    only through log ratios, so this cannot be verified here).  The split
    is valid when neither density is ``boundary_suspect``.
    """
    grid = require_same_grid(rho_u, equilibrium, u)
    w = support_weight(rho_u.values, equilibrium.values)
    g = floored_log_ratio_gradient(grid, rho_u.values, equilibrium.values)
    total, pepr, epur = split_rate(grid, g, u.vectors, w, sigma2)
    return ProductionReport(total=total, pepr=pepr, epur=epur)


def free_energy_decay_rate(rho: GridDensity, ham: HamiltonianSpec) -> float:
    """d/dt F(rho) = -(sigma2 kT / 2) integral |grad log(rho/rho_bar)|^2 rho.

    Also evaluates the flux-force form -integral J . Phi and raises if the
    two disagree beyond FREE_ENERGY_RTOL relative (a discretization
    inconsistency); below FREE_ENERGY_SCALE_FLOOR both count as zero.
    """
    grid = rho.grid
    equilibrium = gibbs_density(ham, grid).values
    g = floored_log_ratio_gradient(grid, rho.values, equilibrium)
    w = support_weight(rho.values, equilibrium)
    pepr = 0.5 * ham.sigma2 * weighted_inner(grid, g, g, w)
    form1 = -ham.kT * pepr
    J, Phi = flux_and_force(rho, ham)
    form2 = -weighted_inner(grid, J.vectors, Phi.vectors, 1.0)
    scale = max(abs(form1), abs(form2))
    if scale > FREE_ENERGY_SCALE_FLOOR and abs(form1 - form2) > FREE_ENERGY_RTOL * scale:
        raise ValueError("FE identity violated: "
                         f"{form1!r} (Fisher form) vs {form2!r} (flux-force form)")
    return form1
