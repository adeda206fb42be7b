#!/usr/bin/env python3
"""Fokker-Planck relaxation and the entropy production decomposition.

Starting from N(1,2), the uncontrolled overdamped dynamics relaxes to the
Gibbs density.  Along the solver trajectory the divergence D(rho_t||rho_bar)
decays monotonically, its rate splits into -PEPR + EPuR (the pumping term
vanishes without control), and the analytic rate formula agrees with a
central finite difference of the computed divergence curve.
"""
import numpy as np

from entroflow import (
    GaussianDensity,
    Grid,
    HamiltonianFlow,
    VectorFieldGrid,
    evolve,
    gibbs_density,
    production_decomposition,
    quadratic_hamiltonian,
)

ham = quadratic_hamiltonian(1.0, kT=1.0, sigma2=2.0)
grid = Grid((-8.0,), (8.0,), (2048,))
rho_bar = gibbs_density(ham, grid)
rho0 = GaussianDensity([1.0], [[2.0]]).sample_on(grid)

dt = 1e-3
traj = evolve(HamiltonianFlow(ham), rho0, 0.0, 1.0, dt, store_every=50)
D = traj.divergence_curve(rho_bar)

print("OU relaxation, divergence decay (expected initial rate -1.5):")
print(f"{'t':>6} {'D':>10} {'total':>10} {'pepr':>10} {'fd rate':>10}")
for k in range(0, len(traj), 4):
    rep = production_decomposition(traj.densities[k], rho_bar,
                                   VectorFieldGrid.zero(grid), ham.sigma2)
    if 0 < k < len(traj) - 1:
        fd = (D[k + 1] - D[k - 1]) / (traj.times[k + 1] - traj.times[k - 1])
    else:
        fd = np.nan
    print(f"{traj.times[k]:6.2f} {D[k]:10.6f} {rep.total:10.6f} "
          f"{rep.pepr:10.6f} {fd:10.6f}")

print(f"\nstrictly decreasing: {bool(np.all(np.diff(D) < 0))}")
print(f"mass drift over the run: {np.abs(traj.mass_curve() - 1).max():.2e}")
