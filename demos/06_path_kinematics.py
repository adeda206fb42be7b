#!/usr/bin/env python3
"""Forward/backward drifts, the osmotic relation and the current drift.

A stationary OU ensemble (dx = -x dt + sqrt(2) dW) is read forwards and
backwards in time.  Cell-binned conditional increments recover the forward
drift -x and the backward drift +x; their difference matches
sigma^2 grad log p, their average (the current drift) vanishes, the path
kinetic energy E int |beta|^2 dt equals the stationary second moment, and
the one-time density transports along the current drift in the weak sense.
"""
from entroflow import Grid, quadratic_hamiltonian, simulate_overdamped
from entroflow.paths import (
    current_drift,
    default_test_functions,
    estimate_drifts,
    finite_energy_estimate,
    osmotic_residual,
    weak_continuity_check,
)
from entroflow.sde import estimate_density

ham = quadratic_hamiltonian(1.0, kT=1.0, sigma2=2.0)
x0 = lambda rng, size: rng.standard_normal((size, 1))
ens = simulate_overdamped(ham, None, x0, n_traj=100_000, dt=5e-3, t1=1.0, seed=42)
print(f"stationary OU ensemble: {ens.n_traj} paths, {len(ens.times)} time points")

grid = Grid((-4.0,), (4.0,), (64,))
pool = list(range(20, 200))
beta, gamma = estimate_drifts(ens, pool, grid)
v = current_drift(beta, gamma)

x = grid.centers()[..., 0]
m = beta.mask & gamma.mask
print(f"\npopulated cells: {int(m.sum())} of {grid.size}")
print(f"{'x':>6} {'beta^':>8} {'-x':>8} {'gamma^':>8} {'+x':>8} {'v^':>8}")
for k in range(4, 64, 12):
    if m[k]:
        print(f"{x[k]:6.2f} {beta.vectors[k, 0]:8.4f} {-x[k]:8.4f} "
              f"{gamma.vectors[k, 0]:8.4f} {x[k]:8.4f} {v.vectors[k, 0]:8.4f}")

p_hat = estimate_density(ens, 100, grid)
print(f"\nosmotic residual |beta - gamma - sigma^2 grad log p|: "
      f"{osmotic_residual(beta, gamma, p_hat, 2.0):.4f}")

fe = finite_energy_estimate(ens, lambda x: -x)
print(f"path kinetic energy E int |beta|^2 dt = {fe.value:.4f} "
      f"+- {fe.stderr:.4f}  (stationary second moment: 1)")

print("\nweak continuity d/dt<phi> vs <grad phi . v>:")
for r in weak_continuity_check(ens, v, default_test_functions(), 100):
    print(f"  phi={r.name:6s} {r.ensemble_rate:+.4f} vs {r.transport_rate:+.4f} "
          f"(consistent: {r.consistent})")
