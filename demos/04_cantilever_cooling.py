#!/usr/bin/env python3
"""Velocity-feedback cooling of a thermally driven cantilever mode.

An underdamped harmonic mode coupled to a thermostat at T = 1 receives a
feedback force -alpha_c V on top of its friction -gamma V, while the noise
stays tied to gamma by fluctuation-dissipation.  The feedback acts like
extra friction without extra noise, so the measured kinetic temperature
drops below the thermostat value and keeps dropping as the gain grows.
"""
from entroflow import harmonic_cantilever, kinetic_temperature, simulate_polymer

GAMMA, T = 1.0, 1.0
print(f"thermostat T = {T}, friction gamma = {GAMMA}, spring K = 1, dt = 5e-3")
print(f"{'alpha_c':>8} {'T_kin':>8} {'stderr':>8} {'T*g/(g+a)':>10}")
for gain in (0.0, 0.5, 1.0, 2.0):
    spec = harmonic_cantilever(spring_k=1.0, gamma=GAMMA, control_gain=gain,
                               temperature=T)
    ens = simulate_polymer(spec, n_traj=2000, dt=5e-3, t1=15.0, seed=7)
    kt = kinetic_temperature(ens, spec, window=(5.0, 15.0))
    linear_response = T * GAMMA / (GAMMA + gain)
    print(f"{gain:8.2f} {kt.values[0]:8.4f} {kt.stderr[0]:8.4f} "
          f"{linear_response:10.4f}")

print("\nthe last column is the linear-response guess, shown for comparison "
      "only;\nthe measurement is what the package reports.")
