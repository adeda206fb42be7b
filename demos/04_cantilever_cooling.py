#!/usr/bin/env python3
"""Velocity-feedback cooling of a thermally driven cantilever mode.

An underdamped harmonic mode coupled to a thermostat at T = 1 receives a
feedback force -alpha_c V on top of its friction -gamma V, while the noise
stays tied to gamma by fluctuation-dissipation.  The feedback acts like
extra friction without extra noise, so the measured kinetic temperature
drops below the thermostat value and keeps dropping as the gain grows.
"""
import numpy as np

from entroflow import harmonic_cantilever
from entroflow.sde import WindowTemperatures, stream_polymer

GAMMA, T = 1.0, 1.0
GAINS = (0.0, 0.5, 1.0, 2.0)
N_TRAJ, DT, T1 = 2000, 5e-3, 15.0
print(f"thermostat T = {T}, friction gamma = {GAMMA}, spring K = 1, dt = 5e-3")
print(f"{'alpha_c':>8} {'T_kin':>8} {'stderr':>8} {'T*g/(g+a)':>10}")
spec = harmonic_cantilever(spring_k=1.0, gamma=GAMMA, temperature=T)
# the gains step as one state on one noise draw; each gain steps as its own run would
times = DT * np.arange(round(T1 / DT) + 1)
temps = WindowTemperatures(spec, len(GAINS), N_TRAJ, times, window=(5.0, 15.0))
stream_polymer(spec, GAINS, N_TRAJ, DT, T1, seed=7, observers=(temps.add,))
for gain, kt in zip(GAINS, temps.estimates()):
    linear_response = T * GAMMA / (GAMMA + gain)
    print(f"{gain:8.2f} {kt.values[0]:8.4f} {kt.stderr[0]:8.4f} "
          f"{linear_response:10.4f}")

print("\nthe last column is the linear-response guess, shown for comparison "
      "only;\nthe measurement is what the package reports.")
