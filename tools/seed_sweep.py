"""Seed sweep: the stochastic gates of the ensembles benchmark and of the
acceptance tests over a range of seeds.

Runs the polymer-cooling and paths-osmotic builtins through
``entroflow.cli.run_scenario`` at each of the seeds 40-51, applies the gates
the ensembles benchmark workload applies to them and criterion 7's
discrete-Lyapunov gate on the same ``temperature.csv``, runs criterion 10's
drift gate at the seed, and prints, for each gate, how many seeds pass, the
worst margin and the seeds that fail.  A gate's margin is its slack,
positive when it passes, so a gate certified at one seed only shows up as
failing seeds here.  It is no test: it takes about half a minute, and its
failures are findings.

    PYTHONPATH=src python tools/seed_sweep.py [--out DIR]
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile

import numpy as np
import scipy.linalg

from entroflow import Grid, cli, quadratic_hamiltonian
from entroflow.paths import IncrementBins
from entroflow.sde import stream_overdamped

GAINS = [0.0, 0.5, 1.0, 2.0]
SEEDS = range(40, 52)


def _polymer_margins(temps, errs):
    """The polymer-cooling gates: cooling at alpha_c = gamma, cooling
    monotone in the gain, and cooling beyond the noise."""
    return {"polymer-cooling: cooling at alpha = gamma": 1.0 - 3.0 * errs[2] - temps[2],
            "polymer-cooling: monotone in the gain": float(np.min(-np.diff(temps))),
            "polymer-cooling: cooling beyond noise":
                temps[0] - temps[-1] - 3.0 * (errs[0] + errs[-1])}


def _lyapunov_margins(c, gains, temps, errs):
    """Criterion 7's gate at each gain: T_kin within 3 SE of the stationary
    kinetic temperature of the symplectic-Euler recursion y' = A y + B w of
    y = (q, p), from P = A P A^T + B B^T at the run's dt."""
    dt, K, m, gamma, T = c["dt"], c["spring_k"], c["mass"], c["gamma"], c["temperature"]
    margins = {}
    for alpha_c, t_kin, se in zip(gains, temps, errs):
        damp = 1.0 - dt * (gamma + alpha_c) / m
        A = np.array([[1.0 - dt**2 * K / m, dt * damp / m], [-dt * K, damp]])
        B = np.sqrt(2.0 * gamma * T * dt) * np.array([[dt / m], [1.0]])
        lyapunov = scipy.linalg.solve_discrete_lyapunov(A, B @ B.T)[1, 1] / m
        margins[f"polymer-cooling: discrete Lyapunov, alpha = {alpha_c:g}"] = \
            3.0 * se - abs(t_kin - lyapunov)
    return margins


def _drift_margins(seed):
    """Criterion 10's drift gate: 100 000 Euler-Maruyama paths of the OU
    testbed from N(0, 1), dt 5e-3 to t1 1, drifts pooled over times 20-199
    in 64 cells on [-4, 4]; max |z| below 3 for beta (against -x) and gamma
    (against x).  The ensemble of ``simulate_overdamped`` is streamed into
    the bins ``estimate_drifts`` fills, so its 160 MB state array is never
    held."""
    ham = quadratic_hamiltonian(1.0, kT=1.0, sigma2=2.0)
    grid = Grid((-4.0,), (4.0,), (64,))
    bins = IncrementBins(grid, range(20, 200), 5e-3)
    stream_overdamped(ham, None, lambda rng, size: rng.standard_normal((size, 1)),
                      100_000, 5e-3, 1.0, seed, (bins.add,))
    beta, gamma = bins.estimate(+1), bins.estimate(-1)
    x, m = grid.centers()[..., 0], beta.mask & gamma.mask
    z = {name: np.max(np.abs(est.vectors[..., 0] - sign * x)[m] / est.stderr[..., 0][m])
         for name, est, sign in (("beta", beta, -1.0), ("gamma", gamma, +1.0))}
    return {f"criterion 10: drift max |z| < 3, {name}": 3.0 - v for name, v in z.items()}


def _paths_margins(resid, energy, se):
    """The paths-osmotic gates: the osmotic residual below 0.1, and the
    finite energy within 3 SE of 1 (a NaN margin, which fails, if it is not
    finite)."""
    return {"paths-osmotic: osmotic residual < 0.1": 0.1 - resid,
            "paths-osmotic: finite energy within 3 SE of 1":
                3.0 * se - abs(energy - 1.0) if np.isfinite(energy) else np.nan}


def _read(out, name):
    return np.loadtxt(os.path.join(out, name), delimiter=",", skiprows=1, ndmin=2)


def sweep(seeds, work_dir) -> dict:
    """{gate: [(seed, margin), ...]} over ``seeds``, the runs written under
    ``work_dir``."""
    margins = {}
    for seed in seeds:
        out = os.path.join(work_dir, f"polymer-cooling-{seed}")
        cooling = cli.BUILTIN_FACTORIES["polymer-cooling"]()
        cli.run_scenario(cooling, out_dir=out, seed=seed)
        gains, temps, errs = _read(out, "temperature.csv").T
        if list(gains) != GAINS:
            raise ValueError(f"polymer-cooling at seed {seed} ran the gains {list(gains)}")
        found = _polymer_margins(temps, errs)
        found.update(_lyapunov_margins(cooling.values(), gains, temps, errs))
        out = os.path.join(work_dir, f"paths-osmotic-{seed}")
        cli.run_scenario(cli.BUILTIN_FACTORIES["paths-osmotic"](), out_dir=out, seed=seed)
        found.update(_paths_margins(*_read(out, "summary.csv")[0]))
        found.update(_drift_margins(seed))
        for gate, margin in found.items():
            margins.setdefault(gate, []).append((seed, float(margin)))
    return margins


def report(margins) -> str:
    lines = [f"{'gate':48s} passed  worst margin (seed)  failing seeds"]
    for gate, rows in margins.items():
        failing = [seed for seed, m in rows if not m > 0.0]  # a NaN margin fails
        seed, worst = min(rows, key=lambda r: -np.inf if np.isnan(r[1]) else r[1])
        lines.append(f"{gate:48s} {len(rows) - len(failing):2d}/{len(rows):<3d} "
                     f"{worst:+12.4g} ({seed})  {' '.join(map(str, failing)) or '-'}")
    return "\n".join(lines)


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--out", help="keep the runs in this directory (default: a temporary one)")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.out:
        print(report(sweep(SEEDS, args.out)))
    else:
        with tempfile.TemporaryDirectory() as tmp:
            print(report(sweep(SEEDS, tmp)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
