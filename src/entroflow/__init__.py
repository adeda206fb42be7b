"""Entropy production for controlled Markovian evolution.

Numerical laboratory covering: Gibbs equilibria and relative entropy on
grids, a conservative Chang-Cooper finite-volume Fokker-Planck solver,
entropy production/pumping decompositions for feedback-controlled
diffusions, Monte Carlo SDE ensembles (overdamped and underdamped with
velocity feedback), n-level closed and open quantum systems, and forward/
backward drift kinematics of finite-energy path ensembles.
"""

from .grids import (
    Grid,
    GridDensity,
    GridMismatchError,
    NumericalFailure,
    VectorFieldGrid,
    gradient,
    quadrature,
)
from .thermo import (
    GaussianDensity,
    HamiltonianSpec,
    flux_and_force,
    free_energy,
    gibbs_density,
    quadratic_hamiltonian,
    relative_entropy,
)
from .fokker_planck import (
    ConvergenceError,
    DensityTrajectory,
    MassDriftError,
    PositivityError,
    continuity_velocity,
    evolve,
)
from .production import (
    ProductionReport,
    entropy_rate,
    free_energy_decay_rate,
    production_decomposition,
    relative_entropy_rate,
)
from .control import (
    GainSchedule,
    GaussMarkovState,
    decomposition_curve,
    equilibrium_gaussian,
    evolve_modulated,
    feedback_control,
    gauss_markov_propagate,
    modulated_decay_rate,
    simulate_feedback,
)
from .sde import (
    KineticTemperature,
    PathEnsemble,
    PolymerSpec,
    TrajectoryDivergence,
    estimate_density,
    harmonic_cantilever,
    kinetic_temperature,
    sample_moments,
    simulate_overdamped,
    simulate_polymer,
)
from .paths import (
    DriftEstimate,
    current_drift,
    estimate_drifts,
    finite_energy_estimate,
    osmotic_residual,
    weak_continuity_check,
)
from . import quantum

__all__ = [
    "Grid", "GridDensity", "GridMismatchError", "NumericalFailure", "VectorFieldGrid",
    "gradient", "quadrature",
    "GaussianDensity", "HamiltonianSpec",
    "flux_and_force", "free_energy", "gibbs_density",
    "quadratic_hamiltonian", "relative_entropy",
    "ConvergenceError", "DensityTrajectory", "MassDriftError", "PositivityError",
    "continuity_velocity", "evolve",
    "ProductionReport", "entropy_rate",
    "free_energy_decay_rate", "production_decomposition",
    "relative_entropy_rate",
    "GainSchedule", "GaussMarkovState",
    "decomposition_curve", "equilibrium_gaussian", "evolve_modulated",
    "feedback_control", "gauss_markov_propagate", "modulated_decay_rate",
    "simulate_feedback",
    "KineticTemperature", "PathEnsemble", "PolymerSpec",
    "TrajectoryDivergence", "estimate_density", "harmonic_cantilever",
    "kinetic_temperature", "sample_moments", "simulate_overdamped",
    "simulate_polymer",
    "DriftEstimate", "current_drift", "estimate_drifts", "finite_energy_estimate",
    "osmotic_residual", "weak_continuity_check",
    "quantum",
]

__version__ = "0.1.0"
