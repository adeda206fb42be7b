"""Every tolerance an invariant check reads, named once.

The paper's results are identities: -PEPR + EPuR = total rate, the
free-energy decay law, Gibbs invariance and Lindblad monotonicity.  The code
checks each of them, and each state it builds, numerically.  Every check
reads its tolerance here, under the name of the invariant it guards, and one
line says why the value is what it is.  Plain numbers; nothing is imported.
"""

# -- grids, time grids and the finite-volume solver --------------------------

# quadrature mass a probability density may differ from 1 by
MASS_TOL = 1e-8
# relative slack of a time (horizon, window edge, index) against its grid time, and of a
# stored time step against dt
TIME_GRID_RTOL = 1e-9
# a solver step below -this aborts; tinier negatives are roundoff, clamped to 0
POSITIVITY_TOL = 1e-12
# N-D solve residual: at 1e-12 the mass drifted 1e-11 over 100 steps of 128^2
KRYLOV_RTOL = 1e-14
# |rho| and |omega| below which BiCGSTAB breaks down: eps^2, as in scipy's bicgstab
KRYLOV_BREAKDOWN_TOL = 2.0 ** -104
# |z| below which B(z) takes its series: z / expm1(z) loses digits there
BERNOULLI_SERIES_CUTOFF = 1e-10
# density boundary value, relative to its peak, that flags a support the box truncates
BOUNDARY_DECAY_FACTOR = 1e-10

# -- thermodynamics -----------------------------------------------------------

# central-difference step of the check of a supplied grad H
GRAD_CHECK_STEP = 1e-6
# grad H against those differences, relative to max(|grad H|, 1)
GRAD_CHECK_RTOL = 1e-5
# largest entry of M - M^H of a symmetric or Hermitian matrix: roundoff only
HERMITICITY_TOL = 1e-12

# -- production rates and feedback control ------------------------------------

# density below which a cell has zero weight and its log is floored (underflow)
DENSITY_FLOOR = 1e-300
# |total - (-PEPR + EPuR)|: the split is one sum, so roundoff only
DECOMPOSITION_TOL = 1e-12
# Fisher form vs flux-force form of dF/dt, relative: same stencil, roundoff
FREE_ENERGY_RTOL = 1e-6
# scale of dF/dt below which both forms count as zero and are not compared
FREE_ENERGY_SCALE_FLOOR = 1e-12
# -(sigma2/2 + alpha) Fisher vs the production split, relative to max(|rate|, 1)
MODULATED_RATE_RTOL = 1e-12
# H(1, ..., 1) vs 1^T Q 1 / 2: the Hamiltonian is the quadratic form of Q
QUADRATIC_FORM_TOL = 1e-8
# smallest |total_rate| the finite-difference residual is taken relative to
FD_RESIDUAL_FLOOR = 1e-30

# -- path ensembles -----------------------------------------------------------

# share of samples outside the grid box that a density estimate tolerates
ESCAPED_FRACTION_MAX = 1e-3
# escape radius in initial or thermal spreads: a path 50 sd out has diverged, not fluctuated
ESCAPE_RADIUS_FACTOR = 50.0
# summed standard errors the weak continuity equation's two sides may differ by: 3 sigma
CONTINUITY_SE_FACTOR = 3.0
# samples below which a cell's drift is not trusted: from 30 its mean is near normal
MIN_CELL_COUNT = 30

# -- quantum states and rates -------------------------------------------------

# eigenvalue below -this rejects a state; at or below +this it counts as 0
EIG_FLOOR = 1e-12
# trace of a density operator off 1
TRACE_TOL = 1e-12
# weight of rho outside supp(sigma) that makes D(rho||sigma) infinite
SUPPORT_ESCAPE_TOL = 1e-10
# imaginary part a real rate may carry from roundoff
IMAG_RESIDUE_TOL = 1e-10
# largest entry of [rho_bar, H] for a target that commutes with H
COMMUTATION_TOL = 1e-10
# central-difference step of the qubit-qrec check of the closed-system rate
QREC_FD_STEP = 1e-5
