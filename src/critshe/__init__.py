"""critshe: moment calculus and simulation for the critical-window 2D SHE.

The package has two independent routes to the same physics and treats
their agreement as its core correctness argument:

* the limit route: special functions (:mod:`critshe.specfun`), mollifier
  constants (:mod:`critshe.mollifier`), diagram enumeration
  (:mod:`critshe.diagrams`), exact Gaussian-mixture operator algebra
  (:mod:`critshe.gausscalc`), singularity-aware time-simplex integration
  (:mod:`critshe.simplexint`), and the moment engine assembling them
  (:mod:`critshe.momentengine`);
* the pre-limit route: direct Monte Carlo simulation of the mollified
  equation and a deterministic two-particle PDE oracle
  (:mod:`critshe.shesim`).

Both routes take their test functions and initial data in one format,
isotropic Gaussian mixtures normalized by :func:`critshe.gausscalc.mixture`.
The command-line front end lives in :mod:`critshe.cli` (entry point
``critshe``).
"""

from .diagrams import DiagramIndex, classify, count, enumerate_diagrams
from .errors import (
    AccuracyError,
    AccuracyWarning,
    BlowupError,
    BranchCutError,
    CritSheError,
    DomainError,
    IntegrandError,
    NonconvergenceWarning,
    ParameterError,
    RankError,
    ResolutionError,
    SingularityError,
)
from .gausscalc import (
    GaussianMixtureState,
    apply_heat,
    apply_in,
    apply_J,
    apply_med,
    apply_out,
    inner_product,
    mixture,
    per_particle,
    product_state,
    second_moment_closed_form,
)
from .mollifier import (
    EULER_GAMMA,
    CouplingSchedule,
    Mollifier,
    PairProfile,
    beta_eps,
    beta_phi,
    beta_star,
    pair_profile,
)
from .momentengine import (
    MomentRequest,
    MomentResult,
    centered_third_moment,
    correlation,
    diagram_contribution,
    semigroup_residual,
)
from .shesim import (
    FieldParams,
    FieldState,
    initial_state,
    moment_time_series,
    noise_increment,
    step,
    two_particle_oracle,
)
from .simplexint import IntegrationPlan, integrate
from .specfun import (
    GammaPolynomial,
    bessel_k0,
    green2d,
    jfn,
    jfn_times_t,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "CritSheError", "DomainError", "SingularityError", "BranchCutError",
    "ResolutionError", "ParameterError", "AccuracyError", "RankError",
    "IntegrandError", "BlowupError", "AccuracyWarning", "NonconvergenceWarning",
    # special functions
    "GammaPolynomial", "jfn", "jfn_times_t",
    "bessel_k0", "green2d",
    # mollifier
    "Mollifier", "PairProfile", "pair_profile", "beta_phi", "beta_eps",
    "beta_star", "CouplingSchedule", "EULER_GAMMA",
    # diagrams
    "DiagramIndex", "enumerate_diagrams", "count", "classify",
    # Gaussian algebra and the mixture input format
    "mixture", "per_particle",
    "GaussianMixtureState", "product_state", "apply_heat",
    "apply_in", "apply_out", "apply_med", "apply_J", "inner_product",
    "second_moment_closed_form",
    # simplex integration
    "IntegrationPlan", "integrate",
    # moment engine
    "MomentRequest", "MomentResult", "diagram_contribution", "correlation",
    "centered_third_moment", "semigroup_residual",
    # simulation
    "FieldParams", "FieldState", "initial_state", "step", "noise_increment",
    "moment_time_series", "two_particle_oracle",
]
