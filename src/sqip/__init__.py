"""Diffusive SI/SIS epidemic dynamics with power-law incidence.

A numerical laboratory for the two-component reaction-diffusion system

    S_t - d_S Lap(S) = -beta(x,t) K(S,I) + gamma(x,t) S^s I^r
    I_t - d_I Lap(I) = +beta(x,t) K(S,I) - (gamma(x,t) + mu(x,t)) S^s I^r

with zero-flux boundaries and incidence kernels K built on S^q I^p,
plus the spectral threshold quantities and zero-diffusion companion
systems needed to verify its long-time behavior claims.
"""

__version__ = "0.1.0"  # before the submodules: the sweep journal hashes it

from .diagnostics import (OutcomeReport, Tolerances, classify_longtime,
                          detect_periodic, lk_norm)
from .errors import (AssumptionError, ConfigError, DomainError, NumericsError,
                     SqipError, StiffnessError)
from .grid import Domain, integrate, poincare_constant
from .model import (AssumptionReport, CoefficientField, Exponents, Incidence,
                    ModelSpec, classify_exponents, evaluate_incidence,
                    read_coefficient_table, validate_assumptions)
from .ode import (SiOdeParams, SisOdeParams, extinction_time_bound, n_star,
                  rk4_integrate, si_classify, sis_classify, sis_steady_states)
from .solver import SolverSettings, Stepper, SystemState, Trajectory, run
from .spectral import (LinearizedProblem, SpectralResult, monodromy_radius,
                       principal_eigenvalue, r0)
from .config import ScenarioConfig, load_config, parse_config
from .presets import PRESET_NAMES, preset_config
from .runner import RunResult, run_scenario, run_sweep

__all__ = [
    "AssumptionError", "AssumptionReport", "CoefficientField", "ConfigError",
    "Domain", "DomainError", "Exponents",
    "Incidence", "LinearizedProblem", "ModelSpec", "NumericsError",
    "OutcomeReport", "PRESET_NAMES", "RunResult", "ScenarioConfig",
    "SiOdeParams", "SisOdeParams", "SolverSettings", "SpectralResult",
    "SqipError", "Stepper", "StiffnessError", "SystemState", "Tolerances",
    "Trajectory", "classify_exponents", "classify_longtime",
    "detect_periodic", "evaluate_incidence", "extinction_time_bound",
    "integrate", "lk_norm", "load_config", "monodromy_radius", "n_star",
    "parse_config", "poincare_constant", "preset_config",
    "principal_eigenvalue", "r0", "read_coefficient_table", "rk4_integrate",
    "run", "run_scenario", "run_sweep", "si_classify", "sis_classify",
    "sis_steady_states", "validate_assumptions",
]
