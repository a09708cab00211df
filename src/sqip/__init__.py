"""Diffusive SI/SIS epidemic dynamics with power-law incidence.

A numerical laboratory for the two-component reaction-diffusion system

    S_t - d_S Lap(S) = -beta(x,t) K(S,I) + gamma(x,t) S^s I^r
    I_t - d_I Lap(I) = +beta(x,t) K(S,I) - (gamma(x,t) + mu(x,t)) S^s I^r

with zero-flux boundaries and incidence kernels K built on S^q I^p,
plus the spectral threshold quantities and zero-diffusion companion
systems needed to verify its long-time behavior claims.

Each public name and submodule is imported on first use (PEP 562), so
a process loads only the layers it calls: a PDE run never compiles the
ODE oracle.
"""

import importlib

__version__ = "0.1.0"  # eager: the sweep journal hashes it

# Submodule -> the public names it holds, each name listed once.
_EXPORTS = {
    "config": ("load_config", "parse_config"),
    "diagnostics": ("classify_longtime",),
    "errors": ("AssumptionError", "ConfigError", "DomainError", "NumericsError",
               "SqipError", "StiffnessError"),
    "grid": ("Domain", "integrate"),
    "model": ("CoefficientField", "Exponents", "Incidence", "ModelSpec",
              "classify_exponents", "read_coefficient_table",
              "validate_assumptions"),
    "ode": ("SiOdeParams", "SisOdeParams", "extinction_time_bound", "n_star",
            "si_classify", "sis_classify", "sis_steady_states"),
    "presets": ("PRESET_NAMES", "preset_config"),
    "runner": ("run_scenario", "run_sweep"),
    "solver": ("Stepper", "SystemState", "Trajectory", "run"),
    "spectral": ("LinearizedProblem", "monodromy_radius", "principal_eigenvalue",
                 "r0"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _HOME:
        return getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *_HOME})
