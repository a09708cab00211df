"""Named scenario presets, one per qualitative regime of the dynamics.

Each PDE preset is a flat config-key dictionary, so ``preset = name`` in
a config file and ``--override`` flags compose through one resolution
path. Presets are 1D by default (fast enough for CI); 2D variants are
produced by the harness flag, which swaps the domain keys.
"""

from __future__ import annotations

from .config import ScenarioConfig, resolve_config
from .errors import ConfigError

# Mortality drives infection out and leaves a flat positive susceptible
# level no larger than sup(gamma + mu)/beta.
_DISEASE_FREE = {
    "model.p": "1.0", "model.q": "1.0",
    "model.beta": "1.0", "model.gamma": "1.0", "model.mu": "1.0",
    "model.dS": "1.0", "model.dI": "1.0",
    "domain.L": "1.0", "domain.n": "128",
    "initial.S": "constant(1.0)",
    "initial.I": "bump(0.5, 0.1, 0.5)",
    "solver.t_end": "200.0",
    "solver.dt_max": "0.02",
    "solver.cadence": "0.5",
}

# Sublinear infected exponent with mortality: the epidemic burns through
# the hosts and both densities vanish. The extinction tolerance is set to
# the scale this run provably reaches by its end time.
_EXTINCTION = {
    "model.p": "0.5", "model.q": "1.0",
    "model.beta": "2.0", "model.gamma": "0.2", "model.mu": "0.5",
    "model.dS": "1.0", "model.dI": "1.0",
    "domain.L": "1.0", "domain.n": "96",
    "initial.S": "constant(0.3)",
    "initial.I": "bump(0.5, 0.1, 0.5)",
    "solver.t_end": "800.0",
    "solver.dt_max": "0.05",
    "solver.cadence": "2.0",
    "detect.tol_extinct": "1e-3",
}

# Conserved total mass equal to the domain measure; transmission double
# the recovery, so the flat endemic state (0.5, 0.5) attracts.
_PERSIST = {
    "model.p": "1.0", "model.q": "1.0",
    "model.beta": "2.0", "model.gamma": "1.0", "model.mu": "0.0",
    "model.dS": "1.0", "model.dI": "1.0",
    "domain.L": "1.0", "domain.n": "128",
    "initial.S": "bump(0.5, 0.1, -0.5, floor=1.0)",
    "initial.I": "bump(0.5, 0.1, 0.5)",
    "solver.t_end": "40.0",
    "solver.dt_max": "0.02",
    "solver.cadence": "0.1",
}

# Same balance but with a seasonally forced transmission rate; the
# attractor is a one-period orbit, detected by snapshot pairs.
_PERIODIC = {
    "model.p": "1.0", "model.q": "1.0",
    "model.beta": "2.0", "model.beta_t_amp": "0.5",
    "model.gamma": "1.0", "model.mu": "0.0",
    "model.omega": "1.0",
    "model.dS": "1.0", "model.dI": "1.0",
    "domain.L": "1.0", "domain.n": "96",
    "initial.S": "bump(0.5, 0.1, -0.5, floor=1.0)",
    "initial.I": "bump(0.5, 0.1, 0.5)",
    "solver.t_end": "60.0",
    "solver.dt_max": "0.01",
    "solver.cadence": "0.1",
    "solver.periodic_snapshots": "8",
}

# Superlinear infected exponent: outcome depends on the starting split.
# The flat start (0.5, 0.5) sits in the endemic basin of (0.3, 0.7).
_SIS_BISTABLE = {
    "model.p": "2.0", "model.q": "1.0",
    "model.beta": "1.0", "model.gamma": "0.21", "model.mu": "0.0",
    "model.dS": "1.0", "model.dI": "1.0",
    "domain.L": "1.0", "domain.n": "96",
    "initial.S": "constant(0.5)",
    "initial.I": "constant(0.5)",
    "solver.t_end": "80.0",
    "solver.dt_max": "0.02",
    "solver.cadence": "0.2",
}

# Seasonal transmission averaging exactly to the recovery rate: the
# principal eigenvalue sits at zero and the reproduction number at one.
_R0_THRESHOLD = {
    "model.p": "1.0", "model.q": "1.0",
    "model.beta": "1.0", "model.beta_t_amp": "0.5",
    "model.gamma": "1.0", "model.mu": "0.0",
    "model.omega": "1.0",
    "model.dS": "1.0", "model.dI": "1.0",
    "domain.L": "1.0", "domain.n": "96",
    "initial.S": "bump(0.5, 0.1, -0.5, floor=1.0)",
    "initial.I": "bump(0.5, 0.1, 0.5)",
    "solver.t_end": "30.0",
    "solver.dt_max": "0.01",
    "solver.cadence": "0.1",
    "solver.periodic_snapshots": "6",
}

PDE_PRESETS: dict[str, dict[str, str]] = {
    "thm-2.10-i": _DISEASE_FREE,
    "thm-2.10-ii": _EXTINCTION,
    "thm-2.11-persist": _PERSIST,
    "thm-2.11-periodic": _PERIODIC,
    "sis-bistable": _SIS_BISTABLE,
    "r0-threshold": _R0_THRESHOLD,
}

# Zero-diffusion companion preset: susceptibles hit zero in finite time,
# bounded above by the closed-form hitting-time estimate.
ODE_PRESETS: dict[str, dict[str, object]] = {
    "si-finite-extinction": {
        "system": "si",
        "q": 0.5, "p": 1.0, "mu": 1.0, "beta": 1.0,
        "S0": 1.0, "I0": 4.0,
        "dt": 1e-3, "t_end": 2.0,
    },
}

PRESET_NAMES = tuple(sorted(PDE_PRESETS)) + tuple(sorted(ODE_PRESETS))


def preset_kind(name: str) -> str:
    if name in PDE_PRESETS:
        return "pde"
    if name in ODE_PRESETS:
        return "ode"
    raise ConfigError(
        f"unknown preset {name!r}; available: {', '.join(PRESET_NAMES)}")


def preset_pairs(name: str) -> dict[str, str]:
    """Raw config pairs of a PDE preset (a copy, safe to layer over)."""
    if name not in PDE_PRESETS:
        raise ConfigError(f"preset {name!r} is not a PDE preset; only these can "
                          f"be a config layer: {', '.join(sorted(PDE_PRESETS))}")
    return dict(PDE_PRESETS[name])


def preset_config(name: str, overrides: dict[str, str] | None = None,
                  two_dim: bool = False) -> ScenarioConfig:
    """Resolved scenario for a named PDE preset.

    ``two_dim`` swaps the interval for a square of the same edge length
    at a coarser resolution, the gated 2D variant of each preset.
    """
    pairs = preset_pairs(name)
    if two_dim:
        length = pairs.pop("domain.L")
        pairs.pop("domain.n")
        pairs.update({"domain.Lx": length, "domain.Ly": length,
                      "domain.nx": "48", "domain.ny": "48"})
    return resolve_config({**pairs, **(overrides or {})}, name=name,
                          preset=name)
