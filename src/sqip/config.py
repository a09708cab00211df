"""Scenario configuration: strict text format, defaults, initial data.

The format is sectioned key = value text with # comments:

    [model]
    p = 1.0
    beta = 2.0

    [domain]
    L = 1.0
    n = 128

Unknown keys are errors with their line number, never warnings: a typo
that silently falls back to a default is how irreproducible experiments
happen. A top-level ``preset = name`` line (before any section) expands
to the named catalog entry, with the file's own keys layered on top.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .diagnostics import Tolerances
from .errors import ConfigError
from .grid import Domain, Domain1D, Domain2D
from .model import (CoefficientField, Exponents, Incidence, ModelSpec,
                    read_coefficient_table)
from .solver import SolverSettings

# Schema: section -> key -> (type tag, default string or None = mandatory
# within its group). Domain keys are group-validated separately.
SCHEMA: dict[str, dict[str, tuple[str, str | None]]] = {
    "model": {
        "p": ("float", "1.0"),
        "q": ("float", "1.0"),
        "s": ("float", "0.0"),
        "r": ("float", "1.0"),
        "dS": ("float", "1.0"),
        "dI": ("float", "1.0"),
        "beta": ("float", "1.0"),
        "beta_t_amp": ("float", "0.0"),
        "beta_x_amp": ("float", "0.0"),
        "beta_table": ("str", ""),
        "gamma": ("float", "1.0"),
        "gamma_t_amp": ("float", "0.0"),
        "gamma_x_amp": ("float", "0.0"),
        "gamma_table": ("str", ""),
        "mu": ("float", "0.0"),
        "mu_t_amp": ("float", "0.0"),
        "mu_x_amp": ("float", "0.0"),
        "mu_table": ("str", ""),
        "omega": ("float-or-none", "none"),
        "incidence": ("choice:power|binomial|saturated|media", "power"),
        "k": ("float", "1.0"),
        "ell": ("float", "0.0"),
    },
    "domain": {
        "L": ("float", None),
        "n": ("int", None),
        "Lx": ("float", None),
        "Ly": ("float", None),
        "nx": ("int", None),
        "ny": ("int", None),
    },
    "initial": {
        "S": ("initial", "constant(1.0)"),
        "I": ("initial", "bump(auto, auto, 0.5)"),
    },
    "solver": {
        "t_end": ("float", "50.0"),
        "dt_init": ("float-or-none", "auto"),
        "dt_min": ("float", "1e-10"),
        "dt_max": ("float", "0.02"),
        "max_steps": ("int", "2000000"),
        "cadence": ("float-or-none", "auto"),
        "snapshots": ("float-list", ""),
        "periodic_snapshots": ("int", "0"),
        "allow_degenerate_initial": ("bool", "false"),
    },
    "detect": {
        "tol_extinct": ("float", "1e-4"),
        "tol_flat": ("float", "1e-4"),
        "tol_persist": ("float", "1e-3"),
        "tol_periodic": ("float", "1e-4"),
        "window": ("float", "0.2"),
        "min_window": ("int", "5"),
    },
}

_SECTION_RE = re.compile(r"^\[([a-z]+)\]$")
_KEY_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*)\s*=\s*(.*)$")
_CALL_RE = re.compile(r"^([a-z]+)\((.*)\)$")


@dataclass(frozen=True)
class InitialData:
    """Initial field description: constant level, bump, or a file."""

    kind: str  # constant | bump | tabulated
    value: float = 0.0
    center: tuple[float, ...] = ()
    width: float = 0.0
    amplitude: float = 0.0
    floor: float = 0.0
    path: str = ""

    def build(self, domain: Domain) -> np.ndarray:
        """The field on the grid.

        Raises:
            ConfigError: a data file does not fit the grid, or a value is
                NaN or infinite.
        """
        if self.kind == "constant":
            field = np.full(domain.shape, self.value)
        elif self.kind == "tabulated":
            arr = np.loadtxt(self.path, dtype=float)
            if arr.size != int(np.prod(domain.shape)):
                raise ConfigError(
                    f"initial data file {self.path} has {arr.size} values, "
                    f"grid needs {int(np.prod(domain.shape))}")
            field = arr.reshape(domain.shape)
        else:
            # Gaussian bump: strictly positive everywhere, so it satisfies
            # the strict-positivity requirements of fractional exponents.
            if isinstance(domain, Domain1D):
                x = domain.cell_centers()
                center = self.center[0] if self.center else 0.5 * domain.length
                width = self.width or 0.1 * domain.length
                r2 = (x - center) ** 2
            else:
                x, y = domain.cell_centers()
                cx = self.center[0] if self.center else 0.5 * domain.length_x
                cy = (self.center[1] if len(self.center) > 1
                      else 0.5 * domain.length_y)
                width = self.width or 0.1 * min(domain.length_x,
                                                domain.length_y)
                r2 = (x[:, None] - cx) ** 2 + (y[None, :] - cy) ** 2
            # inf * exp(...) is NaN where the exponential underflows; the
            # check below reports it.
            with np.errstate(invalid="ignore", over="ignore"):
                field = (self.amplitude * np.exp(-0.5 * r2 / width**2)
                         + self.floor)
        if not np.isfinite(field).all():
            raise ConfigError(
                f"{self.kind} initial data has a NaN or infinite value")
        return field


def _parse_initial(text: str, line: int) -> InitialData:
    text = text.strip()
    try:
        return InitialData("constant", value=float(text))
    except ValueError:
        pass
    m = _CALL_RE.match(text)
    if not m:
        raise ConfigError(f"cannot parse initial data {text!r}", line)
    name, argtext = m.group(1), m.group(2)
    args, kwargs = [], {}
    for piece in filter(None, (p.strip() for p in argtext.split(","))):
        if "=" in piece:
            key, val = (s.strip() for s in piece.split("=", 1))
            kwargs[key] = val
        else:
            args.append(piece)
    if name == "constant":
        if len(args) != 1 or kwargs:
            raise ConfigError("constant(...) takes exactly one value", line)
        return InitialData("constant", value=float(args[0]))
    if name == "tabulated":
        if len(args) != 1 or kwargs:
            raise ConfigError("tabulated(...) takes exactly one path", line)
        return InitialData("tabulated", path=args[0])
    if name == "bump":
        if len(args) < 3:
            raise ConfigError(
                "bump(...) needs center..., width, amplitude", line)
        floor = float(kwargs.pop("floor", 0.0))
        if kwargs:
            raise ConfigError(f"unknown bump option {sorted(kwargs)}", line)
        nums = [None if a == "auto" else float(a) for a in args]
        *center, width, amplitude = nums
        if amplitude is None:
            raise ConfigError("bump amplitude cannot be auto", line)
        center_vals = tuple(c for c in center if c is not None)
        return InitialData("bump", center=center_vals, width=width or 0.0,
                           amplitude=amplitude, floor=floor)
    raise ConfigError(f"unknown initial data form {name!r}", line)


def _coerce(tag: str, raw: str, section: str, key: str, line: int | None):
    raw = raw.strip()
    try:
        if tag == "float":
            return float(raw)
        if tag == "int":
            return int(raw)
        if tag == "bool":
            if raw.lower() in ("true", "yes", "1"):
                return True
            if raw.lower() in ("false", "no", "0"):
                return False
            raise ValueError(f"not a boolean: {raw!r}")
        if tag == "str":
            return raw
        if tag == "float-or-none":
            if raw.lower() in ("none", "auto", ""):
                return None
            return float(raw)
        if tag == "float-list":
            return tuple(float(tok) for tok in raw.split())
        if tag.startswith("choice:"):
            choices = tag.split(":", 1)[1].split("|")
            if raw not in choices:
                raise ValueError(f"must be one of {choices}, got {raw!r}")
            return raw
        if tag == "initial":
            return _parse_initial(raw, line)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"bad value for {section}.{key}: {exc}", line) from None
    raise ConfigError(f"internal schema tag {tag!r}")


def parse_pairs(text: str, name: str = "<config>"
                ) -> tuple[str | None, dict[str, tuple[str, int]]]:
    """Raw (section.key -> (value text, line)) map plus any preset name."""
    preset = None
    section = None
    pairs: dict[str, tuple[str, int]] = {}
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        line = rawline.split("#", 1)[0].strip()
        if not line:
            continue
        m = _SECTION_RE.match(line)
        if m:
            section = m.group(1)
            if section not in SCHEMA:
                raise ConfigError(f"unknown section [{section}]", lineno)
            continue
        m = _KEY_RE.match(line)
        if not m:
            raise ConfigError(f"cannot parse line {rawline!r}", lineno)
        key, value = m.group(1), m.group(2).strip()
        if section is None:
            if key == "preset":
                preset = value.strip().strip("\"'")
                continue
            raise ConfigError(
                f"key {key!r} appears before any section (only 'preset' may)",
                lineno)
        if key not in SCHEMA[section]:
            raise ConfigError(f"unknown key {key!r} in section [{section}]",
                              lineno)
        pairs[f"{section}.{key}"] = (value, lineno)
    return preset, pairs


@dataclass(frozen=True)
class ScenarioConfig:
    """Fully resolved experiment description."""

    name: str
    preset: str | None
    model: ModelSpec
    domain: Domain
    initial_S: InitialData
    initial_I: InitialData
    t_end: float
    cadence: float
    snapshot_times: tuple[float, ...]
    solver: SolverSettings
    detect: Tolerances
    omega: float | None
    allow_degenerate_initial: bool
    resolved: tuple[tuple[str, str], ...]  # every key, defaults included

    def initial_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        return self.initial_S.build(self.domain), self.initial_I.build(self.domain)

    def total_mass(self) -> float:
        from .grid import integrate
        S0, I0 = self.initial_arrays()
        return integrate(self.domain, S0) + integrate(self.domain, I0)

    def defaults_table(self) -> list[str]:
        """Every resolved key as key=value lines, for self-describing runs."""
        return [f"{key}={val}" for key, val in self.resolved]

    def with_overrides(self, overrides: dict[str, str]) -> "ScenarioConfig":
        pairs = {key: (val, None) for key, val in self.resolved}
        for key, val in overrides.items():
            section = key.split(".", 1)[0] if "." in key else ""
            if "." not in key or section not in SCHEMA \
                    or key.split(".", 1)[1] not in SCHEMA[section]:
                raise ConfigError(f"unknown override key {key!r}")
            pairs[key] = (val, None)
        return resolve_config(pairs, name=self.name, preset=self.preset)


def _build_coefficient(values: dict, which: str, length: float,
                       omega: float | None) -> CoefficientField:
    table_path = values[f"model.{which}_table"]
    if table_path:
        return read_coefficient_table(table_path, length)
    return CoefficientField.cosine_modulated(
        values[f"model.{which}"],
        time_amp=values[f"model.{which}_t_amp"],
        period=omega,
        space_amp=values[f"model.{which}_x_amp"],
        length=length,
    )


def resolve_config(pairs: dict[str, tuple[str, int | None]],
                   name: str = "<config>",
                   preset: str | None = None) -> ScenarioConfig:
    """Validate raw pairs, apply defaults, and build the scenario."""
    for full in pairs:
        section, _, key = full.partition(".")
        if section not in SCHEMA or key not in SCHEMA[section]:
            raise ConfigError(f"unknown key {full!r}", pairs[full][1])
    values: dict[str, object] = {}
    provided = set(pairs)
    for section, keys in SCHEMA.items():
        for key, (tag, default) in keys.items():
            full = f"{section}.{key}"
            if full in pairs:
                raw, line = pairs[full]
                values[full] = _coerce(tag, raw, section, key, line)
            elif default is not None:
                values[full] = _coerce(tag, default, section, key, None)
            else:
                values[full] = None

    has_1d = values["domain.L"] is not None or values["domain.n"] is not None
    has_2d = any(values[f"domain.{k}"] is not None
                 for k in ("Lx", "Ly", "nx", "ny"))
    if has_1d and has_2d:
        raise ConfigError("domain must be 1D (L, n) or 2D (Lx, Ly, nx, ny), not both")
    if has_1d:
        if values["domain.L"] is None or values["domain.n"] is None:
            raise ConfigError("missing mandatory key: domain needs both L and n")
        domain: Domain = Domain1D(values["domain.L"], values["domain.n"])
        length = domain.length
    elif has_2d:
        missing = [k for k in ("Lx", "Ly", "nx", "ny")
                   if values[f"domain.{k}"] is None]
        if missing:
            raise ConfigError(f"missing mandatory domain keys: {missing}")
        domain = Domain2D(values["domain.Lx"], values["domain.Ly"],
                          values["domain.nx"], values["domain.ny"])
        length = domain.length_x
    else:
        raise ConfigError("missing mandatory section [domain] (L and n)")

    omega = values["model.omega"]
    exponents = Exponents(p=values["model.p"], q=values["model.q"],
                          s=values["model.s"], r=values["model.r"])
    variant = values["model.incidence"]
    if variant == "power":
        incidence = Incidence.power(q=values["model.q"], p=values["model.p"])
    elif variant == "binomial":
        incidence = Incidence.binomial(k=values["model.k"])
    else:
        incidence = Incidence(variant, q=values["model.q"], p=values["model.p"],
                              ell=values["model.ell"])

    model = ModelSpec(
        exponents=exponents,
        beta=_build_coefficient(values, "beta", length, omega),
        gamma=_build_coefficient(values, "gamma", length, omega),
        mu=_build_coefficient(values, "mu", length, omega),
        d_S=values["model.dS"],
        d_I=values["model.dI"],
        incidence=incidence,
    )

    t_end = values["solver.t_end"]
    if t_end <= 0:
        raise ConfigError("solver.t_end must be positive")
    cadence = values["solver.cadence"]
    if cadence is None:
        cadence = t_end / 400.0

    snapshot_times = list(values["solver.snapshots"])
    n_periodic = values["solver.periodic_snapshots"]
    if n_periodic:
        if omega is None:
            raise ConfigError("periodic_snapshots requires model.omega")
        for k in range(n_periodic + 1):
            ts = t_end - k * omega
            if ts < -1e-9:
                break
            snapshot_times.append(max(ts, 0.0))
    snapshot_times = tuple(sorted(set(snapshot_times)))

    settings = SolverSettings(
        dt_init=values["solver.dt_init"],
        dt_min=values["solver.dt_min"],
        dt_max=values["solver.dt_max"],
        max_steps=values["solver.max_steps"],
    )
    detect = Tolerances(
        extinct=values["detect.tol_extinct"],
        flat=values["detect.tol_flat"],
        persist=values["detect.tol_persist"],
        periodic=values["detect.tol_periodic"],
        window_fraction=values["detect.window"],
        min_window=values["detect.min_window"],
    )

    resolved = []
    for section, keys in SCHEMA.items():
        for key in keys:
            full = f"{section}.{key}"
            if values[full] is None and full not in provided:
                continue
            raw = pairs[full][0] if full in pairs else SCHEMA[section][key][1]
            resolved.append((full, str(raw)))

    return ScenarioConfig(
        name=name,
        preset=preset,
        model=model,
        domain=domain,
        initial_S=values["initial.S"],
        initial_I=values["initial.I"],
        t_end=t_end,
        cadence=cadence,
        snapshot_times=snapshot_times,
        solver=settings,
        detect=detect,
        omega=omega,
        allow_degenerate_initial=values["solver.allow_degenerate_initial"],
        resolved=tuple(resolved),
    )


def parse_config(text: str, name: str = "<config>") -> ScenarioConfig:
    """Parse config text into a fully resolved scenario.

    A ``preset = name`` line pulls the catalog entry as the base layer;
    keys in the file override the preset's.
    """
    preset, pairs = parse_pairs(text, name)
    if preset is not None:
        from .presets import preset_pairs
        base = {key: (val, None) for key, val in preset_pairs(preset).items()}
        base.update(pairs)
        pairs = base
    return resolve_config(pairs, name=name, preset=preset)


def load_config(path) -> ScenarioConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read(), name=str(path))
