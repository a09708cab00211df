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

import math
import re
from collections.abc import Container, Iterator
from dataclasses import dataclass

import numpy as np

from .diagnostics import Tolerances
from .errors import ConfigError
from .grid import Domain, integrate
from .model import (CoefficientField, Exponents, Incidence, ModelSpec,
                    read_coefficient_table)
from .solver import EVENT_SNAP, SolverSettings

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
            center = self.center + tuple(
                0.5 * length for length in domain.lengths[len(self.center):])
            width = self.width or 0.1 * min(domain.lengths)
            axes = np.meshgrid(*domain.cell_centers(), indexing="ij", sparse=True)
            r2 = sum((x - c) ** 2 for x, c in zip(axes, center))
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


def _coerce(tag: str, raw: str, full: str, line: int | None):
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
        raise ConfigError(f"bad value for {full}: {exc}", line) from None
    raise ConfigError(f"internal schema tag {tag!r}")


def read_lines(text: str, sections: Container[str]
               ) -> Iterator[tuple[str | None, str, str, int]]:
    """(section, key, value, line) of every ``key = value`` line of
    sectioned text; ``section`` is None before the first header, ``#``
    starts a comment and blank lines are skipped.

    Raises:
        ConfigError: with the line number, for a header other than
            ``[name]`` with a name in ``sections``, or a line without
            ``=`` or without a key.
    """
    section = None
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        line = rawline.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            m = _SECTION_RE.match(line)
            if not m or m.group(1) not in sections:
                raise ConfigError(f"unknown section {line}", lineno)
            section = m.group(1)
            continue
        key, eq, value = (part.strip() for part in line.partition("="))
        if not eq or not key:
            raise ConfigError(f"cannot parse line {rawline!r}", lineno)
        yield section, key, value, lineno


def parse_pairs(text: str) -> tuple[dict[str, str], dict[str, int]]:
    """Raw ``section.key`` -> value text map of config text, and the line
    of each key. A key before any section keeps its bare name; only
    ``preset`` is valid there."""
    pairs: dict[str, str] = {}
    lines: dict[str, int] = {}
    for section, key, value, line in read_lines(text, SCHEMA):
        full = f"{section}.{key}" if section else key
        pairs[full], lines[full] = value, line
    return pairs, lines


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

    def __post_init__(self):
        if not self.t_end > 0:
            raise ConfigError("solver.t_end must be positive")
        if not self.cadence > 0:
            raise ConfigError("diagnostics cadence must be positive")
        if self.omega is not None and not 0 < self.omega < math.inf:
            raise ConfigError(
                f"model.omega must be finite and positive, got {self.omega}")
        for ts in self.snapshot_times:
            if ts < 0 or ts > self.t_end + EVENT_SNAP:
                raise ConfigError(f"snapshot time {ts} outside [0, t_end]")

    def initial_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        return self.initial_S.build(self.domain), self.initial_I.build(self.domain)

    def total_mass(self) -> float:
        S0, I0 = self.initial_arrays()
        return integrate(self.domain, S0) + integrate(self.domain, I0)

    def defaults_table(self) -> list[str]:
        """Every resolved key as key=value lines, for self-describing runs."""
        return [f"{key}={val}" for key, val in self.resolved]

    def with_overrides(self, overrides: dict[str, str]) -> "ScenarioConfig":
        return resolve_config({**dict(self.resolved), **overrides},
                              name=self.name, preset=self.preset)


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


def resolve_config(pairs: dict[str, str], name: str = "<config>",
                   preset: str | None = None,
                   lines: dict[str, int] | None = None) -> ScenarioConfig:
    """Validate raw ``section.key`` -> value text pairs, apply defaults,
    and build the scenario; errors name the line that ``lines`` gives.
    Every layering (preset, file, overrides) is one dict merge into this
    function, the only check for unknown keys."""
    lines = lines or {}
    for full in pairs:
        section, _, key = full.partition(".")
        if key not in SCHEMA.get(section, ()):
            raise ConfigError(f"unknown key {full!r}", lines.get(full))
    values: dict[str, object] = {}
    resolved = []
    for section, keys in SCHEMA.items():
        for key, (tag, default) in keys.items():
            full = f"{section}.{key}"
            raw = pairs.get(full, default)
            values[full] = None if raw is None else _coerce(
                tag, raw, full, lines.get(full))
            if values[full] is not None or full in pairs:
                resolved.append((full, raw))

    given = {k for k in SCHEMA["domain"] if values[f"domain.{k}"] is not None}
    if not given:
        raise ConfigError("missing mandatory section [domain] (L and n)")
    shape = ("L", "n") if given & {"L", "n"} else ("Lx", "Ly", "nx", "ny")
    if given - set(shape):
        raise ConfigError("domain must be 1D (L, n) or 2D (Lx, Ly, nx, ny), not both")
    missing = [k for k in shape if k not in given]
    if missing:
        raise ConfigError(f"missing mandatory domain keys: {missing}")
    dims = [values[f"domain.{k}"] for k in shape]
    domain = Domain(tuple(dims[:len(dims) // 2]), tuple(dims[len(dims) // 2:]))
    length = dims[0]  # coefficients vary along x only

    omega = values["model.omega"]
    exponents = Exponents(p=values["model.p"], q=values["model.q"],
                          s=values["model.s"], r=values["model.r"])
    variant = values["model.incidence"]
    for key, readers in (("k", ("binomial",)), ("ell", ("saturated", "media"))):
        full = f"model.{key}"
        if variant not in readers and values[full] != float(SCHEMA["model"][key][1]):
            raise ConfigError(f"{full} is not read by incidence = {variant}",
                              lines.get(full))
    incidence = Incidence(variant, q=values["model.q"],
                          p=values["model.p"], k=values["model.k"],
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
    pairs, lines = parse_pairs(text)
    preset = pairs.pop("preset", None)
    if preset is not None:
        from .presets import preset_pairs
        preset = preset.strip("\"'")
        pairs = {**preset_pairs(preset), **pairs}
    return resolve_config(pairs, name=name, preset=preset, lines=lines)


def load_config(path) -> ScenarioConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read(), name=str(path))
