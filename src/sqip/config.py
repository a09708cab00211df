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
from itertools import zip_longest

import numpy as np

from .diagnostics import Tolerances
from .errors import ConfigError
from .grid import Domain, integrate
from .model import CoefficientField, Incidence, ModelSpec, read_coefficient_table
from .solver import EVENT_SNAP

# Schema: section -> key -> (type tag, default string or None = mandatory).
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
        "incidence": ("str", "power"),
        "k": ("float", "1.0"),
        "ell": ("float", "0.0"),
    },
    "domain": {  # one value per axis: an interval or a rectangle
        "L": ("float-list", None),
        "n": ("int-list", None),
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
# A line up to its comment: a '#' inside quotes is text, a lone quote too.
_UNCOMMENTED_RE = re.compile(r"""(?:[^#'"]|'[^']*'|"[^"]*"|['"])*""")
_CALL_RE = re.compile(r"^([a-z]+)\((.*)\)$")


@dataclass(frozen=True)
class InitialData:
    """Initial field description: constant level, bump, or a file."""

    kind: str  # constant | bump | tabulated
    value: float = 0.0
    center: tuple[float | None, ...] = ()  # None: the axis midpoint
    width: float | None = None  # None: 0.1 * the shortest side
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
            try:
                arr = np.loadtxt(self.path, dtype=float)
            except (OSError, ValueError) as exc:
                raise ConfigError(f"initial data file {self.path}: {exc}") from None
            if arr.size != int(np.prod(domain.shape)):
                raise ConfigError(
                    f"initial data file {self.path} has {arr.size} values, "
                    f"grid needs {int(np.prod(domain.shape))}")
            field = arr.reshape(domain.shape)
        else:
            # Gaussian bump: strictly positive everywhere, so it satisfies
            # the strict-positivity requirements of fractional exponents.
            center = [0.5 * length if c is None else c for c, length in
                      zip_longest(self.center, domain.lengths)]
            width = 0.1 * min(domain.lengths) if self.width is None else self.width
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


def _parse_initial(text: str) -> InitialData:
    text = text.strip()
    try:
        return InitialData("constant", value=float(text))
    except ValueError:
        pass
    m = _CALL_RE.match(text)
    if not m:
        raise ValueError(f"cannot parse initial data {text!r}")
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
            raise ValueError("constant(...) takes exactly one value")
        return InitialData("constant", value=float(args[0]))
    if name == "tabulated":
        if len(args) != 1 or kwargs:
            raise ValueError("tabulated(...) takes exactly one path")
        return InitialData("tabulated", path=args[0])
    if name == "bump":
        if len(args) < 3:
            raise ValueError("bump(...) needs center..., width, amplitude")
        floor = float(kwargs.pop("floor", 0.0))
        if kwargs:
            raise ValueError(f"unknown bump option {sorted(kwargs)}")
        nums = [None if a == "auto" else float(a) for a in args]
        *center, width, amplitude = nums
        if amplitude is None:
            raise ValueError("bump amplitude cannot be auto")
        if width is not None and not 0 < width < math.inf:
            raise ValueError(f"bump width must be positive or auto, got {width}")
        return InitialData("bump", center=tuple(center), width=width,
                           amplitude=amplitude, floor=floor)
    raise ValueError(f"unknown initial data form {name!r}")


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
        if tag == "int-list":
            return tuple(int(tok) for tok in raw.split())
        if tag == "initial":
            return _parse_initial(raw)
    except ValueError as exc:
        raise ConfigError(f"bad value for {full}: {exc}", line, full) from None
    raise ConfigError(f"internal schema tag {tag!r}")


def read_lines(text: str, sections: Container[str]
               ) -> Iterator[tuple[str | None, str, str, int]]:
    """(section, key, value, line) of every ``key = value`` line of
    sectioned text; ``section`` is None before the first header, a ``#``
    outside single or double quotes starts a comment and blank lines are
    skipped.

    Raises:
        ConfigError: with the line number, for a header other than
            ``[name]`` with a name in ``sections``, a line without ``=``
            or without a key, or a key set twice in one section.
    """
    section = None
    seen: dict[tuple[str | None, str], int] = {}
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        line = _UNCOMMENTED_RE.match(rawline).group().strip()
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
        first = seen.setdefault((section, key), lineno)
        if first != lineno:
            raise ConfigError(f"duplicate key {key!r}, first set on line {first}",
                              lineno)
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
    dt_init: float | None  # None: chosen from the grid and the reaction
    dt_min: float
    dt_max: float
    max_steps: int
    detect: Tolerances
    allow_degenerate_initial: bool
    resolved: tuple[tuple[str, str], ...]  # every key, defaults included

    def __post_init__(self):
        if not (0 < self.dt_min <= self.dt_max):
            raise ConfigError("need 0 < dt_min <= dt_max", key="solver.dt_min")
        if self.dt_init is not None and not (self.dt_min <= self.dt_init <= self.dt_max):
            raise ConfigError("dt_init must lie in [dt_min, dt_max]",
                              key="solver.dt_init")
        if self.max_steps < 1:
            raise ConfigError("solver.max_steps must be at least 1",
                              key="solver.max_steps")
        if not self.t_end > 0:
            raise ConfigError("solver.t_end must be positive", key="solver.t_end")
        if not self.cadence > 0:
            raise ConfigError("diagnostics cadence must be positive",
                              key="solver.cadence")
        for ts in self.snapshot_times:
            if ts < 0 or ts > self.t_end + EVENT_SNAP:
                raise ConfigError(f"snapshot time {ts} outside [0, t_end]",
                                  key="solver.snapshots")
        axes = len(self.domain.lengths)
        for key, data in (("initial.S", self.initial_S), ("initial.I", self.initial_I)):
            if len(data.center) > axes:
                raise ConfigError(f"bump has {len(data.center)} centre coordinates "
                                  f"for a {axes}D grid", key=key)

    @property
    def omega(self) -> float | None:
        """The forcing period: ``model.period``."""
        return self.model.period

    def initial_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The S and I fields; a refusal names the config key of its field."""
        fields = []
        for key, data in (("initial.S", self.initial_S), ("initial.I", self.initial_I)):
            try:
                fields.append(data.build(self.domain))
            except ConfigError as exc:
                raise ConfigError(f"{key}: {exc}", key=key) from None
        return tuple(fields)

    def total_mass(self) -> float:
        S0, I0 = self.initial_arrays()
        return integrate(self.domain, S0) + integrate(self.domain, I0)

    def with_overrides(self, overrides: dict[str, str]) -> "ScenarioConfig":
        return resolve_config({**dict(self.resolved), **overrides},
                              name=self.name, preset=self.preset)


def _build_coefficient(values: dict, which: str, length: float,
                       omega: float | None) -> CoefficientField:
    """Coefficient ``which``; a refusal is keyed by the config key at fault.
    A table leaves the amplitudes unread, so a nonzero one is refused."""
    key = f"model.{which}"
    table_path = values[f"{key}_table"]
    for amp in (f"{key}_t_amp", f"{key}_x_amp"):
        if table_path and values[amp]:
            raise ConfigError(f"{amp} is not read beside {key}_table", key=amp)
    try:
        if table_path:
            return read_coefficient_table(table_path, length)
        return CoefficientField.cosine_modulated(
            values[key],
            time_amp=values[f"{key}_t_amp"],
            period=omega,
            space_amp=values[f"{key}_x_amp"],
            length=length,
        )
    except ConfigError as exc:
        suffix = "_table" if table_path else {"time_amp": "_t_amp",
                                              "space_amp": "_x_amp"}.get(exc.key, "")
        raise ConfigError(str(exc), key=key + suffix) from None


def resolve_config(pairs: dict[str, str], name: str = "<config>",
                   preset: str | None = None,
                   lines: dict[str, int] | None = None) -> ScenarioConfig:
    """Validate raw ``section.key`` -> value text pairs, apply defaults,
    and build the scenario; errors name the refused key and the line that
    ``lines`` gives. Every layering (preset, file, overrides) is one dict
    merge into this function, the only check for unknown keys."""
    lines = lines or {}
    for full in pairs:
        section, _, key = full.partition(".")
        if key not in SCHEMA.get(section, ()):
            raise ConfigError(f"unknown key {full!r}", lines.get(full), full)
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

    missing = [full for full in ("domain.L", "domain.n") if values[full] is None]
    if missing:
        raise ConfigError(f"missing mandatory domain keys: {missing}")
    try:
        domain = Domain(values["domain.L"], values["domain.n"])
    except ConfigError as exc:
        # A refused length or cell count is keyed by its own key; a pair
        # that does not fit by domain.L, unless only domain.n has a line.
        key = {"lengths": "domain.L", "cells": "domain.n"}.get(exc.key) or (
            "domain.n" if "domain.L" not in lines and "domain.n" in lines
            else "domain.L")
        raise ConfigError(f"domain.L and domain.n: {exc}",
                          key=key).located(lines) from None
    length = domain.lengths[0]  # coefficients vary along x only

    try:
        omega = values["model.omega"]
        if omega is not None and not 0 < omega < math.inf:
            raise ConfigError(f"model.omega must be finite and positive, "
                              f"got {omega}", key="model.omega")
        model = ModelSpec(
            beta=_build_coefficient(values, "beta", length, omega),
            gamma=_build_coefficient(values, "gamma", length, omega),
            mu=_build_coefficient(values, "mu", length, omega),
            d_S=values["model.dS"],
            d_I=values["model.dI"],
            incidence=Incidence(values["model.incidence"], q=values["model.q"],
                                p=values["model.p"], k=values["model.k"],
                                ell=values["model.ell"]),
            s=values["model.s"], r=values["model.r"],
        )
        if omega not in (None, model.period):
            raise ConfigError(
                f"model.omega = {omega} is not the period of the coefficients "
                f"({model.period or 'none varies in time'})", key="model.omega")

        t_end, cadence = values["solver.t_end"], values["solver.cadence"]
        if cadence is None:
            cadence = t_end / 400.0

        snapshot_times = list(values["solver.snapshots"])
        n_periodic = values["solver.periodic_snapshots"]
        if n_periodic:
            if model.period is None:
                raise ConfigError("solver.periodic_snapshots needs a time-varying "
                                  "coefficient", key="solver.periodic_snapshots")
            for k in range(n_periodic + 1):
                ts = t_end - k * model.period
                if ts < -1e-9:
                    break
                snapshot_times.append(max(ts, 0.0))

        return ScenarioConfig(
            name=name,
            preset=preset,
            model=model,
            domain=domain,
            initial_S=values["initial.S"],
            initial_I=values["initial.I"],
            t_end=t_end,
            cadence=cadence,
            snapshot_times=tuple(sorted(set(snapshot_times))),
            dt_init=values["solver.dt_init"],
            dt_min=values["solver.dt_min"],
            dt_max=values["solver.dt_max"],
            max_steps=values["solver.max_steps"],
            detect=Tolerances(
                extinct=values["detect.tol_extinct"],
                flat=values["detect.tol_flat"],
                persist=values["detect.tol_persist"],
                periodic=values["detect.tol_periodic"],
                window_fraction=values["detect.window"],
                min_window=values["detect.min_window"],
            ),
            allow_degenerate_initial=values["solver.allow_degenerate_initial"],
            resolved=tuple(resolved),
        )
    except ConfigError as exc:
        raise exc.located(lines) from None


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


def read_input(path) -> str:
    """The text of a config or sweep-spec file; one that cannot be read
    is bad input, refused with a ``ConfigError`` naming ``path``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror}") from None


def load_config(path) -> ScenarioConfig:
    return parse_config(read_input(path), name=str(path))
