"""Norms, mass accounting, and long-time outcome classification.

Classification is tail-window based: a finite run cannot certify a limit,
so every criterion is evaluated on the final stretch of recorded samples
and is falsifiable by running longer.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DomainError
from .grid import Domain, integrate

ROW_FIELDS = ("t", "mass_S", "mass_I", "sup_S", "sup_I",
              "min_S", "min_I", "L2_S", "L2_I", "flat_S", "flat_I")
ROW_DTYPE = np.dtype([(name, np.float64) for name in ROW_FIELDS])

CSV_HEADER = ",".join(ROW_FIELDS)

# Snapshot pairs one period apart that a periodicity verdict needs.
MIN_PERIOD_PAIRS = 3

# Outcome labels, spelled exactly as they appear in summaries.
DISEASE_FREE = "DiseaseFreeLimit"
EXTINCTION_BOTH = "ExtinctionBoth"
PERSISTENT = "Persistent"
PERIODIC_CANDIDATE = "PeriodicCandidate"
UNDETERMINED = "Undetermined"


def lk_norm(domain: Domain, values: np.ndarray, k: float) -> float:
    """(integral of |f|^k)^(1/k) by midpoint quadrature."""
    if k < 1:
        raise DomainError(f"norm order must be >= 1, got {k}")
    mag = np.abs(np.asarray(values, dtype=float))
    return float(integrate(domain, mag**k) ** (1.0 / k))


def compute_row(domain: Domain, state) -> tuple:
    """One diagnostics record of a ``SystemState``; its cached extrema
    give the sup, min and flatness columns."""
    S, I = state.S, state.I
    lo_S, hi_S, lo_I, hi_I = state.extrema
    return (
        state.t,
        integrate(domain, S),
        integrate(domain, I),
        hi_S,
        hi_I,
        lo_S,
        lo_I,
        lk_norm(domain, S, 2),
        lk_norm(domain, I, 2),
        hi_S - lo_S,
        hi_I - lo_I,
    )


@dataclass(frozen=True)
class Tolerances:
    """Detection thresholds of a scenario's ``[detect]`` section. Their
    defaults, stated in ``config.SCHEMA``, sit an order of magnitude above
    solver error at default resolution."""

    extinct: float
    flat: float
    persist: float
    periodic: float
    window_fraction: float
    min_window: int

    def __post_init__(self):
        if not 0 < self.window_fraction <= 1:
            raise ConfigError("detect.window must lie in (0, 1]", key="detect.window")
        if self.min_window < 1:
            raise ConfigError("detect.min_window must be at least 1",
                              key="detect.min_window")


@dataclass(frozen=True)
class OutcomeReport:
    """Classified long-time behavior plus the evidence used to call it.

    ``tail_sup`` is the largest sup norm of S or I over the tail window,
    whatever its length. ``persistence_floor`` is the measured tail floor,
    an empirical stand-in for a true persistence constant, never a proved
    bound.
    """

    label: str
    tail_sup: float
    s_star: float | None = None
    persistence_floor: float | None = None
    period_residual: float | None = None
    reason: str = ""
    window_start: float = 0.0
    window_end: float = 0.0
    window_samples: int = 0
    tail_stats: dict = field(default_factory=dict)


def periodic_residuals(traj, omega: float) -> list[tuple[float, float]]:
    """Relative sup-norm mismatch of snapshots one period apart.

    Returns (t, residual) for every snapshot pair (t, t + omega) present,
    ordered by t. Such a mismatch going to zero across successive pairs is
    the falsifiable signature of convergence to a time-periodic state.
    """
    if omega <= 0:
        raise ConfigError("period must be positive")
    times = sorted(traj.snapshots)
    out = []
    for t in times:
        match = next((u for u in times if abs(u - (t + omega)) <= 1e-9), None)
        if match is None:
            continue
        a = traj.snapshots[t]
        b = traj.snapshots[match]
        scale = max(float(np.abs(a.S).max()), float(np.abs(a.I).max()), 1e-300)
        diff = max(float(np.abs(b.S - a.S).max()), float(np.abs(b.I - a.I).max()))
        out.append((t, diff / scale))
    return out


def classify_longtime(traj, tol: Tolerances,
                      omega: float | None = None) -> OutcomeReport:
    """Decision tree over tail statistics of a finished trajectory.

    Order of the checks matters and is fixed: disease-free limit, joint
    extinction, persistence, then the periodic upgrade of a persistent
    tail: ``period_residual`` is the largest residual of the snapshot pairs
    one period apart that start at most one period before the tail window,
    if there are ``MIN_PERIOD_PAIRS`` of them, and the upgrade needs it
    below ``tol.periodic``. ``omega <= 0`` raises ``ConfigError``.
    """
    rows = traj.rows  # never empty: a run records its initial state
    t0, t1 = rows["t"][0], rows["t"][-1]
    tail = rows[rows["t"] >= t1 - tol.window_fraction * (t1 - t0) - 1e-12]
    sup_S = float(tail["sup_S"].max())
    sup_I = float(tail["sup_I"].max())
    base = dict(tail_sup=max(sup_S, sup_I), window_samples=len(tail))
    if len(tail) < tol.min_window:
        return OutcomeReport(
            UNDETERMINED,
            reason=f"tail window has {len(tail)} samples, need {tol.min_window}",
            **base)
    base.update(window_start=float(tail["t"][0]), window_end=float(tail["t"][-1]))

    flat_S = float(tail["flat_S"].max())
    min_S = float(tail["min_S"].min())
    min_I = float(tail["min_I"].min())
    stats = {"sup_S": sup_S, "sup_I": sup_I, "flat_S": flat_S,
             "min_S": min_S, "min_I": min_I}
    base["tail_stats"] = stats

    measure = traj.measure
    if sup_I < tol.extinct and flat_S < tol.flat and sup_S > tol.extinct:
        s_star = float(tail["mass_S"].mean()) / measure
        return OutcomeReport(DISEASE_FREE, s_star=s_star, **base)

    if sup_S < tol.extinct and sup_I < tol.extinct:
        return OutcomeReport(EXTINCTION_BOTH, **base)

    if min_S >= tol.persist and min_I >= tol.persist:
        residual = None
        if omega is not None:
            # earlier pairs are transient-dominated; too few give no verdict
            cutoff = t1 - tol.window_fraction * (t1 - t0) - omega - 1e-9
            tail_pairs = [r for t, r in periodic_residuals(traj, omega) if t >= cutoff]
            if len(tail_pairs) >= MIN_PERIOD_PAIRS:
                residual = max(tail_pairs)
        periodic = residual is not None and residual < tol.periodic
        return OutcomeReport(PERIODIC_CANDIDATE if periodic else PERSISTENT,
                             persistence_floor=min(min_S, min_I),
                             period_residual=residual, **base)

    return OutcomeReport(UNDETERMINED, reason="tail matches no criterion", **base)


def format_csv(rows: np.ndarray) -> str:
    """Diagnostics rows (dtype ``ROW_DTYPE``) as locale-independent CSV
    text, each value to 17 significant digits."""
    line = ",".join(["%.17g"] * len(ROW_FIELDS))
    return "\n".join([CSV_HEADER, *(line % row for row in rows.tolist())]) + "\n"


def write_text(path, text: str) -> None:
    """Write ``text`` as UTF-8 to ``<path>.tmp``, then rename it onto
    ``path``: a write that fails leaves any earlier ``path`` whole. Every
    artifact file of a run or sweep is written here."""
    tmp = f"{os.fspath(path)}.tmp"
    with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    os.replace(tmp, path)


def write_csv(path, rows: np.ndarray) -> None:
    write_text(path, format_csv(rows))
