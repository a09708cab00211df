"""Norms, mass accounting, and long-time outcome classification.

Classification is tail-window based: a finite run cannot certify a limit,
so every criterion is evaluated on the final stretch of recorded samples
and is falsifiable by running longer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DomainError
from .grid import Domain, integrate

ROW_FIELDS = ("t", "mass_S", "mass_I", "sup_S", "sup_I",
              "min_S", "min_I", "L2_S", "L2_I", "flat_S", "flat_I")
ROW_DTYPE = np.dtype([(name, np.float64) for name in ROW_FIELDS])

CSV_HEADER = "t,mass_S,mass_I,sup_S,sup_I,min_S,min_I,L2_S,L2_I,flat_S,flat_I"

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


def compute_row(domain: Domain, S: np.ndarray, I: np.ndarray, t: float) -> tuple:
    """One diagnostics record for the state (S, I) at time t."""
    hi_S, lo_S = float(S.max()), float(S.min())
    hi_I, lo_I = float(I.max()), float(I.min())
    return (
        t,
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
    """Detection thresholds, an order of magnitude above solver error
    at default resolution."""

    extinct: float = 1e-4
    flat: float = 1e-4
    persist: float = 1e-3
    periodic: float = 1e-4
    window_fraction: float = 0.2
    min_window: int = 5


@dataclass(frozen=True)
class OutcomeReport:
    """Classified long-time behavior plus the evidence used to call it.

    ``persistence_floor`` is the measured tail floor, an empirical stand-in
    for a true persistence constant, never a proved bound.
    """

    label: str
    s_star: float | None = None
    persistence_floor: float | None = None
    period_residual: float | None = None
    reason: str = ""
    window_start: float = 0.0
    window_end: float = 0.0
    window_samples: int = 0
    tolerances: Tolerances = field(default_factory=Tolerances)
    tail_stats: dict = field(default_factory=dict)

    def summary_lines(self) -> list[str]:
        lines = [f"outcome={self.label}"]
        if self.s_star is not None:
            lines.append(f"S_star={self.s_star:.10g}")
        if self.persistence_floor is not None:
            lines.append(f"persistence_floor={self.persistence_floor:.10g}")
        if self.period_residual is not None:
            lines.append(f"period_residual={self.period_residual:.6g}")
        if self.reason:
            lines.append(f"reason={self.reason}")
        lines.append(
            f"evidence_window=[{self.window_start:.6g},{self.window_end:.6g}]"
            f" samples={self.window_samples}")
        return lines


def _tail_rows(traj, fraction: float) -> np.ndarray:
    rows = traj.rows
    if len(rows) == 0:
        return rows
    t0, t1 = rows["t"][0], rows["t"][-1]
    cutoff = t1 - fraction * (t1 - t0)
    return rows[rows["t"] >= cutoff - 1e-12]


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


def detect_periodic(traj, omega: float, tol: Tolerances | None = None,
                    min_pairs: int = 3) -> float:
    """Largest one-period mismatch over snapshot pairs in the tail window.

    Pairs whose span starts before the tail (as set by the tolerance's
    window fraction) are transient-dominated and excluded; fewer than
    ``min_pairs`` remaining pairs is a configuration error.
    """
    tol = tol or Tolerances()
    pairs = periodic_residuals(traj, omega)
    rows = traj.rows
    if len(rows):
        t0, t1 = float(rows["t"][0]), float(rows["t"][-1])
        cutoff = t1 - tol.window_fraction * (t1 - t0) - omega
        pairs = [(t, r) for t, r in pairs if t >= cutoff - 1e-9]
    if len(pairs) < min_pairs:
        raise ConfigError(
            f"periodicity check needs >= {min_pairs} snapshot pairs one "
            f"period apart in the tail window, found {len(pairs)}")
    return max(r for _, r in pairs)


def classify_longtime(traj, tol: Tolerances | None = None,
                      omega: float | None = None) -> OutcomeReport:
    """Decision tree over tail statistics of a finished trajectory.

    Order of the checks matters and is fixed: disease-free limit, joint
    extinction, persistence, then the periodic upgrade of a persistent
    tail when snapshots one period apart are available.
    """
    tol = tol or Tolerances()
    tail = _tail_rows(traj, tol.window_fraction)
    base = dict(window_samples=len(tail), tolerances=tol)
    if len(tail) < tol.min_window:
        return OutcomeReport(
            UNDETERMINED,
            reason=f"tail window has {len(tail)} samples, need {tol.min_window}",
            **base)
    base.update(window_start=float(tail["t"][0]), window_end=float(tail["t"][-1]))

    sup_S = float(tail["sup_S"].max())
    sup_I = float(tail["sup_I"].max())
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
        floor = min(min_S, min_I)
        residual = None
        if omega is not None and len(traj.snapshots) >= 4:
            try:
                residual = detect_periodic(traj, omega, tol)
            except ConfigError:
                residual = None
        if residual is not None and residual < tol.periodic:
            return OutcomeReport(PERIODIC_CANDIDATE, persistence_floor=floor,
                                 period_residual=residual, **base)
        return OutcomeReport(PERSISTENT, persistence_floor=floor,
                             period_residual=residual, **base)

    return OutcomeReport(UNDETERMINED, reason="tail matches no criterion", **base)


def format_csv(rows: np.ndarray) -> str:
    """Diagnostics rows as locale-independent CSV text."""
    lines = [CSV_HEADER]
    for row in rows:
        lines.append(",".join(f"{row[name]:.17g}" for name in ROW_FIELDS))
    return "\n".join(lines) + "\n"


def write_csv(path, rows: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(format_csv(rows))
