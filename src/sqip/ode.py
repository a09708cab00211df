"""Well-mixed (zero-diffusion) companions of the spatial model.

Two systems live here, with closed-form thresholds and a fixed-step RK4
oracle used to verify every classification empirically:

  SI with mortality:   S' = -beta*S^q*I^p,  I' = beta*S^q*I^p - mu*I
  SIS (no mortality):  S' = -beta*S^q*I^p + gamma*I,  I' = -S'

The SIS pair conserves S + I = N, so its dynamics reduce to the scalar
flow S' = -beta*S^q*(N-S)^p + gamma*(N-S) on (0, N).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .errors import DomainError, NumericsError

# Outcome tokens for the SI system.
BOTH_TO_ZERO = "BothToZero"
S_HITS_ZERO = "SHitsZeroFiniteTime"
S_POSITIVE_LIMIT = "SToPositiveLimit"
UNCLASSIFIED = "Unclassified"

# Relative slack used to recognize the knife-edge equality case.
EQUALITY_RTOL = 1e-12

ROOT_TOL = 1e-14
ROOT_MAX_ITER = 200

SETTLE_MOVEMENT_TOL = 1e-6
SETTLE_CHECK_WINDOW = 5.0


@dataclass(frozen=True)
class SiOdeParams:
    """Parameters and initial data of the SI system."""

    beta: float
    mu: float
    p: float
    q: float
    S0: float
    I0: float

    def __post_init__(self):
        for name in ("beta", "mu", "p", "q", "S0", "I0"):
            if getattr(self, name) <= 0:
                raise DomainError(f"{name} must be strictly positive")


@dataclass(frozen=True)
class SisOdeParams:
    """Parameters of the SIS system; the infected share is N - S0."""

    beta: float
    gamma: float
    p: float
    q: float
    N: float
    S0: float

    def __post_init__(self):
        for name in ("beta", "gamma", "p", "q", "N"):
            if getattr(self, name) <= 0:
                raise DomainError(f"{name} must be strictly positive")
        if not (0 < self.S0 < self.N):
            raise DomainError(f"need 0 < S0 < N, got S0={self.S0}, N={self.N}")

    @property
    def I0(self) -> float:
        return self.N - self.S0


@dataclass(frozen=True)
class SiOutcome:
    kind: str
    rule: str
    t_upper: float | None = None


@dataclass(frozen=True)
class SteadyState:
    S: float
    I: float
    stability: tuple[str, ...]


@dataclass(frozen=True)
class SteadyStateSet:
    """Interior steady states (sorted by S) plus the disease-free boundary."""

    interior: tuple[SteadyState, ...]
    boundary: SteadyState
    bistability_threshold: float | None  # beta * N* for p > 1, else None

    @property
    def n_interior(self) -> int:
        return len(self.interior)

    @property
    def all_states(self) -> tuple[SteadyState, ...]:
        return self.interior + (self.boundary,)


@dataclass(frozen=True)
class SisOutcome:
    limit_S: float
    limit_I: float
    case: str


def _si_balance(params: SiOdeParams) -> tuple[float, float]:
    """Left and right sides of the susceptible-depletion balance.

    lhs = mu*p*S0^(1-q); rhs = (1-q)*beta*I0^p. Their order decides
    whether S survives the initial infected load when q < 1.
    """
    lhs = params.mu * params.p * params.S0 ** (1.0 - params.q)
    rhs = (1.0 - params.q) * params.beta * params.I0**params.p
    return lhs, rhs


def extinction_time_bound(params: SiOdeParams) -> float:
    """Closed-form upper bound on the time at which S reaches zero.

    Valid only for q in (0, 1) with mu*p*S0^(1-q) strictly below
    (1-q)*beta*I0^p; the bound is the root of the comparison solution
    S0^(1-q) + (1-q)*beta*I0^p/(p*mu) * (e^(-p*mu*t) - 1) = 0.
    """
    if not (0 < params.q < 1):
        raise DomainError(f"bound needs q in (0,1), got q={params.q}")
    lhs, rhs = _si_balance(params)
    if not lhs < rhs:
        raise DomainError(
            f"bound needs mu*p*S0^(1-q) < (1-q)*beta*I0^p strictly; "
            f"got {lhs:.6g} >= {rhs:.6g}")
    return -math.log(1.0 - lhs / rhs) / (params.p * params.mu)


def si_classify(params: SiOdeParams) -> SiOutcome:
    """Predicted long-time behavior of the SI system.

    For q in (0, 1) the depletion balance decides between joint decay to
    zero, finite-time loss of S (with the closed-form upper bound on the
    hitting time), or a positive susceptible limit; outside that range the
    sign of p - 1 decides. Parameter corners not covered by any of those
    rules return Unclassified rather than a guess.
    """
    p, q = params.p, params.q
    if 0 < q < 1:
        lhs, rhs = _si_balance(params)
        if math.isclose(lhs, rhs, rel_tol=EQUALITY_RTOL, abs_tol=0.0):
            return SiOutcome(BOTH_TO_ZERO, rule="depletion-balance-equality")
        if lhs < rhs:
            return SiOutcome(S_HITS_ZERO, rule="depletion-balance-strict",
                             t_upper=extinction_time_bound(params))
        if p >= 1:
            margin = params.p * params.S0 ** (1.0 - q) * (
                params.mu - params.beta * params.S0**q * params.I0 ** (p - 1.0))
            if margin > rhs:
                return SiOutcome(S_POSITIVE_LIMIT, rule="decay-dominates-incidence")
            return SiOutcome(UNCLASSIFIED, rule="no-rule-applies")
        return SiOutcome(BOTH_TO_ZERO, rule="sublinear-p")
    if p < 1:
        return SiOutcome(BOTH_TO_ZERO, rule="sublinear-p")
    return SiOutcome(S_POSITIVE_LIMIT, rule="superlinear-p-q")


def n_star(p: float, q: float, N: float) -> float:
    """Bistability scale q^q (p-1)^(p-1) / (p-1+q)^(p-1+q) * N^(p-1+q).

    This is the maximum of S^q (N-S)^(p-1) over (0, N) for p > 1; the
    recovery rate crosses beta times this value exactly where the interior
    steady-state pair of the SIS flow collides and disappears.
    """
    if p <= 1:
        raise DomainError(f"threshold scale needs p > 1, got p={p}")
    if q <= 0 or N <= 0:
        raise DomainError("need q > 0 and N > 0")
    return (q**q * (p - 1.0) ** (p - 1.0)
            / (p - 1.0 + q) ** (p - 1.0 + q) * N ** (p - 1.0 + q))


def _reduced_flow(params: SisOdeParams, S) -> np.ndarray:
    """Scalar vector field of the conserved-sum reduction."""
    S = np.asarray(S, dtype=float)
    Sc = np.clip(S, 0.0, params.N)
    I = params.N - Sc
    return -params.beta * Sc**params.q * I**params.p + params.gamma * I


def _gain(params: SisOdeParams, S: float) -> float:
    """g(S) = beta * S^q * (N-S)^(p-1); interior roots of g = gamma."""
    return params.beta * S**params.q * (params.N - S) ** (params.p - 1.0)


def _bisect_gain(params: SisOdeParams, target: float, lo: float, hi: float,
                 increasing: bool) -> float:
    """Bracketed bisection of g(S) = target on a monotone piece of g."""
    f_lo = _gain(params, lo) - target
    f_hi = _gain(params, hi) - target
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if (f_lo < 0) == (f_hi < 0):
        raise NumericsError("steady-state bracket does not straddle the target",
                            bracket=(lo, hi), values=(f_lo, f_hi))
    for _ in range(ROOT_MAX_ITER):
        mid = 0.5 * (lo + hi)
        f_mid = _gain(params, mid) - target
        if f_mid == 0.0 or hi - lo <= ROOT_TOL * params.N:
            return mid
        below = f_mid < 0
        if below == increasing:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _stability_tags(params: SisOdeParams, S: float) -> tuple[str, ...]:
    """Flow-direction tags on either side of an interior steady state.

    Derived from the sign of the reduced vector field rather than a
    linearization, so degenerate (tangency) states are handled without
    special cases.
    """
    delta = 1e-7 * params.N
    below = float(_reduced_flow(params, max(S - delta, 1e-12)))
    above = float(_reduced_flow(params, min(S + delta, params.N - 1e-12)))
    attracts_below = below > 0
    attracts_above = above < 0
    if attracts_below and attracts_above:
        return ("attracting-from-below", "attracting-from-above")
    if attracts_below != attracts_above:
        side = "attracting-from-below" if attracts_below else "attracting-from-above"
        return ("semi-stable", side)
    return ("repelling",)


def sis_steady_states(params: SisOdeParams) -> SteadyStateSet:
    """All steady states of the reduced SIS flow on [0, N].

    Interior states solve beta*S^q*(N-S)^(p-1) = gamma. The gain profile
    is strictly increasing for p <= 1 and single-humped with peak
    beta*N* for p > 1, so each monotone piece is searched by bisection.
    """
    N, gamma = params.N, params.gamma
    tiny = 1e-13 * N
    roots: list[float] = []
    threshold = None

    if params.p > 1:
        threshold = params.beta * n_star(params.p, params.q, N)
        s_peak = params.q * N / (params.p - 1.0 + params.q)
        if gamma < threshold:
            roots.append(_bisect_gain(params, gamma, tiny, s_peak, increasing=True))
            roots.append(_bisect_gain(params, gamma, s_peak, N - tiny,
                                      increasing=False))
        elif gamma == threshold:
            roots.append(s_peak)
    elif params.p == 1:
        if gamma < params.beta * N**params.q:
            roots.append((gamma / params.beta) ** (1.0 / params.q))
    else:
        # Gain blows up toward S = N, so a root always exists.
        hi = N - tiny
        while _gain(params, hi) <= gamma:
            hi = 0.5 * (hi + N)
            if N - hi < 1e-300:
                raise NumericsError("gain never exceeded gamma", gamma=gamma)
        roots.append(_bisect_gain(params, gamma, tiny, hi, increasing=True))

    interior = tuple(
        SteadyState(S=s, I=N - s, stability=_stability_tags(params, s))
        for s in sorted(roots))

    # (N, 0): attracting from below exactly when the flow is positive
    # just inside the boundary.
    near = float(_reduced_flow(params, N - 1e-7 * N))
    tags = ("boundary", "attracting-from-below") if near > 0 else ("boundary",)
    boundary = SteadyState(S=N, I=0.0, stability=tags)
    return SteadyStateSet(interior=interior, boundary=boundary,
                          bistability_threshold=threshold)


def sis_classify(params: SisOdeParams, S0: float | None = None) -> SisOutcome:
    """Predicted limit point of the SIS flow for the given start.

    For p > 1 the outcome is bistable below the threshold recovery rate:
    starts below the upper steady state fall to the lower one, starts
    above it converge to the disease-free boundary. For p = 1 a single
    interior state attracts everything when it exists; for p < 1 it
    always exists and always attracts.
    """
    S0 = params.S0 if S0 is None else float(S0)
    if not (0 < S0 < params.N):
        raise DomainError(f"need 0 < S0 < N, got S0={S0}")
    states = sis_steady_states(params)
    N = params.N

    if params.p > 1:
        threshold = states.bistability_threshold
        if params.gamma < threshold:
            low, high = states.interior
            if S0 < high.S:
                return SisOutcome(low.S, low.I, case="bistable-lower-basin")
            if S0 > high.S:
                return SisOutcome(N, 0.0, case="bistable-upper-basin")
            return SisOutcome(high.S, high.I, case="bistable-separatrix")
        if params.gamma == threshold:
            (saddle,) = states.interior
            if S0 <= saddle.S:
                return SisOutcome(saddle.S, saddle.I, case="tangent-state")
            return SisOutcome(N, 0.0, case="tangent-above")
        return SisOutcome(N, 0.0, case="recovery-dominates")

    if params.p == 1:
        if params.gamma < params.beta * N**params.q:
            (state,) = states.interior
            return SisOutcome(state.S, state.I, case="endemic")
        return SisOutcome(N, 0.0, case="disease-free")

    (state,) = states.interior
    return SisOutcome(state.S, state.I, case="endemic-sublinear")


# --------------------------------------------------------------------------
# RK4 oracle
# --------------------------------------------------------------------------

SYSTEMS = ("si", "sis", "reduced")


@dataclass
class OdeTrajectory:
    t: np.ndarray
    y: np.ndarray  # shape (len(t), n_components)
    clamp_events: tuple[tuple[float, int], ...]
    conservation_drift: float | None = None

    @property
    def terminal(self) -> np.ndarray:
        return self.y[-1]


def _rhs(system: str, params, y: np.ndarray) -> np.ndarray:
    """Stage-safe right-hand side; negative excursions inside Runge-Kutta
    stages are evaluated at the clipped state."""
    if system == "reduced":
        return _reduced_flow(params, y)
    S = np.maximum(y[..., 0], 0.0)
    I = np.maximum(y[..., 1], 0.0)
    incidence = params.beta * S**params.q * I**params.p
    out = np.empty_like(y)
    if system == "si":
        out[..., 0] = -incidence
        out[..., 1] = incidence - params.mu * I
    else:
        out[..., 0] = -incidence + params.gamma * I
        out[..., 1] = incidence - params.gamma * I
    return out


def _rk4_step(system: str, params, y: np.ndarray, dt: float) -> np.ndarray:
    k1 = _rhs(system, params, y)
    k2 = _rhs(system, params, y + 0.5 * dt * k1)
    k3 = _rhs(system, params, y + 0.5 * dt * k2)
    k4 = _rhs(system, params, y + dt * k3)
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def rk4_integrate(system: str, params, t_end: float, dt: float,
                  record_every: int = 1) -> OdeTrajectory:
    """Fixed-step RK4 trajectory, the oracle behind every classification.

    The SI system may genuinely reach S = 0 in finite time when q < 1, so
    S (and defensively I) are clamped at zero there and each first
    clamping is recorded with its time; the clamp time estimates the true
    hitting time. The SIS invariant S + I = N is monitored and a drift
    beyond 1e-10 * N aborts.
    """
    if system not in SYSTEMS:
        raise DomainError(f"unknown system {system!r}")
    if dt <= 0 or t_end <= 0:
        raise DomainError("need positive dt and t_end")

    if system == "reduced":
        y = np.array([params.S0])
    elif system == "si":
        y = np.array([params.S0, params.I0])
    else:
        y = np.array([params.S0, params.I0])

    n_steps = int(round(t_end / dt))
    ts = [0.0]
    ys = [y.copy()]
    clamps: list[tuple[float, int]] = []
    clamped_components: set[int] = set()
    drift = 0.0

    for k in range(1, n_steps + 1):
        t = k * dt
        y = _rk4_step(system, params, y, dt)
        if not np.isfinite(y).all():
            raise NumericsError("non-finite ODE state", t=t, state=y.copy())
        if system == "si":
            for comp in range(2):
                if y[comp] < 0.0:
                    y[comp] = 0.0
                    if comp not in clamped_components:
                        clamped_components.add(comp)
                        clamps.append((t, comp))
        elif system == "sis":
            drift = max(drift, abs(float(y.sum()) - params.N))
            if drift > 1e-10 * params.N:
                raise NumericsError("conserved sum drifted", drift=drift, t=t)
        if k % record_every == 0 or k == n_steps:
            ts.append(t)
            ys.append(y.copy())

    return OdeTrajectory(
        t=np.array(ts), y=np.array(ys),
        clamp_events=tuple(clamps),
        conservation_drift=drift if system == "sis" else None)


@dataclass
class TerminalReport:
    """Converged end state of a batch of parameter points."""

    y: np.ndarray             # (m, 2) terminal states
    t_reached: np.ndarray     # (m,)
    converged: np.ndarray     # (m,) bool: movement criterion met
    clamp_time: np.ndarray    # (m,) first S-clamp time, nan if none


def settle_batch(system: str, params_batch: dict[str, np.ndarray],
                 y0: np.ndarray, dt: float = 0.01, t_max: float = 800.0
                 ) -> TerminalReport:
    """Integrate many points at once until each stops moving.

    A point is converged once its state changes by less than
    ``SETTLE_MOVEMENT_TOL`` (sup norm) over the trailing tenth of its
    elapsed time, checked every ``SETTLE_CHECK_WINDOW`` time units.
    Converged points are frozen while the rest continue, which keeps the
    oracle sweeps cheap.
    """
    if system not in ("si", "sis"):
        raise DomainError("batch settling supports the si and sis systems")

    p = SimpleNamespace(**{name: np.asarray(vals, dtype=float)
                           for name, vals in params_batch.items()})

    y = np.array(y0, dtype=float)
    m = y.shape[0]
    active = np.ones(m, dtype=bool)
    clamp_time = np.full(m, np.nan)
    t_reached = np.zeros(m)
    converged = np.zeros(m, dtype=bool)

    t = 0.0
    anchor = y.copy()
    while t < t_max - 1e-12 and active.any():
        # Each checkpoint spacing is the trailing tenth of elapsed time,
        # so the movement test always looks at the last decade of the run.
        t_next = min(t_max, max(t + SETTLE_CHECK_WINDOW, 1.1 * t))
        nsteps = max(1, int(math.ceil((t_next - t) / dt)))
        for _ in range(nsteps):
            y_new = _rk4_step(system, p, y, dt)
            if system == "si":
                fresh = active & (y_new[:, 0] < 0.0) & np.isnan(clamp_time)
                clamp_time[fresh] = t + dt
                y_new = np.maximum(y_new, 0.0)
            y = np.where(active[:, None], y_new, y)
            t += dt
        t_reached[active] = t
        moved = np.abs(y - anchor).max(axis=1)
        settled = active & (moved < SETTLE_MOVEMENT_TOL)
        converged |= settled
        active &= ~settled
        anchor = y.copy()
    return TerminalReport(y=y, t_reached=t_reached, converged=converged,
                          clamp_time=clamp_time)
