"""Well-mixed (zero-diffusion) companions of the spatial model.

Two systems live here, with closed-form thresholds and an error-controlled
Runge-Kutta oracle (Dormand-Prince 5(4)) used to verify every
classification empirically:

  SI with mortality:   S' = -beta*S^q*I^p,  I' = beta*S^q*I^p - mu*I
  SIS (no mortality):  S' = -beta*S^q*I^p + gamma*I,  I' = -S'

The SIS pair conserves S + I = N, so its dynamics reduce to the scalar
flow S' = -beta*S^q*(N-S)^p + gamma*(N-S) on (0, N).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
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

ROOT_MAX_ITER = 200

SETTLE_MOVEMENT_TOL = 1e-6
SETTLE_CHECK_WINDOW = 5.0


def _require_positive(**values: float) -> None:
    """Refuse any value that is not positive and finite (NaN included)."""
    for name, value in values.items():
        if not 0 < value < math.inf:
            raise DomainError(f"{name} must be positive and finite")


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
        _require_positive(**vars(self))


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
        _require_positive(**vars(self))
        if not self.S0 < self.N:
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
    _require_positive(p=p, q=q, N=N)
    return (q**q * (p - 1.0) ** (p - 1.0)
            / (p - 1.0 + q) ** (p - 1.0 + q) * N ** (p - 1.0 + q))


def _gain(params: SisOdeParams, S: float) -> float:
    """g(S) = beta * S^q * (N-S)^(p-1); interior roots of g = gamma."""
    return params.beta * S**params.q * (params.N - S) ** (params.p - 1.0)


def _bisect_gain(params: SisOdeParams, target: float, lo: float,
                 hi: float) -> float:
    """Bracketed bisection of g(S) = target on a monotone piece of g, to
    float resolution: it stops once the midpoint is an end of the bracket."""
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
        if f_mid == 0.0 or mid in (lo, hi):
            return mid
        if (f_mid < 0) == (f_lo < 0):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _rising_root(params: SisOdeParams, hi: float) -> float:
    """Root of g(S) = gamma where g rises on (0, hi], with g(hi) > gamma.

    It is bisected on [1e-13*N, hi]. Below 1e-13*N, (N-S)^(p-1) is
    N^(p-1) to 1e-13 relative, so the root has the closed form of p = 1;
    a root far below would take more than ``ROOT_MAX_ITER`` halvings.
    """
    tiny = 1e-13 * params.N
    if _gain(params, tiny) <= params.gamma:
        return _bisect_gain(params, params.gamma, tiny, hi)
    scale = params.beta * params.N ** (params.p - 1.0)
    return (params.gamma / scale) ** (1.0 / params.q)


def sis_steady_states(params: SisOdeParams) -> SteadyStateSet:
    """All steady states of the reduced SIS flow on [0, N].

    Interior states solve g(S) = beta*S^q*(N-S)^(p-1) = gamma. The gain
    rises strictly for p <= 1 and is single-humped with peak beta*N* for
    p > 1, so each monotone piece is searched by bisection. The flow is
    S' = (N-S)*(gamma - g(S)): positive near S = 0, where g vanishes, and
    changing sign exactly at each simple root. So below the fold the lower
    root attracts and the upper one repels, the tangent root at the fold
    attracts from below only, and a p <= 1 root attracts from both sides.
    """
    N, gamma = params.N, params.gamma
    tiny = 1e-13 * N
    stable = ("attracting-from-below", "attracting-from-above")
    found: list[tuple[float, tuple[str, ...]]] = []

    if params.p > 1:
        threshold = params.beta * n_star(params.p, params.q, N)
        s_peak = params.q * N / (params.p - 1.0 + params.q)
        if gamma < threshold:
            # g(N) = 0 < gamma, so [s_peak, N] straddles the upper root; a
            # root past the last float below N has none and is refused.
            if _gain(params, math.nextafter(N, 0.0)) > gamma:
                raise NumericsError("upper steady state within a float "
                                    "spacing of N", gamma=gamma)
            found.append((_rising_root(params, s_peak), stable))
            found.append((_bisect_gain(params, gamma, s_peak, N), ("repelling",)))
        elif gamma == threshold:
            found.append((s_peak, ("semi-stable", "attracting-from-below")))
    elif params.p == 1:
        if gamma < params.beta * N**params.q:
            found.append(((gamma / params.beta) ** (1.0 / params.q), stable))
    else:
        # Gain blows up toward S = N, so a root always exists; one closer
        # to N than the float spacing stalls the halving and is refused.
        hi = N - tiny
        while _gain(params, hi) <= gamma:
            hi, last = 0.5 * (hi + N), hi
            if not last < hi < N:
                raise NumericsError("gain never exceeded gamma", gamma=gamma)
        found.append((_rising_root(params, hi), stable))

    interior = tuple(SteadyState(S=s, I=N - s, stability=tags) for s, tags in found)
    # (N, 0) attracts from below exactly when g < gamma just inside it: g
    # vanishes at N for p > 1, and for p <= 1 g stays below gamma on (0, N)
    # when no root exists.
    tags = ("boundary", "attracting-from-below")
    if params.p <= 1 and interior:
        tags = ("boundary",)
    boundary = SteadyState(S=N, I=0.0, stability=tags)
    return SteadyStateSet(interior=interior, boundary=boundary)


def sis_classify(params: SisOdeParams) -> SisOutcome:
    """Predicted limit point of the SIS flow from ``params.S0``.

    The number of interior steady states decides. Two (p > 1, below the
    fold): starts below the upper one fall to the lower one, starts above
    it go to the disease-free boundary. One attracts every start (p <= 1),
    or at the p > 1 fold every start at or below it. None: the boundary.
    """
    S0, N = params.S0, params.N
    interior = sis_steady_states(params).interior
    if len(interior) == 2:
        low, high = interior
        if S0 < high.S:
            return SisOutcome(low.S, low.I, case="bistable-lower-basin")
        if S0 > high.S:
            return SisOutcome(N, 0.0, case="bistable-upper-basin")
        return SisOutcome(high.S, high.I, case="bistable-separatrix")
    if not interior:
        return SisOutcome(N, 0.0, case="recovery-dominates" if params.p > 1
                          else "disease-free")
    (state,) = interior
    if params.p > 1:
        if S0 <= state.S:
            return SisOutcome(state.S, state.I, case="tangent-state")
        return SisOutcome(N, 0.0, case="tangent-above")
    return SisOutcome(state.S, state.I,
                      case="endemic" if params.p == 1 else "endemic-sublinear")


# --------------------------------------------------------------------------
# Error-controlled oracle
# --------------------------------------------------------------------------

SYSTEMS = {"si": SiOdeParams, "sis": SisOdeParams}

# Dormand & Prince (1980) 5(4) pair, advancing the 5th-order solution. Row
# i of _DP_A gives stage i + 1 from stages 0..i; the last row is the step
# itself, so its stage at the new state is the next step's first (FSAL).
_DP_A = (
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
# 5th- minus 4th-order weights over all seven stages: the local error.
_DP_E = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525,
         -1 / 40)

# A step is accepted when its error estimate is at most
# STEP_TOL * (1 + max |y|) of its row, before and after the step, in each
# component.
STEP_TOL = 1e-10
STEP_SAFETY = 0.9
STEP_GROW_MAX = 5.0
STEP_SHRINK_MIN = 0.2
# In the SI system an error e in S moves the time at which S reaches zero
# by about e / |S'|, and |S'| vanishes with S when q < 1; so a step's S
# error is also held to CROSSING_TIME_TOL * |S'| at its start. A step
# that takes S from positive to negative is accepted only when it is no
# longer than CROSSING_STEP, so the clamp time is at most that late.
CROSSING_TIME_TOL = 1e-5
CROSSING_STEP = 0.01


def _combo(coefs, ks):
    """sum(c * k) over the nonzero coefficients, in stage order."""
    terms = [c * k for c, k in zip(coefs, ks) if c]
    out = terms[0]
    for term in terms[1:]:
        out = out + term
    return out


def _row_error(what: str, rows, t, h, **payload) -> NumericsError:
    """``what`` in the first of ``rows``, named with that row's t and h."""
    row = int(np.flatnonzero(rows)[0])
    t_row, h_row = float(t[row]), float(h[row])
    return NumericsError(f"{what} in row {row} at t={t_row!r}, h={h_row!r}",
                         row=row, t=t_row, h=h_row, **payload)


class _Batch:
    """An oracle run over the rows of an (m, 2) state, one row per point.

    Each row has its own time, next trial step (``dt`` at the start),
    row sum, first S-clamp time and accepted/rejected step counts; each
    ``attempt`` steps a row toward its own stop. So a row gets the same
    bits alone as inside any batch, and waits for no other.
    """

    def __init__(self, points, dt: float):
        kinds = {type(point) for point in points}
        if len(kinds) != 1 or not kinds <= set(SYSTEMS.values()):
            raise DomainError("a batch needs points of one system, got "
                              f"{sorted(kind.__name__ for kind in kinds)}")
        _require_positive(dt=dt)
        self.si = isinstance(points[0], SiOdeParams)
        self.params = SimpleNamespace(**{
            f.name: np.array([getattr(pt, f.name) for pt in points], dtype=float)
            for f in fields(points[0])})
        self.y = np.array([[pt.S0, pt.I0] for pt in points], dtype=float)
        m = len(self.y)
        self.total = self.y.sum(axis=1)
        self.t = np.zeros(m)
        self.h = np.full(m, float(dt))
        self.clamp_time = np.full(m, np.nan)
        self.accepted = np.zeros(m, dtype=np.int64)
        self.rejected = np.zeros(m, dtype=np.int64)
        self.k1 = self._rhs(self.y)

    def _rhs(self, y: np.ndarray) -> np.ndarray:
        """Stage-safe right-hand side; negative excursions inside a step's
        stages are evaluated at the clipped state."""
        params = self.params
        clipped = np.maximum(y, 0.0)
        S, I = clipped[:, 0], clipped[:, 1]
        incidence = params.beta * S**params.q * I**params.p
        removal = (params.mu if self.si else params.gamma) * I
        out = np.empty_like(y)
        out[:, 0] = -incidence if self.si else removal - incidence
        out[:, 1] = incidence - removal
        return out

    def attempt(self, stop: np.ndarray, moving: np.ndarray) -> np.ndarray:
        """One step attempt in each moving row toward its own ``stop``,
        landing on it when the step reaches it; returns the rows that landed.

        Each row's step size follows its own error estimate. In the SI
        system a negative S is clamped at zero (I' >= -mu*I keeps I
        positive; its clamp is only a guard), and each row's first clamp
        time is recorded. A trial state must be finite and a step must
        move its row's t, or the error names the row.
        """
        si = self.si
        y, t, h, k1 = self.y, self.t, self.h, self.k1
        room = stop - t
        lands = moving & (h >= room)
        step = np.where(lands, room, np.where(moving, h, 0.0))
        stuck = moving & (t + step == t)
        if stuck.any():
            raise _row_error("step size underflow", stuck, t, step)
        hs = step[:, None]
        ks = [k1]
        for coefs in _DP_A[:-1]:
            ks.append(self._rhs(y + hs * _combo(coefs, ks)))
        y_new = y + hs * _combo(_DP_A[-1], ks)
        finite = np.isfinite(y_new)
        if not finite.all():
            raise _row_error("non-finite ODE state", ~finite.all(axis=1), t, step,
                             state=y_new)
        ks.append(self._rhs(y_new))
        local = np.abs(hs * _combo(_DP_E, ks))
        size = np.maximum(np.abs(y), np.abs(y_new))
        err = np.maximum(local[:, 0], local[:, 1]) / (
            STEP_TOL * (1.0 + np.maximum(size[:, 0], size[:, 1])))
        if si:
            err = np.maximum(err, local[:, 0] / np.maximum(
                CROSSING_TIME_TOL * np.abs(k1[:, 0]), 1e-200))
            crossed = (y[:, 0] > 0.0) & (y_new[:, 0] < 0.0)
            err[crossed & (step > CROSSING_STEP)] = np.inf
        ok = moving & (err <= 1.0)
        # a zero error grows by the cap; nan (0/0) shrinks like inf
        grow = STEP_SAFETY * np.maximum(err, 1e-10) ** -0.2
        proposed = step * np.fmin(np.fmax(grow, STEP_SHRINK_MIN), STEP_GROW_MAX)
        # a landing step may be short; it does not shrink the next one
        self.h = np.where(moving, np.where(lands & ok, np.maximum(h, proposed),
                                           proposed), h)
        t_new = np.where(lands, stop, t + step)
        if si:
            fresh = ok & (y_new[:, 0] < 0.0) & np.isnan(self.clamp_time)
            self.clamp_time[fresh] = t_new[fresh]
            y_new = np.maximum(y_new, 0.0)
        self.y = np.where(ok[:, None], y_new, y)
        # _rhs clips, so the last stage is also the clamped state's slope
        self.k1 = np.where(ok[:, None], ks[-1], k1)
        self.t = np.where(ok, t_new, t)
        self.accepted += ok
        self.rejected += moving & ~ok
        return lands & ok


@dataclass
class TerminalReport:
    """Converged end state of a batch of parameter points."""

    y: np.ndarray               # (m, 2) terminal states
    t_reached: np.ndarray       # (m,)
    converged: np.ndarray       # (m,) bool: movement criterion met
    clamp_time: np.ndarray      # (m,) first S-clamp time, nan if none
    steps_accepted: np.ndarray  # (m,) int
    steps_rejected: np.ndarray  # (m,) int


def settle_batch(points: list[SiOdeParams] | list[SisOdeParams],
                 dt: float = 0.01, t_max: float = 800.0) -> TerminalReport:
    """Integrate many points of one system at once until each stops moving;
    the oracle behind every classification.

    Every point starts from its (S0, I0) with the trial step ``dt``; it
    and ``t_max`` must be positive and finite. Each point runs through its
    own checkpoints, ``min(t_max, SETTLE_CHECK_WINDOW)`` and then
    ``max(t + SETTLE_CHECK_WINDOW, 1.1 t)`` capped at ``t_max``, each
    checked as it lands: it is converged and frozen once its state moved
    less than ``SETTLE_MOVEMENT_TOL`` (sup norm) since its last one, and
    an SIS point's sum must be within 1e-10 of its start. No point waits
    for another: a batch makes as many step attempts as its busiest point.
    """
    _require_positive(t_max=t_max)
    batch = _Batch(points, dt)
    m = len(batch.y)
    active, converged = np.ones(m, dtype=bool), np.zeros(m, dtype=bool)
    stop, anchor = np.full(m, min(t_max, SETTLE_CHECK_WINDOW)), batch.y
    while active.any():
        landed = batch.attempt(stop, active)
        if not landed.any():
            continue
        y = batch.y
        converged |= landed & (np.abs(y - anchor).max(axis=1) < SETTLE_MOVEMENT_TOL)
        active &= ~converged & ~(landed & (stop == t_max))
        if not batch.si:
            drifted = landed & (np.abs(y.sum(axis=1) - batch.total)
                                > 1e-10 * batch.total)
            if drifted.any():
                raise _row_error("conserved sum drifted", drifted, batch.t, batch.h)
        anchor = np.where(landed[:, None], y, anchor)
        # Each checkpoint spacing is the trailing tenth of elapsed time,
        # so the movement test always looks at the last decade of the run.
        stop = np.where(landed, np.minimum(
            t_max, np.maximum(stop + SETTLE_CHECK_WINDOW, 1.1 * stop)), stop)
    return TerminalReport(y=batch.y, t_reached=batch.t, converged=converged,
                          clamp_time=batch.clamp_time, steps_accepted=batch.accepted,
                          steps_rejected=batch.rejected)
