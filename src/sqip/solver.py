"""IMEX time integration of the two-component reaction-diffusion system.

Each step treats the reaction explicitly and diffusion implicitly
(backward Euler), which removes the diffusive step-size restriction while
keeping the possibly non-Lipschitz reaction out of any nonlinear solve.
Steps that produce a negative value anywhere are rejected and retried at
half the step size; values are never clamped, because clamping would
silently break the discrete mass identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import diagnostics
from .errors import AssumptionError, ConfigError, NumericsError, StiffnessError
from .grid import DiffusionSolver, Domain
from .model import ModelSpec, validate_assumptions

# Hard default ceiling of the auto-chosen initial step.
DT_INIT_CAP = 1e-2
# Multiplier on h^2/d for the auto initial step; implicit diffusion makes
# steps far above the explicit stability limit usable.
DT_INIT_GAIN = 10.0

# Step growth after a streak of accepted steps (see SolverSettings).
GROWTH_FACTOR = 1.2
GROWTH_INTERVAL = 10

EVENT_SNAP = 1e-12


@dataclass(frozen=True)
class SystemState:
    """Susceptible and infected fields at one time instant."""

    S: np.ndarray
    I: np.ndarray
    t: float

    def __post_init__(self):
        object.__setattr__(self, "S", np.asarray(self.S, dtype=float))
        object.__setattr__(self, "I", np.asarray(self.I, dtype=float))
        if self.S.shape != self.I.shape:
            raise ConfigError("S and I fields must share a grid")

    @classmethod
    def _from_step(cls, S: np.ndarray, I: np.ndarray, t: float,
                   extrema: tuple[float, float, float, float]) -> "SystemState":
        """A state of float arrays the stepper made, with its extrema."""
        state = object.__new__(cls)
        vars(state).update(S=S, I=I, t=t, extrema=extrema)
        return state

    @cached_property
    def extrema(self) -> tuple[float, float, float, float]:
        """(min S, max S, min I, max I), computed once per state.

        A NaN anywhere in a field makes both of its values NaN, and an
        infinity is its min or max, so the four values are all finite
        exactly when both fields are.
        """
        return _extrema(self.S, self.I)


def _extrema(S: np.ndarray, I: np.ndarray) -> tuple[float, float, float, float]:
    lo, hi = np.minimum.reduce, np.maximum.reduce
    return (float(lo(S, axis=None)), float(hi(S, axis=None)),
            float(lo(I, axis=None)), float(hi(I, axis=None)))


@dataclass(frozen=True)
class SolverSettings:
    """Adaptive stepping controls.

    A step that makes a value negative is rejected and retried at half
    the size; the step grows by ``GROWTH_FACTOR`` after every
    ``GROWTH_INTERVAL`` consecutive accepted steps, up to ``dt_max``.
    """

    dt_init: float | None = None
    dt_min: float = 1e-10
    dt_max: float = 2e-2
    max_steps: int = 2_000_000

    def __post_init__(self):
        if not (0 < self.dt_min <= self.dt_max):
            raise ConfigError("need 0 < dt_min <= dt_max", key="solver.dt_min")
        if self.dt_init is not None and not (self.dt_min <= self.dt_init <= self.dt_max):
            raise ConfigError("dt_init must lie in [dt_min, dt_max]",
                              key="solver.dt_init")
        if self.max_steps < 1:
            raise ConfigError("solver.max_steps must be at least 1",
                              key="solver.max_steps")


@dataclass
class Trajectory:
    """Sampled diagnostics of one run plus the state snapshots it kept."""

    rows: np.ndarray
    snapshots: dict[float, SystemState]
    final_state: SystemState
    measure: float
    sup_monitor: float
    floor_S: float
    floor_I: float
    steps_accepted: int
    steps_rejected: int
    flags: tuple[str, ...]
    assumptions: object | None = None

    @property
    def mass(self) -> np.ndarray:
        return self.rows["mass_S"] + self.rows["mass_I"]

    def tail_sup_monitor(self, fraction: float) -> float:
        """Largest sup-norm over the tail window of the samples, the rows
        that ``classify_longtime`` reads for the same window fraction."""
        tail = diagnostics._tail_rows(self, fraction)
        return float(np.maximum(tail["sup_S"], tail["sup_I"]).max())


def _require_finite(extrema: tuple, state: SystemState, dt: float) -> None:
    """Raise the step's NumericsError unless the ``extrema`` are all finite."""
    if not all(map(math.isfinite, extrema)):
        raise NumericsError("non-finite value during step", t=state.t, dt=dt,
                            S=state.S.copy(), I=state.I.copy())


class Stepper:
    """One-step IMEX integrator bound to a model, grid, and settings."""

    def __init__(self, model: ModelSpec, domain: Domain,
                 settings: SolverSettings | None = None):
        self.model = model
        self.domain = domain
        self.settings = settings or SolverSettings()
        self.diffusion = DiffusionSolver(domain)
        self._x = domain.x_coordinate()
        # Time-constant coefficients are sampled once. Samples keep the
        # evaluator's shape ((nx, 1) in 2D) and broadcast in ``reaction``.
        self._const: dict[str, np.ndarray] = {}
        for name in ("beta", "gamma", "mu"):
            coeff = getattr(model, name)
            if coeff.is_time_constant:
                self._const[name] = coeff.sample(domain, [0.0])[0]
        self._gamma_mu = None
        if "gamma" in self._const and "mu" in self._const:
            self._gamma_mu = self._const["gamma"] + self._const["mu"]
        e = model.exponents
        self._removal = None if e.is_si_specialization else (e.s, e.r)
        self._sigma = model.sigma_sup
        self._cap_power = e.p + e.q

    def _coeff(self, name: str, t: float) -> np.ndarray:
        if name in self._const:
            return self._const[name]
        return getattr(self.model, name)(self._x, t)

    def reaction(self, S: np.ndarray, I: np.ndarray, t: float
                 ) -> tuple[np.ndarray, np.ndarray]:
        """Reaction pair (f, g) evaluated at the given state and time.

        f = gamma*R - beta*K equals -beta*K + gamma*R bit for bit, since
        IEEE negation is exact; beta*K is formed once for both.
        """
        bk = self._coeff("beta", t) * self.model.incidence.kernel(S, I)
        gamma = self._coeff("gamma", t)
        gamma_mu = self._gamma_mu
        if gamma_mu is None:
            gamma_mu = gamma + self._coeff("mu", t)
        if self._removal is None:
            removal = I
        else:
            s, r = self._removal
            removal = S**s * I**r
        return gamma * removal - bk, bk - gamma_mu * removal

    def reaction_dt_cap(self, sup: float) -> float:
        """Step ceiling 0.5 / (sigma_sup * (1 + M^(p+q))), M = max(sup, 0).

        ``sup`` is the largest value of S and I (see ``SystemState.extrema``).
        """
        if self._sigma <= 0:
            return math.inf
        m = max(sup, 0.0)
        return 0.5 / (self._sigma * (1.0 + m ** self._cap_power))

    def step(self, state: SystemState, dt: float) -> SystemState | None:
        """Advance by dt; returns None when positivity rejects the step.

        Everything fixed for a run is taken once, in the constructor: the
        samples of time-constant coefficients (and gamma + mu when both
        are), the removal powers, sigma_sup and p + q of the dt cap. The
        diffusion solves do not check for finite values. This method
        checks the ``extrema`` of the state before any arithmetic and of
        the new state. The new state's four extrema are reduced once
        here and cached on it: they give the finiteness and negativity
        tests, and the caller's dt cap, floors and diagnostics row.

        Raises:
            NumericsError: a non-finite value was given or appeared; the
                payload holds ``t``, ``dt`` and copies of the pre-step
                ``S`` and ``I``.
        """
        _require_finite(state.extrema, state, dt)
        f, g = self.reaction(state.S, state.I, state.t)
        S_star = state.S + dt * f
        I_star = state.I + dt * g
        S = self.diffusion.solve(dt * self.model.d_S, S_star)
        I = self.diffusion.solve(dt * self.model.d_I, I_star)
        extrema = _extrema(S, I)
        _require_finite(extrema, state, dt)
        if extrema[0] < 0.0 or extrema[2] < 0.0:
            return None
        return SystemState._from_step(S, I, state.t + dt, extrema)

    def initial_dt(self, state: SystemState) -> float:
        s = self.settings
        if s.dt_init is not None:
            return s.dt_init
        h = min(self.domain.spacing)
        dt = DT_INIT_GAIN * h * h / max(self.model.d_S, self.model.d_I)
        _, hi_S, _, hi_I = state.extrema
        dt = min(dt, DT_INIT_CAP, s.dt_max, self.reaction_dt_cap(max(hi_S, hi_I)))
        return max(dt, s.dt_min)


def _marginal_positivity_flags(model: ModelSpec, S0: np.ndarray,
                               I0: np.ndarray) -> list[str]:
    """Flag strictly positive data sitting at the edge of machine zero.

    Uniqueness theory for fractional exponents needs strictly positive
    data; the discrete scheme accepts marginal floors but the report says
    so out loud.
    """
    flags = []
    eps = np.finfo(float).eps
    e = model.exponents
    if e.p < 1 and 0 < I0.min() < 1e3 * eps * max(I0.max(), 1.0):
        flags.append("marginal-positivity-I0")
    if e.q < 1 and 0 < S0.min() < 1e3 * eps * max(S0.max(), 1.0):
        flags.append("marginal-positivity-S0")
    return flags


def run(config) -> Trajectory:
    """Integrate a scenario to its end time with adaptive stepping.

    The loop clips steps so every requested snapshot time and the end
    time are hit exactly, halves the step on positivity rejection, and
    grows it after every streak of accepted steps (see
    :class:`SolverSettings`). Two runs of the same config produce
    bit-identical output.

    Args:
        config: A fully resolved scenario (see :mod:`sqip.config`).

    Raises:
        AssumptionError: mandatory admissibility checks failed and the
            degenerate-data override is off.
        StiffnessError: the step size underflowed dt_min.
        NumericsError: a non-finite value appeared; the state is attached.
    """
    domain = config.domain
    model = config.model
    settings = config.solver
    S0, I0 = config.initial_arrays()
    state = SystemState(S0, I0, 0.0)

    report = validate_assumptions(model, state, domain)
    failures = report.mandatory_failures
    flags = _marginal_positivity_flags(model, state.S, state.I)
    if failures:
        if not config.allow_degenerate_initial:
            raise AssumptionError(failures)
        flags.append("degenerate-initial-override")

    stepper = Stepper(model, domain, settings)
    t_end = float(config.t_end)
    cadence = float(config.cadence)
    # One sorted list of (time, is_snapshot); t_end is always the last.
    snap_times = [float(ts) for ts in config.snapshot_times]
    events = [(te, any(abs(te - ts) <= EVENT_SNAP for ts in snap_times))
              for te in sorted({*snap_times, t_end})]

    rows = [diagnostics.compute_row(domain, state)]
    snapshots: dict[float, SystemState] = {}
    if abs(events[0][0]) <= EVENT_SNAP:
        snapshots[events[0][0]] = state
        events = events[1:]

    # The four reductions of the current state feed the step cap, the
    # sup monitor and the floors; Stepper.step takes them once per step.
    lo_S, hi_S, lo_I, hi_I = state.extrema
    sup_monitor = max(hi_S, hi_I)
    floor_S = lo_S
    floor_I = lo_I

    dt = stepper.initial_dt(state)
    accepted = 0
    rejected = 0
    streak = 0
    next_mark = cadence

    while state.t < t_end - EVENT_SNAP:
        if accepted + rejected >= settings.max_steps:
            raise NumericsError(
                "max_steps exhausted before t_end", t=state.t,
                steps=accepted + rejected)
        next_event, is_snapshot = events[0]
        dt_try = min(dt, stepper.reaction_dt_cap(max(hi_S, hi_I)))
        remaining = next_event - state.t
        hit_event = dt_try >= remaining - EVENT_SNAP
        if hit_event:
            dt_try = remaining

        new_state = stepper.step(state, dt_try)
        if new_state is None:
            rejected += 1
            streak = 0
            dt = dt_try / 2.0
            if dt < settings.dt_min:
                worst = np.unravel_index(
                    int(np.argmin(np.minimum(state.S, state.I))), state.S.shape)
                raise StiffnessError(state.t, dt, worst)
            continue

        lo_S, hi_S, lo_I, hi_I = new_state.extrema
        if hit_event:
            new_state = SystemState._from_step(new_state.S, new_state.I,
                                               next_event, new_state.extrema)
        state = new_state
        accepted += 1
        streak += 1
        if streak >= GROWTH_INTERVAL:
            dt = min(dt * GROWTH_FACTOR, settings.dt_max)
            streak = 0

        sup_monitor = max(sup_monitor, hi_S, hi_I)
        floor_S = min(floor_S, lo_S)
        floor_I = min(floor_I, lo_I)

        if hit_event:
            events = events[1:]
            if is_snapshot:
                snapshots[state.t] = state

        if state.t >= next_mark - EVENT_SNAP or state.t >= t_end - EVENT_SNAP:
            rows.append(diagnostics.compute_row(domain, state))
            next_mark = (math.floor(state.t / cadence + EVENT_SNAP) + 1) * cadence

    return Trajectory(
        rows=np.array(rows, dtype=diagnostics.ROW_DTYPE),
        snapshots=snapshots,
        final_state=state,
        measure=domain.measure,
        sup_monitor=sup_monitor,
        floor_S=floor_S,
        floor_I=floor_I,
        steps_accepted=accepted,
        steps_rejected=rejected,
        flags=tuple(flags),
        assumptions=report,
    )


class LinearPropagator:
    """Time integrator of the linear problem phi_t = d*Lap(phi) + a(x,t)*phi.

    This is the solver's stepping with the nonlinearity disabled: implicit
    diffusion and an explicit potential factor. The factor of step k is
    the exact exponential exp(dt * a(x, t_k)) of the midpoint sample
    t_k = (k + 1/2) dt, so a spatially uniform potential is
    integrated with quadrature error only, which is what makes the
    closed-form spectral checks meet their tight tolerances.

    The factors are tabulated by the caller, once per time grid (see
    ``LinearizedProblem.growth_factors``): ``growth`` has one row per
    step, shape (nsteps, *domain.shape), or a single row that serves
    every step of a time-constant potential.
    """

    def __init__(self, domain: Domain, diffusivity: float, growth: np.ndarray):
        if diffusivity <= 0:
            raise ConfigError("diffusivity must be positive")
        self.diffusivity = diffusivity
        self.growth = growth
        self.diffusion = DiffusionSolver(domain)

    def advance(self, phi: np.ndarray, duration: float,
                nsteps: int) -> np.ndarray:
        """Propagate ``phi`` over ``duration`` in ``nsteps`` steps.

        The table fixes the time grid: its row k is the factor of step k,
        sampled by the caller for this ``duration`` and ``nsteps``.
        """
        rows = len(self.growth)
        if rows not in (1, nsteps):
            raise ConfigError(
                f"growth table has {rows} rows for {nsteps} steps")
        dt = duration / nsteps
        out = np.asarray(phi, dtype=float)
        c = dt * self.diffusivity
        for k in range(nsteps):
            out = out * self.growth[k % rows]
            out = self.diffusion.solve(c, out)
        return out
