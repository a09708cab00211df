"""Model description: exponents, incidence kernels, coefficients, checks.

The reaction pair integrated by the solver is

    f = -beta(x,t) * K(S, I) + gamma(x,t) * S^s * I^r
    g = +beta(x,t) * K(S, I) - (gamma(x,t) + mu(x,t)) * S^s * I^r

where K is an incidence kernel (the transmission coefficient beta is kept
outside it). The susceptible-infected specialization has s = 0, r = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Callable

import numpy as np

from .errors import ConfigError
from .grid import Domain


def _refuse_sign(name: str, value: float) -> None:
    """Refuse p or q <= 0 and any other exponent or kernel parameter < 0,
    keyed ``model.<name>``; a NaN fails both tests."""
    ok, op = (value > 0, ">") if name in ("q", "p") else (value >= 0, ">=")
    if not ok:
        raise ConfigError(f"need {name} {op} 0, got {value}", key=f"model.{name}")


@dataclass(frozen=True)
class Exponents:
    """Powers (p, q, s, r) of the reaction pair.

    p and q act on the incidence term, s and r on the recovery term.
    """

    p: float
    q: float
    s: float = 0.0
    r: float = 1.0

    def __post_init__(self):
        for f in fields(self):
            _refuse_sign(f.name, getattr(self, f.name))

    @property
    def is_si_specialization(self) -> bool:
        return self.s == 0.0 and self.r == 1.0


# Regimes whose sup-norm bounds require the removal-rate floor on
# gamma + mu instead of the transmission floor on beta.
DUAL_REGIMES = frozenset({"H1-iii", "H1-iv", "H2-ii"})


@dataclass(frozen=True)
class RegimeReport:
    """Outcome of the exponent classification."""

    label: str
    needs_dual_floor: bool
    dissipativity_assured: bool


def classify_exponents(e: Exponents) -> RegimeReport:
    """Match (p, q, s, r) against the exponent-inequality families.

    The families overlap, so matching uses a fixed priority order
    (H1-i, H1-ii, H1-iii, H1-iv, H2-i, H2-ii; first match wins) to keep
    the label deterministic.
    """
    p, q, s, r = e.p, e.q, e.s, e.r
    label = "none"
    if p > r >= 0 and s * p - r * q <= p - r:
        label = "H1-i"
    elif p == r >= 0 and 0 <= s < q:
        label = "H1-ii"
    elif s > q >= 0 and s * p - r * q <= s - q:
        label = "H1-iii"
    elif s == q >= 0 and 0 <= p < r:
        label = "H1-iv"
    elif 0 <= p < 1 and 0 <= s < q and p * s - q * r >= s - q:
        label = "H2-i"
    elif 0 <= s < 1 and 0 <= p < r and p * s - q * r >= p - r:
        label = "H2-ii"

    dissipative = label in ("H1-i", "H1-iii", "H2-i", "H2-ii")
    if label == "H1-ii" and p == 1 and r == 1:
        dissipative = True
    if label == "H1-iv" and q == 1 and s == 1:
        dissipative = True
    return RegimeReport(
        label=label,
        needs_dual_floor=label in DUAL_REGIMES,
        dissipativity_assured=dissipative,
    )


# --------------------------------------------------------------------------
# Incidence kernels
# --------------------------------------------------------------------------

def power(x, e: float):
    """x**e, skipping the pass over x when e is 1 (x**1.0 == x bit for bit)."""
    return x if e == 1.0 else x**e


# Variant -> the kernel parameters it reads; the rest keep valid defaults.
INCIDENCE_PARAMS = {"power": ("q", "p"), "binomial": ("k",),
                    "saturated": ("q", "p", "ell"), "media": ("q", "p", "ell")}


@dataclass(frozen=True)
class Incidence:
    """Incidence kernel K(S, I), without the transmission coefficient.

    Variants:
        power:      S^q * I^p
        binomial:   S * ln(1 + k*I)
        saturated:  S^q * I^p / (1 + I^ell)
        media:      S^q * I^p * exp(-I) / (1 + I^ell)
    """

    variant: str
    q: float = 1.0
    p: float = 1.0
    k: float = 1.0
    ell: float = 0.0

    def __post_init__(self):
        reads = INCIDENCE_PARAMS.get(self.variant)
        if reads is None:
            raise ConfigError(f"unknown incidence variant {self.variant!r}; known: "
                              f"{', '.join(INCIDENCE_PARAMS)}", key="model.incidence")
        for f in fields(self)[1:]:
            value = getattr(self, f.name)
            if f.name not in reads and value != f.default:
                raise ConfigError(f"{f.name} is not read by incidence = "
                                  f"{self.variant}", key=f"model.{f.name}")
            _refuse_sign(f.name, value)

    def kernel(self, S, I):
        """Vectorized kernel value; inputs are assumed nonnegative.

        Fractional powers of zero evaluate to zero (continuity from the
        right), which numpy's power already provides for positive
        exponents.
        """
        if self.variant == "binomial":
            return S * np.log1p(self.k * I)
        core = power(S, self.q) * power(I, self.p)
        if self.variant == "power":
            return core
        damp = 1.0 + I**self.ell
        if self.variant == "media":
            return core * np.exp(-I) / damp
        return core / damp


# --------------------------------------------------------------------------
# Space-time coefficients
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class CoefficientField:
    """Bounded space-time coefficient with optional time period.

    The evaluator maps (x, t) to nonnegative values; x is the cell-center
    coordinate array of the grid (broadcast along the first axis in 2D).
    A field has a period exactly when its values depend on t, so a field
    without one is time-constant and is sampled once. Boundedness is a
    declared contract checked by sampling; smoothness is not verified.
    """

    lower: float
    upper: float
    period: float | None
    evaluator: Callable[[np.ndarray, float], np.ndarray] = field(repr=False)

    def __post_init__(self):
        if not 0 <= self.lower <= self.upper < math.inf:
            raise ConfigError(f"need 0 <= lower <= upper < inf, "
                              f"got [{self.lower}, {self.upper}]")
        if self.period is not None and not 0 < self.period < math.inf:
            raise ConfigError(
                f"period must be finite and positive when set, got {self.period}")

    def __call__(self, x, t: float):
        return self.evaluator(np.asarray(x, dtype=float), float(t))

    @property
    def is_time_constant(self) -> bool:
        return self.period is None

    def sample(self, domain: Domain, times) -> np.ndarray:
        """Values at the grid's cell centres, one row per entry of ``times``.

        A time-constant field gives one row, at ``times[0]``. Rows are not
        broadcast to the grid: their shape is (n,) in 1D and (nx, 1) in 2D.
        """
        x = domain.x_coordinate()
        if self.is_time_constant:
            times = times[:1]
        return np.array([self(x, t) for t in times])

    @classmethod
    def constant(cls, value: float) -> "CoefficientField":
        v = float(value)
        return cls(v, v, None, lambda x, t: np.full_like(x, v))

    @classmethod
    def cosine_modulated(cls, base: float, *, time_amp: float = 0.0,
                         period: float | None = None, space_amp: float = 0.0,
                         length: float | None = None) -> "CoefficientField":
        """base * (1 + space_amp*cos(pi x/L)) * (1 + time_amp*cos(2 pi t/w)).

        Relative amplitudes must stay in [0, 1] so the field remains
        nonnegative; the spatial profile has zero normal derivative at
        both ends of [0, L], matching the boundary condition.

        The spatial profile is kept for the last x, matched by identity
        (an array changed in place keeps its old profile), so a call on
        the same x costs one scalar cosine and one multiply. Each call
        returns a new array with the bits of the full product.
        """
        for key, amp in (("time_amp", time_amp), ("space_amp", space_amp)):
            if not abs(amp) <= 1:
                raise ConfigError("modulation amplitudes must lie in [-1, 1]", key=key)
        if time_amp != 0.0 and period is None:
            raise ConfigError("time modulation requires a period", key="time_amp")
        if space_amp != 0.0 and length is None:
            raise ConfigError("space modulation requires the domain length",
                              key="space_amp")
        if time_amp == 0.0 and space_amp == 0.0:
            return cls.constant(base)

        last = (None, None)  # the last x, held by reference, and its profile

        def evaluator(x: np.ndarray, t: float) -> np.ndarray:
            nonlocal last
            seen, profile = last
            if seen is not x:
                profile = np.full_like(x, base)
                if space_amp != 0.0:
                    profile = profile * (1.0 + space_amp * np.cos(np.pi * x / length))
                last = x, profile
            if time_amp != 0.0:
                return profile * (1.0 + time_amp * math.cos(2.0 * math.pi * t / period))
            return profile.copy()

        lower = base * (1.0 - abs(space_amp)) * (1.0 - abs(time_amp))
        upper = base * (1.0 + abs(space_amp)) * (1.0 + abs(time_amp))
        return cls(lower, upper, period if time_amp != 0.0 else None, evaluator)

    @classmethod
    def tabulated(cls, table: np.ndarray, length: float,
                  period: float | None) -> "CoefficientField":
        """Bilinear interpolant of a (n_x, n_t) sample table.

        Rows sample [0, L] inclusively; columns sample one period [0, w]
        inclusively (a single column means time-constant). Evaluation
        wraps t modulo the period. Interpolation is convex, so the
        declared bounds are the table extremes.
        """
        table = np.asarray(table, dtype=float)
        if table.ndim != 2 or table.shape[0] < 2:
            raise ConfigError("coefficient table needs >= 2 spatial rows")
        n_x, n_t = table.shape
        if n_t > 1 and period is None:
            raise ConfigError("time-varying table requires a period")

        x_nodes = np.linspace(0.0, length, n_x)

        def evaluator(x: np.ndarray, t: float) -> np.ndarray:
            if n_t == 1:
                col = table[:, 0]
            else:
                tau = t % period
                pos = tau / period * (n_t - 1)
                j = min(int(pos), n_t - 2)
                w = pos - j
                col = (1.0 - w) * table[:, j] + w * table[:, j + 1]
            flat = np.interp(np.ravel(x), x_nodes, col)
            return flat.reshape(np.shape(x))

        return cls(float(table.min()), float(table.max()),
                   period if n_t > 1 else None, evaluator)


def read_coefficient_table(path, length: float) -> CoefficientField:
    """Load a tabulated coefficient from the plain-text matrix format.

    Line 1 is the header ``omega n_x n_t`` (omega = 0 marks a
    time-constant table); each of the following n_x lines holds the n_t
    time samples of one grid row. ``#`` starts a comment on any line.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [ln for ln in (raw.split("#", 1)[0].strip() for raw in fh) if ln]
        header, *rows = lines or [""]
        omega, n_x, n_t = header.split()
        omega, shape = float(omega), (int(n_x), int(n_t))
        if shape[0] < 2 or shape[1] < 1:
            raise ValueError(f"header needs n_x >= 2 and n_t >= 1, got {n_x} and {n_t}")
        if not 0 <= omega < math.inf or (omega > 0) != (shape[1] > 1):
            raise ValueError(f"header omega {omega} must be finite and >= 0, "
                             "and 0 on a one-column table, > 0 on a wider one")
        # np.loadtxt warns on empty input; no rows fails the shape test
        table = np.loadtxt(rows, ndmin=2) if rows else np.empty((0, 0))
        if table.shape != shape:
            raise ValueError(f"rows x columns {table.shape}, header {shape}")
    except (OSError, ValueError) as exc:
        raise ConfigError(f"coefficient table {path}: {exc}; expected a header "
                          "'omega n_x n_t' and n_x rows of n_t numbers") from None
    return CoefficientField.tabulated(table, length, omega if omega > 0 else None)


# --------------------------------------------------------------------------
# Full model description
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ModelSpec:
    """Complete reaction-diffusion model description; the incidence
    kernel is the only home of (p, q), and ``period`` the only period."""

    beta: CoefficientField
    gamma: CoefficientField
    mu: CoefficientField
    d_S: float
    d_I: float
    incidence: Incidence
    s: float = 0.0
    r: float = 1.0

    def __post_init__(self):
        for key, d in (("model.dS", self.d_S), ("model.dI", self.d_I)):
            if not 0 < d < math.inf:
                raise ConfigError("diffusivities must be finite and positive, "
                                  f"got {d}", key=key)
        self.exponents  # Exponents refuses a negative or NaN s or r
        self.period  # refuses coefficients whose periods differ

    @property
    def period(self) -> float | None:
        """The common period of beta, gamma and mu; None if none varies in t."""
        named = {name: getattr(self, name).period for name in ("beta", "gamma", "mu")}
        periods = set(named.values()) - {None}
        if len(periods) > 1:
            which = ", ".join(f"{n} {w}" for n, w in named.items() if w is not None)
            raise ConfigError(f"coefficient periods {sorted(periods)} differ ({which})")
        return min(periods, default=None)

    @property
    def exponents(self) -> Exponents:
        """(p, q, s, r); the binomial kernel S ln(1 + kI) grows like (1, 1)."""
        if self.incidence.variant == "binomial":
            return Exponents(1.0, 1.0, self.s, self.r)
        return Exponents(self.incidence.p, self.incidence.q, self.s, self.r)

    @property
    def has_mortality(self) -> bool:
        """True when the removal term carries disease-induced mortality."""
        return self.mu.upper > 0

    @property
    def sigma_sup(self) -> float:
        """Common upper bound on all coefficient magnitudes."""
        return max(self.beta.upper, self.gamma.upper, self.mu.upper)

    def regime(self) -> RegimeReport:
        return classify_exponents(self.exponents)


# Assumption item names, in report order.
A1 = "A1-coefficient-bounds"
A2 = "A2-nonnegative-initial-data"
A3 = "A3-transmission-floor"
A4I = "A4i-infection-seed"
A4II = "A4ii-positive-S0-and-recovery-floor"
A4III = "A4iii-positive-I0"
A5 = "A5-mortality-floor"
A6 = "A6-period-consistency"
A3P = "A3prime-removal-floor"

MANDATORY_ITEMS = (A2, A4I, A4II, A4III)

PASS, FAIL, NOT_APPLICABLE = "pass", "fail", "n/a"


@dataclass(frozen=True)
class AssumptionItem:
    """One check's outcome; its name is its key in the report dict."""

    status: str
    detail: str = ""


# Time scan of the coefficient checks: this many samples over
# [0, max(ASSUMPTION_HORIZON, twice the model's period)].
ASSUMPTION_HORIZON = 10.0
ASSUMPTION_TIME_SAMPLES = 33


def validate_assumptions(spec: ModelSpec, initial, domain: Domain
                         ) -> dict[str, AssumptionItem]:
    """Report-only admissibility checks of a scenario, keyed by name.

    ``initial`` is any object with nonnegative ``S`` and ``I`` grid fields
    (the solver state type qualifies). Bounds and periodicity are checked
    by dense sampling; Holder regularity of the coefficients is not
    checkable from samples and is taken on trust.
    """
    S0 = np.asarray(initial.S, dtype=float)
    I0 = np.asarray(initial.I, dtype=float)
    coeffs = {"beta": spec.beta, "gamma": spec.gamma, "mu": spec.mu}
    horizon = max(ASSUMPTION_HORIZON, 2.0 * (spec.period or 0.0))
    t_values = np.linspace(0.0, horizon, ASSUMPTION_TIME_SAMPLES)
    samples = {name: c.sample(domain, t_values) for name, c in coeffs.items()}

    def on_fail(ok, why):
        return ok, "" if ok else why

    def floor(label, values, lower, suffix=""):
        low = float(values.min())
        ok = lower > 0 and low >= lower - 1e-12
        return ok, f"min sampled {label} = {low:.3g}{suffix}"

    def bounds():
        # lower >= 0 is enforced, so this also catches samples below zero;
        # a NaN sample fails both comparisons
        bad = [name for name, c in coeffs.items()
               if not (samples[name].max() <= c.upper + 1e-12 * max(1.0, c.upper)
                       and samples[name].min() >= c.lower - 1e-12 * max(1.0, c.upper))]
        return on_fail(not bad, f"bounds violated for {', '.join(bad)}")

    def periodicity():
        t_check = np.linspace(0.0, spec.period, 17)
        worst = 0.0
        for c in coeffs.values():
            if c.period:
                later = c.sample(domain, t_check + spec.period)
                for a, b in zip(c.sample(domain, t_check), later):
                    scale = max(1.0, float(np.abs(a).max()))
                    worst = max(worst, float(np.abs(a - b).max()) / scale)
        return worst <= 1e-10, f"worst periodicity defect {worst:.2e}"

    # (name, applies, check) in report order; check runs only if applies.
    rows = (
        (A1, True, bounds),
        (A2, True, lambda: on_fail((S0 >= 0).all() and (I0 >= 0).all(),
                                   "negative initial values present")),
        (A3, True, lambda: floor("beta", samples["beta"], spec.beta.lower,
                                 f", declared floor = {spec.beta.lower:.3g}")),
        (A4I, True, lambda: on_fail(I0.max() > 0, "I0 vanishes identically")),
        (A4II, spec.exponents.q < 1, lambda: on_fail(
            S0.min() > 0 and spec.gamma.lower > 0,
            "S0 touches zero" if S0.min() <= 0 else "gamma has no positive floor")),
        (A4III, spec.exponents.p < 1, lambda: on_fail(I0.min() > 0, "I0 touches zero")),
        (A5, spec.has_mortality, lambda: floor("mu", samples["mu"], spec.mu.lower)),
        (A6, spec.period is not None, periodicity),
        (A3P, spec.regime().needs_dual_floor, lambda: floor(
            "gamma+mu", samples["gamma"] + samples["mu"],
            spec.gamma.lower + spec.mu.lower)),
    )
    items = {}
    for name, applies, check in rows:
        if applies:
            ok, detail = check()
            items[name] = AssumptionItem(PASS if ok else FAIL, detail)
        else:
            items[name] = AssumptionItem(NOT_APPLICABLE)
    return items
