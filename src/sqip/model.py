"""Model description: exponents, incidence kernels, coefficients, checks.

The reaction pair integrated by the solver is

    f = -beta(x,t) * K(S, I) + gamma(x,t) * S^s * I^r
    g = +beta(x,t) * K(S, I) - (gamma(x,t) + mu(x,t)) * S^s * I^r

where K is an incidence kernel (the transmission coefficient beta is kept
outside it). The susceptible-infected specialization has s = 0, r = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ConfigError, DomainError
from .grid import Domain

__all__ = [
    "Exponents",
    "RegimeReport",
    "classify_exponents",
    "Incidence",
    "evaluate_incidence",
    "CoefficientField",
    "read_coefficient_table",
    "ModelSpec",
    "AssumptionItem",
    "AssumptionReport",
    "validate_assumptions",
]


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
        if not (self.p > 0 and self.q > 0):
            raise DomainError(f"p and q must be positive, got p={self.p}, q={self.q}")
        if self.s < 0 or self.r < 0:
            raise DomainError(f"s and r must be nonnegative, got s={self.s}, r={self.r}")

    @property
    def is_si_specialization(self) -> bool:
        return self.s == 0.0 and self.r == 1.0


# Regime labels, in the fixed priority order used by the classifier.
REGIME_LABELS = ("H1-i", "H1-ii", "H1-iii", "H1-iv", "H2-i", "H2-ii")

# Regimes whose sup-norm bounds require the removal-rate floor on
# gamma + mu instead of the transmission floor on beta.
DUAL_REGIMES = frozenset({"H1-iii", "H1-iv", "H2-ii"})


@dataclass(frozen=True)
class RegimeReport:
    """Outcome of the exponent classification."""

    label: str
    bounds_theorem_applicable: bool
    needs_dual_floor: bool
    dissipativity_assured: bool


def classify_exponents(e: Exponents) -> RegimeReport:
    """Match (p, q, s, r) against the exponent-inequality families.

    The families overlap, so matching uses a fixed priority order
    (H1-i, H1-ii, H1-iii, H1-iv, H2-i, H2-ii; first match wins) to keep
    the label deterministic. Incidence variants other than the pure power
    kernel are labeled by their (q, p) core.
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
        bounds_theorem_applicable=label != "none",
        needs_dual_floor=label in DUAL_REGIMES,
        dissipativity_assured=dissipative,
    )


# --------------------------------------------------------------------------
# Incidence kernels
# --------------------------------------------------------------------------

INCIDENCE_VARIANTS = ("power", "binomial", "saturated", "media")


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
        if self.variant not in INCIDENCE_VARIANTS:
            raise ConfigError(f"unknown incidence variant {self.variant!r}")
        if self.variant == "binomial":
            if self.k < 0:
                raise DomainError("binomial incidence needs k >= 0")
        else:
            if not (self.q > 0 and self.p > 0):
                raise DomainError("incidence exponents must be positive")
            if self.ell < 0:
                raise DomainError("saturation exponent ell must be nonnegative")

    @property
    def core_exponents(self) -> tuple[float, float]:
        """(q, p) pair that governs growth; binomial behaves like (1, 1)."""
        if self.variant == "binomial":
            return (1.0, 1.0)
        return (self.q, self.p)

    def kernel(self, S, I):
        """Vectorized kernel value; inputs are assumed nonnegative.

        Fractional powers of zero evaluate to zero (continuity from the
        right), which numpy's power already provides for positive
        exponents.
        """
        S = np.asarray(S, dtype=float)
        I = np.asarray(I, dtype=float)
        if self.variant == "power":
            return S**self.q * I**self.p
        if self.variant == "binomial":
            return S * np.log1p(self.k * I)
        core = S**self.q * I**self.p
        damp = 1.0 + I**self.ell
        if self.variant == "media":
            return core * np.exp(-I) / damp
        return core / damp


def evaluate_incidence(kind: Incidence, S, I):
    """Kernel value with input validation; scalar in, scalar out."""
    S_arr = np.asarray(S, dtype=float)
    I_arr = np.asarray(I, dtype=float)
    if np.any(S_arr < 0) or np.any(I_arr < 0):
        raise DomainError("incidence inputs must be nonnegative")
    out = kind.kernel(S_arr, I_arr)
    if np.isscalar(S) and np.isscalar(I):
        return float(out)
    return out


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
        if value < 0:
            raise ConfigError(f"coefficient must be nonnegative, got {value}")
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
        """
        if base < 0:
            raise ConfigError("base level must be nonnegative")
        if not (0 <= abs(time_amp) <= 1 and 0 <= abs(space_amp) <= 1):
            raise ConfigError("modulation amplitudes must lie in [-1, 1]")
        if time_amp != 0.0 and period is None:
            raise ConfigError("time modulation requires a period")
        if space_amp != 0.0 and length is None:
            raise ConfigError("space modulation requires the domain length")
        if time_amp == 0.0 and space_amp == 0.0:
            return cls.constant(base)

        def evaluator(x: np.ndarray, t: float) -> np.ndarray:
            out = np.full_like(x, base)
            if space_amp != 0.0:
                out = out * (1.0 + space_amp * np.cos(np.pi * x / length))
            if time_amp != 0.0:
                out = out * (1.0 + time_amp * math.cos(2.0 * math.pi * t / period))
            return out

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
        if np.any(table < 0):
            raise ConfigError("coefficient table entries must be nonnegative")
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
    time samples of one grid row.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip() and not ln.lstrip().startswith("#")]
    if not lines:
        raise ConfigError(f"empty coefficient table {path}")
    header = lines[0].split()
    if len(header) != 3:
        raise ConfigError(f"bad table header {lines[0]!r}; expected 'omega n_x n_t'")
    try:
        omega = float(header[0])
        n_x = int(header[1])
        n_t = int(header[2])
    except ValueError as exc:
        raise ConfigError(f"bad table header {lines[0]!r}: {exc}") from None
    if len(lines) - 1 != n_x:
        raise ConfigError(
            f"table declares {n_x} rows but file has {len(lines) - 1}")
    rows = []
    for ln in lines[1:]:
        vals = [float(tok) for tok in ln.split()]
        if len(vals) != n_t:
            raise ConfigError(f"table row has {len(vals)} entries, expected {n_t}")
        rows.append(vals)
    return CoefficientField.tabulated(
        np.array(rows), length, omega if omega > 0 else None)


def write_coefficient_table(path, table: np.ndarray, omega: float | None) -> None:
    """Inverse of :func:`read_coefficient_table`, used by tooling and tests."""
    table = np.asarray(table, dtype=float)
    n_x, n_t = table.shape
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{omega if omega else 0.0:.17g} {n_x} {n_t}\n")
        for row in table:
            fh.write(" ".join(f"{v:.17g}" for v in row) + "\n")


# --------------------------------------------------------------------------
# Full model description
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ModelSpec:
    """Complete reaction-diffusion model description."""

    exponents: Exponents
    beta: CoefficientField
    gamma: CoefficientField
    mu: CoefficientField
    d_S: float
    d_I: float
    incidence: Incidence

    def __post_init__(self):
        if not (0 < self.d_S < math.inf and 0 < self.d_I < math.inf):
            raise ConfigError("diffusivities must be finite and positive, "
                              f"got dS={self.d_S}, dI={self.d_I}")

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
    name: str
    status: str
    detail: str = ""

    @property
    def mandatory(self) -> bool:
        return self.name in MANDATORY_ITEMS


@dataclass(frozen=True)
class AssumptionReport:
    items: tuple[AssumptionItem, ...]

    def __getitem__(self, name: str) -> AssumptionItem:
        for item in self.items:
            if item.name == name:
                return item
        raise KeyError(name)

    @property
    def mandatory_failures(self) -> list[str]:
        return [i.name for i in self.items if i.mandatory and i.status == FAIL]

    @property
    def all_pass(self) -> bool:
        return all(i.status != FAIL for i in self.items)

    def lines(self) -> list[str]:
        return [f"{i.name}: {i.status}" + (f" ({i.detail})" if i.detail else "")
                for i in self.items]


# Time scan of the coefficient checks: this many samples over
# [0, max(ASSUMPTION_HORIZON, twice every declared period)].
ASSUMPTION_HORIZON = 10.0
ASSUMPTION_TIME_SAMPLES = 33


def validate_assumptions(spec: ModelSpec, initial, domain: Domain
                         ) -> AssumptionReport:
    """Report-only admissibility checks of a scenario.

    ``initial`` is any object with nonnegative ``S`` and ``I`` grid fields
    (the solver state type qualifies). Bounds and periodicity are checked
    by dense sampling; Holder regularity of the coefficients is not
    checkable from samples and is taken on trust.
    """
    S0 = np.asarray(initial.S, dtype=float)
    I0 = np.asarray(initial.I, dtype=float)
    e = spec.exponents
    items: list[AssumptionItem] = []

    horizons = [ASSUMPTION_HORIZON]
    for coeff in (spec.beta, spec.gamma, spec.mu):
        if coeff.period:
            horizons.append(2.0 * coeff.period)
    t_values = np.linspace(0.0, max(horizons), ASSUMPTION_TIME_SAMPLES)

    samples = {name: coeff.sample(domain, t_values)
               for name, coeff in (("beta", spec.beta), ("gamma", spec.gamma),
                                   ("mu", spec.mu))}

    # A1: declared bounds actually contain the sampled values.
    violations = []
    for name, coeff in (("beta", spec.beta), ("gamma", spec.gamma), ("mu", spec.mu)):
        vals = samples[name]
        pad = 1e-12 * max(1.0, coeff.upper)
        if vals.min() < -pad or vals.max() > coeff.upper + pad or vals.min() < coeff.lower - pad:
            violations.append(name)
    items.append(AssumptionItem(
        A1, FAIL if violations else PASS,
        f"bounds violated for {', '.join(violations)}" if violations else ""))

    # A2: nonnegative initial data.
    ok = bool((S0 >= 0).all() and (I0 >= 0).all())
    items.append(AssumptionItem(A2, PASS if ok else FAIL,
                                "" if ok else "negative initial values present"))

    # A3: strictly positive transmission floor.
    beta_min = float(samples["beta"].min())
    ok = spec.beta.lower > 0 and beta_min >= spec.beta.lower - 1e-12
    items.append(AssumptionItem(
        A3, PASS if ok else FAIL,
        f"min sampled beta = {beta_min:.3g}, declared floor = {spec.beta.lower:.3g}"))

    # A4(i): infection actually seeded.
    ok = bool(I0.max() > 0)
    items.append(AssumptionItem(A4I, PASS if ok else FAIL,
                                "" if ok else "I0 vanishes identically"))

    # A4(ii): q < 1 needs strictly positive S0 and a recovery floor.
    if e.q < 1:
        ok = bool(S0.min() > 0) and spec.gamma.lower > 0
        detail = "" if ok else (
            "S0 touches zero" if S0.min() <= 0 else "gamma has no positive floor")
        items.append(AssumptionItem(A4II, PASS if ok else FAIL, detail))
    else:
        items.append(AssumptionItem(A4II, NOT_APPLICABLE))

    # A4(iii): p < 1 needs strictly positive I0.
    if e.p < 1:
        ok = bool(I0.min() > 0)
        items.append(AssumptionItem(A4III, PASS if ok else FAIL,
                                    "" if ok else "I0 touches zero"))
    else:
        items.append(AssumptionItem(A4III, NOT_APPLICABLE))

    # A5: mortality floor, only when the scenario claims mortality.
    if spec.has_mortality:
        mu_min = float(samples["mu"].min())
        ok = spec.mu.lower > 0 and mu_min >= spec.mu.lower - 1e-12
        items.append(AssumptionItem(
            A5, PASS if ok else FAIL,
            f"min sampled mu = {mu_min:.3g}"))
    else:
        items.append(AssumptionItem(A5, NOT_APPLICABLE))

    # A6: declared periods are honored and agree across fields.
    periods = {c.period for c in (spec.beta, spec.gamma, spec.mu) if c.period}
    if periods:
        if len(periods) > 1:
            items.append(AssumptionItem(A6, FAIL,
                                        f"conflicting periods {sorted(periods)}"))
        else:
            omega = periods.pop()
            t_check = np.linspace(0.0, omega, 17)
            worst = 0.0
            for coeff in (spec.beta, spec.gamma, spec.mu):
                if coeff.period is None:
                    continue
                later = coeff.sample(domain, t_check + omega)
                for a, b in zip(coeff.sample(domain, t_check), later):
                    scale = max(1.0, float(np.abs(a).max()))
                    worst = max(worst, float(np.abs(a - b).max()) / scale)
            ok = worst <= 1e-10
            items.append(AssumptionItem(A6, PASS if ok else FAIL,
                                        f"worst periodicity defect {worst:.2e}"))
    else:
        items.append(AssumptionItem(A6, NOT_APPLICABLE))

    # A3': removal floor, needed only by the dual exponent regimes.
    if spec.regime().needs_dual_floor:
        total = samples["gamma"] + samples["mu"]
        floor = spec.gamma.lower + spec.mu.lower
        ok = floor > 0 and float(total.min()) >= floor - 1e-12
        items.append(AssumptionItem(
            A3P, PASS if ok else FAIL,
            f"min sampled gamma+mu = {float(total.min()):.3g}"))
    else:
        items.append(AssumptionItem(A3P, NOT_APPLICABLE))

    return AssumptionReport(tuple(items))
