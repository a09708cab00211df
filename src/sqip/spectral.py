"""Principal eigenvalue of the time-periodic linearization and the
basic reproduction number.

The linearization of the infected equation at the disease-free state with
mean density N/|domain| is

    phi_t = d_I * Lap(phi) + [beta(x,t) * (N/|domain|)^q - gamma(x,t)] * phi.

Power iteration on its entrywise positive one-period flow map M encloses
the spectral radius rho by the Collatz-Wielandt bounds min(M phi/phi) <=
rho <= max(M phi/phi); lambda0 = -ln(rho)/omega has the sign of 1 - R0.
R0 is the scaling mu_hat that makes lambda0 of the potential
beta*(N/|domain|)^q/mu_hat - gamma vanish, found by a warm-started
Illinois root-find; for spatially flat coefficients the discrete map's
closed form is returned, with the root-find as a cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError, NumericsError
from .grid import Domain
from .model import CoefficientField, ModelSpec
from .solver import LinearPropagator

CW_REL_TOL = 1e-11
MAX_POWER_ITER = 200
DEFAULT_STEPS_PER_PERIOD = 512
R0_REL_TOL = 1e-12
R0_CROSS_CHECK_TOL = 1e-8


@dataclass(frozen=True)
class LinearizedProblem:
    """Ingredients of the periodic-parabolic eigenproblem."""

    d_I: float
    beta: CoefficientField
    gamma: CoefficientField
    q: float
    mean_density: float
    omega: float
    domain: Domain
    # Coefficient samples per steps_per_period, filled on first use.
    _samples: dict = field(default_factory=dict, init=False, repr=False,
                           compare=False)

    def __post_init__(self):
        # Written so that NaN fails each test.
        if not self.omega > 0:
            raise ConfigError(f"period must be positive, got {self.omega}")
        if not self.mean_density > 0:
            raise ConfigError(
                f"mean density must be positive, got {self.mean_density}")
        if not 0 < self.d_I < math.inf:
            raise ConfigError(f"d_I must be finite and positive, got {self.d_I}")

    @classmethod
    def from_model(cls, model: ModelSpec, domain: Domain,
                   total_mass: float) -> "LinearizedProblem":
        """Linearize a model at the flat disease-free state of given mass,
        over the model's period (1 for an autonomous model)."""
        return cls(
            d_I=model.d_I,
            beta=model.beta,
            gamma=model.gamma,
            q=model.exponents.q,
            mean_density=total_mass / domain.measure,
            omega=model.period or 1.0,
            domain=domain,
        )

    def coefficient_samples(self, steps_per_period: int
                            ) -> tuple[np.ndarray, np.ndarray]:
        """beta and gamma at the step midpoints of one period.

        Row k samples t_k = (k + 1/2) * omega / steps_per_period; a
        time-constant coefficient keeps a single row. Each table is
        computed once per step count and kept for the problem's lifetime.
        """
        samples = self._samples.get(steps_per_period)
        if samples is None:
            times = (np.arange(steps_per_period) + 0.5) * (
                self.omega / steps_per_period)
            samples = self._samples[steps_per_period] = (
                self.beta.sample(self.domain, times),
                self.gamma.sample(self.domain, times))
        return samples

    def growth_factors(self, scale: float, steps_per_period: int) -> np.ndarray:
        """exp(dt * a(x, t_k)) of every step of one period, with the
        potential a = beta*(mean density)^q/scale - gamma.

        Shape (steps_per_period, *domain.shape), or one row when the
        problem is autonomous; built in place from the coefficient samples.
        """
        beta, gamma = self.coefficient_samples(steps_per_period)
        dt = self.omega / steps_per_period
        factor = self.mean_density**self.q / scale
        growth = np.empty((max(len(beta), len(gamma)), *self.domain.shape))
        np.multiply(beta, factor, out=growth)
        np.subtract(growth, gamma, out=growth)
        np.multiply(dt, growth, out=growth)
        return np.exp(growth, out=growth)


@dataclass(frozen=True)
class SpectralResult:
    """Spectral radius of the period map and derived quantities."""

    lambda0: float
    rho: float
    r0: float | None
    iterations: int
    residual: float
    # Collatz-Wielandt enclosure of lambda0 at scale 1.
    lambda0_lo: float
    lambda0_hi: float
    # One-period propagations and lambda0 evaluations behind this result.
    period_maps: int
    r0_evals: int
    r0_cross_check: float | None = None
    # Positive eigenfield (sup norm 1): the next solve's warm start.
    eigenfield: np.ndarray | None = field(default=None, repr=False,
                                          compare=False)

    def summary_lines(self) -> list[str]:
        r0_txt = "none" if self.r0 is None else f"{self.r0:.10g}"
        return [
            f"lambda0={self.lambda0:.10g}",
            f"rho={self.rho:.10g}",
            f"r0={r0_txt}",
            f"iterations={self.iterations}",
            f"residual={self.residual:.3g}",
        ]

    def stats_lines(self) -> list[str]:
        """Work counters and lambda0's enclosure, for ``[stats]``."""
        return [f"period_maps={self.period_maps}", f"r0_evals={self.r0_evals}",
                f"lambda0_lo={self.lambda0_lo:.17g}",
                f"lambda0_hi={self.lambda0_hi:.17g}"]


def monodromy_radius(problem: LinearizedProblem, scale: float = 1.0,
                     steps_per_period: int = DEFAULT_STEPS_PER_PERIOD,
                     start: np.ndarray | None = None, sign_only: bool = False
                     ) -> tuple[float, np.ndarray, int, float]:
    """Spectral radius of the one-period flow map by power iteration.

    Iteration starts from ``start`` (default: the constant field; any
    positive field will do) and renormalizes in the sup norm. A period
    map phi -> M phi encloses rho in [lo, hi] = [min, max] of M phi / phi;
    iteration stops once ln(hi/lo) <= ``CW_REL_TOL`` or, with
    ``sign_only``, once [lo, hi] excludes 1, and fails after
    ``MAX_POWER_ITER`` period maps.

    Returns:
        (sqrt(lo * hi), eigenfield, iterations, ln(hi/lo)).
    """
    prop = LinearPropagator(problem.domain, problem.d_I,
                            problem.growth_factors(scale, steps_per_period))
    phi = np.ones(problem.domain.shape) if start is None else start
    for iteration in range(1, MAX_POWER_ITER + 1):
        mapped = prop.advance(phi, problem.omega, steps_per_period)
        ratios = mapped / phi
        lo, hi = float(ratios.min()), float(ratios.max())
        if not 0.0 < lo <= hi < math.inf:
            raise NumericsError("period map lost positivity", bracket=(lo, hi))
        phi = mapped / float(mapped.max())
        width = math.log(hi / lo)
        if width <= CW_REL_TOL or (sign_only and (lo > 1.0 or hi < 1.0)):
            return math.sqrt(lo * hi), phi, iteration, width
    raise NumericsError("power iteration did not converge",
                        bracket=(lo, hi), residual=width)


def principal_eigenvalue(problem: LinearizedProblem, scale: float = 1.0,
                         steps_per_period: int = DEFAULT_STEPS_PER_PERIOD,
                         start: np.ndarray | None = None,
                         sign_only: bool = False) -> SpectralResult:
    """lambda0 = -ln(rho)/omega with a strictly positive eigenfield and
    its Collatz-Wielandt enclosure [lambda0_lo, lambda0_hi]."""
    rho, phi, iterations, width = monodromy_radius(
        problem, scale, steps_per_period, start, sign_only)
    lam = -math.log(rho) / problem.omega
    half = 0.5 * width / problem.omega
    return SpectralResult(lambda0=lam, rho=rho, r0=None,
                          iterations=iterations, residual=width,
                          lambda0_lo=lam - half, lambda0_hi=lam + half,
                          period_maps=iterations, r0_evals=1, eigenfield=phi)


def _find_r0(problem: LinearizedProblem, base: SpectralResult
             ) -> tuple[float, list[SpectralResult]]:
    """Root of scale -> lambda0(scale); the eigenvalue grows with scale.

    Starting from ``base``, the evaluation at scale 1, the root is
    bracketed by doubling or halving the scale, then closed by the
    Illinois variant of regula falsi. Each evaluation starts from the
    previous eigenfield and stops once the sign of lambda0 is certain; a
    scale whose converged enclosure of lambda0 holds 0 is a root. Returns
    the root and every evaluation, ``base`` first.
    """
    evaluations = [base]

    def lam(s):
        e = principal_eigenvalue(problem, s, start=evaluations[-1].eigenfield,
                                 sign_only=True)
        evaluations.append(e)
        return e.lambda0, e.lambda0_lo <= 0.0 <= e.lambda0_hi

    a = b = 1.0
    fa = fb = base.lambda0
    root = base.lambda0_lo <= 0.0 <= base.lambda0_hi
    step = 2.0 if fb < 0 else 0.5
    while not root and fb * base.lambda0 > 0:
        a, fa, b = b, fb, b * step
        if not 2.0**-60 <= b <= 2.0**60:
            raise NumericsError("reproduction-number bracket not found",
                                bracket=(a, b))
        fb, root = lam(b)
    # fa and fb have opposite signs; b is the latest point, and the
    # Illinois step halves fa whenever a survives a step.
    while not root and abs(b - a) > R0_REL_TOL * max(a, b):
        c = (a * fb - b * fa) / (fb - fa)
        fc, root = lam(c)
        if (fc > 0) != (fb > 0):
            a, fa = b, fb
        else:
            fa *= 0.5
        b, fb = c, fc
    return (b if root else 0.5 * (a + b)), evaluations


def _flat_r0(problem: LinearizedProblem) -> float | None:
    """mean(beta)*(mean density)^q/mean(gamma) over the midpoint samples
    if no coefficient varies in space, else None: the constant field then
    stays an eigenfield of every step, and the period map's factor
    exp(dt * sum_k a(t_k)) is 1 exactly at this scale."""
    beta, gamma = problem.coefficient_samples(DEFAULT_STEPS_PER_PERIOD)
    if (beta != beta[:, :1]).any() or (gamma != gamma[:, :1]).any():
        return None
    return float(beta[:, :1].mean() * problem.mean_density**problem.q
                 / gamma[:, :1].mean())


def r0(problem: LinearizedProblem) -> SpectralResult:
    """Basic reproduction number together with the principal eigenvalue.

    Undefined (returned as None) when the recovery rate vanishes
    identically, since the generation operator then has no decay to sum
    against. For spatially flat coefficients the closed form is returned
    and the root-find value is kept alongside as an independent check.
    The counters sum over every eigenvalue evaluation, scale 1 included.
    """
    base = principal_eigenvalue(problem, 1.0)
    if problem.gamma.upper <= 0:
        return base
    root, evaluations = _find_r0(problem, base)
    counts = dict(period_maps=sum(e.period_maps for e in evaluations),
                  r0_evals=len(evaluations))
    closed = _flat_r0(problem)
    if closed is None:
        return replace(base, r0=root, **counts)
    if abs(root - closed) > R0_CROSS_CHECK_TOL * max(1.0, closed):
        raise NumericsError("closed-form and root-find R0 disagree",
                            closed_form=closed, root_find=root)
    return replace(base, r0=closed, r0_cross_check=root, **counts)
