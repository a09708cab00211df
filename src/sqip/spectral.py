"""Principal eigenvalue of the time-periodic linearization and the
basic reproduction number.

The linearization of the infected equation at the disease-free state with
mean density N/|domain| is

    phi_t = d_I * Lap(phi) + [beta(x,t) * (N/|domain|)^q - gamma(x,t)] * phi.

Power iteration on the one-period flow map of this problem gives its
spectral radius rho; the principal eigenvalue is lambda0 = -ln(rho)/omega,
and it has the opposite sign of R0 - 1. R0 itself is located by bisection
on the scaling mu_hat that makes the eigenvalue of the rescaled potential
beta*(N/|domain|)^q/mu_hat - gamma vanish; with constant coefficients the
closed form beta*(N/|domain|)^q/gamma is returned and the bisection is
kept as a cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericsError
from .grid import Domain
from .model import CoefficientField, ModelSpec
from .solver import LinearPropagator

RAYLEIGH_TOL = 1e-8
MAX_POWER_ITER = 200
DEFAULT_STEPS_PER_PERIOD = 512
R0_BISECT_TOL = 1e-6
R0_CROSS_CHECK_TOL = 1e-4


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

    def __post_init__(self):
        if self.omega <= 0:
            raise ConfigError("period must be positive")
        if self.mean_density <= 0:
            raise ConfigError("mean density must be positive")

    @classmethod
    def from_model(cls, model: ModelSpec, domain: Domain, total_mass: float,
                   omega: float | None = None) -> "LinearizedProblem":
        """Linearize a model at the flat disease-free state of given mass."""
        if omega is None:
            omega = model.beta.period or model.gamma.period or 1.0
        return cls(
            d_I=model.d_I,
            beta=model.beta,
            gamma=model.gamma,
            q=model.incidence.core_exponents[0],
            mean_density=total_mass / domain.measure,
            omega=omega,
            domain=domain,
        )

    def potential(self, scale: float = 1.0):
        """Callable a(x,t) = beta*(mean density)^q/scale - gamma."""
        factor = self.mean_density**self.q / scale

        def a(x, t):
            return self.beta(x, t) * factor - self.gamma(x, t)

        return a

    @property
    def potential_bound(self) -> float:
        return self.beta.upper * self.mean_density**self.q + self.gamma.upper

    @property
    def is_autonomous(self) -> bool:
        return self.beta.is_time_constant and self.gamma.is_time_constant


@dataclass(frozen=True)
class SpectralResult:
    """Spectral radius of the period map and derived quantities."""

    lambda0: float
    rho: float
    r0: float | None
    iterations: int
    residual: float
    omega: float
    r0_cross_check: float | None = None

    def summary_lines(self) -> list[str]:
        r0_txt = "none" if self.r0 is None else f"{self.r0:.10g}"
        return [
            f"lambda0={self.lambda0:.10g}",
            f"rho={self.rho:.10g}",
            f"r0={r0_txt}",
            f"iterations={self.iterations}",
            f"residual={self.residual:.3g}",
        ]


def monodromy_radius(problem: LinearizedProblem, scale: float = 1.0,
                     steps_per_period: int = DEFAULT_STEPS_PER_PERIOD
                     ) -> tuple[float, np.ndarray, int, float]:
    """Spectral radius of the one-period flow map by power iteration.

    Iteration starts from the positive constant field, which has full
    overlap with the principal bundle, and renormalizes in the sup norm;
    the Rayleigh ratio is the sup norm of the propagated unit field. It
    stops once that ratio changes by at most ``RAYLEIGH_TOL`` (relative)
    and fails after ``MAX_POWER_ITER`` period maps.

    Returns:
        (rho, eigenfield, iterations, final relative ratio change).
    """
    prop = LinearPropagator(problem.domain, problem.d_I,
                            problem.potential(scale))
    phi = np.ones(problem.domain.shape)
    rho_prev = None
    residual = math.inf
    for iteration in range(1, MAX_POWER_ITER + 1):
        mapped = prop.advance(phi, 0.0, problem.omega, steps_per_period)
        rho = float(np.abs(mapped).max())
        if rho == 0.0 or not math.isfinite(rho):
            raise NumericsError("period map annihilated the field", rho=rho)
        phi = mapped / rho
        if rho_prev is not None:
            residual = abs(rho - rho_prev) / rho
            if residual <= RAYLEIGH_TOL:
                return rho, phi, iteration, residual
        rho_prev = rho
    raise NumericsError(
        "power iteration did not converge",
        last_ratios=(rho_prev, rho), residual=residual)


def principal_eigenvalue(problem: LinearizedProblem, scale: float = 1.0,
                         steps_per_period: int = DEFAULT_STEPS_PER_PERIOD
                         ) -> SpectralResult:
    """lambda0 = -ln(rho)/omega with a strictly positive eigenfield."""
    rho, phi, iterations, residual = monodromy_radius(
        problem, scale, steps_per_period)
    if phi.min() <= 0:
        raise NumericsError("eigenfield lost positivity", min_value=phi.min())
    lam = -math.log(rho) / problem.omega
    return SpectralResult(lambda0=lam, rho=rho, r0=None,
                          iterations=iterations, residual=residual,
                          omega=problem.omega)


def _bisect_r0(problem: LinearizedProblem, lam_mid: float) -> float:
    """Root of scale -> lambda0(scale); the eigenvalue grows with scale.

    ``lam_mid`` is lambda0 at scale 1, which the caller already holds.
    """
    lam = lambda s: principal_eigenvalue(problem, s).lambda0

    lo = hi = 1.0
    if lam_mid < 0:
        while lam_mid < 0:
            hi *= 2.0
            if hi > 2.0**60:
                raise NumericsError("reproduction-number bracket not found",
                                    bracket=(lo, hi))
            lam_mid = lam(hi)
        lo = hi / 2.0
    elif lam_mid > 0:
        while lam_mid > 0:
            lo /= 2.0
            if lo < 2.0**-60:
                raise NumericsError("reproduction-number bracket not found",
                                    bracket=(lo, hi))
            lam_mid = lam(lo)
        hi = lo * 2.0
    else:
        return 1.0

    while hi - lo > R0_BISECT_TOL:
        mid = 0.5 * (lo + hi)
        if lam(mid) < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def r0(problem: LinearizedProblem) -> SpectralResult:
    """Basic reproduction number together with the principal eigenvalue.

    Undefined (returned as None) when the recovery rate vanishes
    identically, since the generation operator then has no decay to sum
    against. For constant coefficients the closed form is returned and
    the bisection value is kept alongside as an independent check.
    """
    base = principal_eigenvalue(problem, 1.0)
    if problem.gamma.upper <= 0:
        return base

    if problem.is_autonomous:
        x = problem.domain.x_coordinate()
        beta0 = float(np.asarray(problem.beta(x, 0.0)).ravel()[0])
        gamma0 = float(np.asarray(problem.gamma(x, 0.0)).ravel()[0])
        spatially_flat = (
            float(np.ptp(np.asarray(problem.beta(x, 0.0)))) == 0.0
            and float(np.ptp(np.asarray(problem.gamma(x, 0.0)))) == 0.0)
        if spatially_flat and gamma0 > 0:
            closed = beta0 * problem.mean_density**problem.q / gamma0
            check = _bisect_r0(problem, base.lambda0)
            if abs(check - closed) > R0_CROSS_CHECK_TOL * max(1.0, closed):
                raise NumericsError(
                    "closed-form and bisection reproduction numbers disagree",
                    closed_form=closed, bisection=check)
            return SpectralResult(
                lambda0=base.lambda0, rho=base.rho, r0=closed,
                iterations=base.iterations, residual=base.residual,
                omega=problem.omega, r0_cross_check=check)

    value = _bisect_r0(problem, base.lambda0)
    return SpectralResult(
        lambda0=base.lambda0, rho=base.rho, r0=value,
        iterations=base.iterations, residual=base.residual,
        omega=problem.omega)
