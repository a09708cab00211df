"""Principal eigenvalue of the time-periodic linearization and the
basic reproduction number.

Under the threshold theory (power incidence S^q I^p, mu = 0, p = 1; a
model failing ``theory_gaps`` is refused) the linearization of the
infected equation at the disease-free state with mean density N/|domain| is

    phi_t = d_I * Lap(phi) + [beta(x,t) * (N/|domain|)^q - gamma(x,t)] * phi.

Power iteration on its entrywise positive one-period flow map M encloses
the spectral radius rho by the Collatz-Wielandt bounds min(M phi/phi) <=
rho <= max(M phi/phi); lambda0 = -ln(rho)/omega has the sign of 1 - R0.
R0 is the scaling mu_hat that makes lambda0 of the potential
beta*(N/|domain|)^q/mu_hat - gamma vanish, found in u = 1/mu_hat, in
which the potential is linear: a Newton step whose slope comes from the
scale-1 eigenfield, secant steps to a bracket, and Anderson-Bjorck
regula falsi to close it. ``r0`` decides once, from the midpoint
samples, which path the discrete map takes. It gives R0 in closed form
when no coefficient varies in space (a ratio of means) or each of beta
and gamma is one row or constant in space, time-constant or separable
(the root in u of one symmetric tridiagonal eigenvalue of the time-mean
potential), and one power iteration at scale 1 checks it. Any other
potential is root-found by power iteration. Its evaluation at scale 1
and the next start from the eigenvector of the same tridiagonal; each
later one starts from the eigenfields of the last two extrapolated in u.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .errors import ConfigError, DomainError, NumericsError
from .grid import Domain, _stiffness_banded
from .model import ModelSpec
from .solver import LinearPropagator

CW_REL_TOL = 1e-11
# Power iteration gains the ratio of the map's two leading eigenvalues
# per map, about exp(-pi^2 d_I omega / L^2) when the potential is nearly
# flat: at d_I*omega/L^2 = 0.01 that is exp(-0.099), and reaching
# CW_REL_TOL from the constant field takes up to about 220 maps.
MAX_POWER_ITER = 400
DEFAULT_STEPS_PER_PERIOD = 512
R0_REL_TOL = 1e-12
R0_CROSS_CHECK_TOL = 1e-8
# Its lambda0 and the power iteration's each round by about eps*|I + c*A|
# per step, so the two need only agree to _ROUNDING times that over a
# period: over 1,500 random time-constant problems (n 8-128, d_I 1e-3 to
# 1e3) the largest miss of the enclosure was 0.36 of it, 1.9e-13 absolute.
_ROUNDING = 4.0
# While the R0 root-find seeks a bracket, each secant step in u goes
# this fraction of itself past the secant root. ln(rho) is convex in u,
# so from the side where lambda0 < 0 an exact secant root falls short of
# R0, and stepping only onto it would close in from one side.
_PUSH_PAST = 0.01


def theory_gaps(model: ModelSpec) -> list[str]:
    """Conditions of the threshold theory that ``model`` fails."""
    p, kind = model.exponents.p, model.incidence.variant
    return [gap for gap, fails in (("mu > 0", model.has_mortality),
                                   (f"p = {p:g} != 1", p != 1.0),
                                   (f"incidence = {kind}", kind != "power")) if fails]


@dataclass(frozen=True)
class LinearizedProblem:
    """A model linearized at the flat disease-free state of the given mean
    density, over the model's period (1 for an autonomous model).

    The period map acts on the x axis of ``domain`` (``x_domain``), where
    the propagator, the coefficient samples and the growth tables live.
    Every coefficient varies along x only, so on a rectangle the Perron
    eigenfield is constant in y, the y-solves act on it as the identity,
    and the 2D map has the Perron root of the x-axis map. A coefficient
    that varied in y would have to skip this reduction. ``mean_density``
    comes from the whole domain.
    """

    model: ModelSpec
    domain: Domain
    mean_density: float
    # Coefficient samples per steps_per_period, filled on first use.
    _samples: dict = field(default_factory=dict, init=False, repr=False,
                           compare=False)

    def __post_init__(self):
        if gaps := theory_gaps(self.model):
            raise ConfigError("R0 needs mu = 0, p = 1 and the power incidence; "
                              f"this model has {', '.join(gaps)}")
        if not self.mean_density > 0:  # NaN fails it too
            raise ConfigError(
                f"mean density must be positive, got {self.mean_density}")

    @cached_property
    def omega(self) -> float:
        return self.model.period or 1.0

    @cached_property
    def x_domain(self) -> Domain:
        """The x axis of ``domain``: the interval itself in 1D."""
        return Domain(self.domain.lengths[:1], self.domain.cells[:1])

    @cached_property
    def propagator(self) -> LinearPropagator:
        """The problem's propagator, built on first use: every period map
        of every scale reuses its factor of (I + c*A)."""
        return LinearPropagator(self.x_domain, self.model.d_I)

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
                self.model.beta.sample(self.x_domain, times),
                self.model.gamma.sample(self.x_domain, times))
        return samples

    def growth_factors(self, scale: float, steps_per_period: int) -> np.ndarray:
        """exp(dt * a(x, t_k)) of every step of one period, with the
        potential a = beta*(mean density)^q/scale - gamma.

        Shape (steps_per_period, nx), or one row when the problem is
        autonomous; built in place from the coefficient samples.
        """
        beta, gamma = self.coefficient_samples(steps_per_period)
        dt = self.omega / steps_per_period
        factor = self.mean_density**self.model.exponents.q / scale
        growth = np.empty((max(len(beta), len(gamma)), *self.x_domain.shape))
        np.multiply(beta, factor, out=growth)
        np.subtract(growth, gamma, out=growth)
        np.multiply(dt, growth, out=growth)
        return np.exp(growth, out=growth)


@dataclass(frozen=True)
class SpectralResult:
    """lambda0 and R0 of the periodic linearization, and the work behind them."""

    lambda0: float
    r0: float | None
    iterations: int
    # Collatz-Wielandt enclosure of lambda0 at scale 1.
    lambda0_lo: float
    lambda0_hi: float
    # One-period propagations and lambda0 evaluations behind this result.
    period_maps: int
    r0_evals: int
    # A flat potential's Newton point 1/(1 + lambda0/slope) from the
    # scale-1 evaluation, which its closed-form R0 must match; None for
    # every other potential.
    r0_cross_check: float | None = None
    # Positive eigenfield (sup norm 1) on the x axis, shape (nx,); in 2D
    # the eigenfield is this profile along every y. The next solve's warm
    # start.
    eigenfield: np.ndarray | None = field(default=None, repr=False,
                                          compare=False)


def monodromy_radius(problem: LinearizedProblem, scale: float = 1.0,
                     steps_per_period: int = DEFAULT_STEPS_PER_PERIOD,
                     start: np.ndarray | None = None, sign_only: bool = False
                     ) -> tuple[float, np.ndarray, int, float]:
    """Spectral radius of the one-period flow map by power iteration.

    Iteration starts from ``start`` (default: the constant field; any
    positive field on ``problem.x_domain`` will do) and renormalizes in
    the sup norm. A period map phi -> M phi encloses rho in [lo, hi] =
    [min, max] of M phi / phi; iteration stops once ln(hi/lo) <=
    ``CW_REL_TOL`` or, with ``sign_only``, once [lo, hi] excludes 1, and
    fails after ``MAX_POWER_ITER`` period maps.

    Returns:
        (sqrt(lo * hi), eigenfield, iterations, ln(hi/lo)).

    Raises:
        DomainError: ``steps_per_period`` is not a positive integer,
            ``scale`` is not finite and positive, or ``start`` does not
            have the shape of ``problem.x_domain`` or has an entry that
            is not finite and positive.
    """
    if not (isinstance(steps_per_period, (int, np.integer))
            and steps_per_period >= 1):
        raise DomainError(f"steps_per_period must be a positive integer, "
                          f"got {steps_per_period!r}")
    if not 0 < scale < math.inf:
        raise DomainError(f"scale must be finite and positive, got {scale!r}")
    shape = problem.x_domain.shape
    if start is not None:
        if np.shape(start) != shape:
            raise DomainError(f"start has shape {np.shape(start)}, the x axis {shape}")
        bad = np.flatnonzero(~(np.greater(start, 0.0) & np.isfinite(start)))
        if bad.size:
            raise DomainError(f"start must be finite and positive, got "
                              f"{float(start[bad[0]])!r} at index {bad[0]}")
    growth = problem.growth_factors(scale, steps_per_period)
    phi = np.ones(shape) if start is None else start
    for iteration in range(1, MAX_POWER_ITER + 1):
        mapped = problem.propagator.advance(phi, growth, problem.omega,
                                            steps_per_period)
        with np.errstate(all="ignore"):  # a NaN or inf ratio fails below
            ratios = mapped / phi
        lo, hi = float(ratios.min()), float(ratios.max())
        if not 0.0 < lo <= hi < math.inf:
            raise NumericsError("period map lost positivity", bracket=(lo, hi))
        phi = mapped / float(mapped.max())
        width = math.log(hi / lo)
        if width <= CW_REL_TOL or (sign_only and (lo > 1.0 or hi < 1.0)):
            return math.sqrt(lo * hi), phi, iteration, width
    raise NumericsError(
        f"power iteration did not converge at scale {scale:.10g}: after "
        f"{MAX_POWER_ITER} period maps the enclosure of ln(rho) is {width:.3g} "
        f"wide, not CW_REL_TOL = {CW_REL_TOL:g}", bracket=(lo, hi), residual=width)


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
    return SpectralResult(lambda0=lam, r0=None, iterations=iterations,
                          lambda0_lo=lam - half, lambda0_hi=lam + half,
                          period_maps=iterations, r0_evals=1, eigenfield=phi)


def _mean_is_exact(beta: np.ndarray, gamma: np.ndarray) -> bool:
    """Whether ``_time_mean``'s tridiagonal is exact for the potential
    sampled by ``beta`` and ``gamma``: each keeps one row or is constant
    in space, so every step's growth is one row times a factor of its
    time alone, and the period map is the time-mean map's power."""
    return all(len(t) == 1 or not (t != t[:, :1]).any() for t in (beta, gamma))


def _slope(problem: LinearizedProblem, phi: np.ndarray) -> float:
    """-d lambda0/du at u = 1 from the scale-1 eigenfield ``phi``:
    <w, b>/<w, 1> with b = beta*(mean density)^q.

    Where ``_mean_is_exact``, w = g*phi^2 with g the first step's growth
    row, and the slope is exact: I + c*A is symmetric, so the step map
    (I + c*A)^-1 G has the left Perron vector G*phi, and every step's G
    is g times a scalar. Otherwise w = phi^2 and b is the mean of beta's
    rows, a first-order estimate.
    """
    beta, gamma = problem.coefficient_samples(DEFAULT_STEPS_PER_PERIOD)
    density = problem.mean_density**problem.model.exponents.q
    weight = phi**2
    if _mean_is_exact(beta, gamma):
        dt = problem.omega / DEFAULT_STEPS_PER_PERIOD
        weight *= np.exp(dt * (beta[0] * density - gamma[0]))
    return density * float(weight @ beta.mean(axis=0)) / float(weight.sum())


def _root_in_u(lam, f1: float, root: bool, slope: float, tol: float) -> float:
    """Root of ``lam``, a function of u that falls as u grows, as a scale
    1/u; ``f1`` is its value at u = 1, ``root`` whether that value is
    already a root, and ``slope`` -d lam/du there. ``lam(u)`` returns the
    value at u and whether u is a root.

    The first point is the Newton point 1 + f1/slope. While the points
    keep the sign of f1, the next is the secant root in u of the last
    two, ``_PUSH_PAST`` of its step further on, but at most halfway to
    the doubling or halving of u: a sign-only lambda0 may be off by
    nearly its own size, and a secant through it by as much. u is doubled
    or halved instead when the slope is not finite and positive, the
    Newton point is not on the root's side of 1, or the last two points
    do not fall toward 0. The bracket is closed by the Anderson-Bjorck
    variant of regula falsi in u, down to a width of ``tol`` relative; a
    point within ``tol``/2 of a bracket end moves to ``tol``/2 from it,
    toward the other end (Brent's nudge), so no u is evaluated twice.
    """
    a = b = 1.0
    fa = fb = f1
    grow = fb > 0  # the root lies at a larger u
    step = 2.0 if grow else 0.5
    guess = 1.0 + fb / slope if 0 < slope < math.inf else math.nan
    while not root and (fb > 0) == grow:
        if a != b:  # past the Newton point
            guess = step * b
            if abs(fb) < abs(fa):  # then the secant root lies beyond b
                secant = b - (1.0 + _PUSH_PAST) * fb * (b - a) / (fb - fa)
                halfway = 0.5 * (1.0 + step) * b
                guess = min(secant, halfway) if grow else max(secant, halfway)
        if not (b < guess < 2.0**60 if grow else 2.0**-60 < guess < b):
            guess = step * b
        a, fa, b = b, fb, guess
        if not 2.0**-60 <= b <= 2.0**60:
            raise NumericsError("reproduction-number bracket not found",
                                bracket=(1.0 / a, 1.0 / b))
        fb, root = lam(b)
    # fa and fb have opposite signs; b is the latest point. When a
    # survives a step, fa is scaled by 1 - fc/fb, or halved where that is
    # not positive.
    while not root and abs(b - a) > tol * max(a, b):
        lo, hi = min(a, b), max(a, b)
        c = min(max((a * fb - b * fa) / (fb - fa), lo + 0.5 * tol * hi),
                hi - 0.5 * tol * hi)
        fc, root = lam(c)
        if (fc > 0) != (fb > 0):
            a, fa = b, fb
        else:
            m = 1.0 - fc / fb
            fa *= m if m > 0 else 0.5
        b, fb = c, fc
    return 1.0 / b if root else 0.5 * (1.0 / a + 1.0 / b)


def _find_r0(problem: LinearizedProblem, base: SpectralResult, lowest
             ) -> tuple[float, list[SpectralResult]]:
    """Root of u -> lambda0 at scale 1/u by power iteration, taken in u,
    in which the potential is linear and ln(rho) convex; lambda0 falls as
    u grows. ``base``, the evaluation at u = 1, gives the Newton slope
    (``_slope``), and ``_root_in_u`` finds the root.

    Each evaluation stops once the sign of lambda0 is certain. The first
    after ``base`` starts from ``lowest`` (``_time_mean``'s) G^-1/2 v at
    its own u, each later one from the last two eigenfields extrapolated
    linearly in u to its own u; where that field is not positive, from
    the last eigenfield. A u whose converged enclosure of lambda0 holds 0
    is a root. Returns the root as a scale and every evaluation, ``base``
    first.
    """
    evaluations, us = [base], [1.0]

    def lam(u):
        start = evaluations[-1].eigenfield
        if len(us) == 1:
            guess = _positive(lowest(u, True)[1])
        else:
            guess = start + (u - us[-1]) / (us[-1] - us[-2]) * (
                start - evaluations[-2].eigenfield)
            peak = guess.max()
            guess = _positive(guess / peak) if 0.0 < peak < math.inf else None
        if guess is not None:
            start = guess
        e = principal_eigenvalue(problem, 1.0 / u, start=start, sign_only=True)
        evaluations.append(e)
        us.append(u)
        return e.lambda0, e.lambda0_lo <= 0.0 <= e.lambda0_hi

    root = _root_in_u(lam, base.lambda0, base.lambda0_lo <= 0.0 <= base.lambda0_hi,
                      _slope(problem, base.eigenfield), R0_REL_TOL)
    return root, evaluations


def _time_mean(problem: LinearizedProblem):
    """(lowest, norm >= |I + c*A|_1) of the symmetric tridiagonal G^-1/2
    (I + c*A) G^-1/2, G = diag(exp(dt*a)), for the time-mean potential a
    = mean_t(beta)*(mean density)^q*u - mean_t(gamma) over the midpoint
    samples. ``lowest(u, vector)`` is lambda_min at scale 1/u and, with
    ``vector``, G^-1/2 v in sup norm 1 (v its eigenvector), else None.
    Where ``_mean_is_exact`` the period map is the time-mean map's
    power, so rho(B^steps) = lambda_min^-steps; for any other potential
    G^-1/2 v starts power iteration near the eigenfield.
    """
    from scipy.linalg import eigh_tridiagonal

    steps = DEFAULT_STEPS_PER_PERIOD
    beta, gamma = problem.coefficient_samples(steps)
    b = beta.mean(axis=0) * problem.mean_density**problem.model.exponents.q
    g = gamma.mean(axis=0)
    dt = problem.omega / steps
    # I + c*A in upper banded form, the matrix each diffusion step factors
    ab = dt * problem.model.d_I * _stiffness_banded(problem.x_domain.cells[0],
                                                    problem.x_domain.spacing[0])
    ab[1] += 1.0

    def lowest(u, vector):
        s = np.exp(-0.5 * dt * (b * u - g))
        low = eigh_tridiagonal(ab[1] * s * s, ab[0, 1:] * s[:-1] * s[1:],
                               eigvals_only=not vector, select="i",
                               select_range=(0, 0), tol=np.finfo(float).tiny)
        if not vector:
            return low[0], None
        ([low], v) = low
        start = s * np.abs(v[:, 0])
        return low, start / start.max()

    return lowest, np.abs(ab[1]).max() + 2.0 * np.abs(ab[0]).max()


def _positive(start: np.ndarray) -> np.ndarray | None:
    """``start`` if it can start power iteration (every entry positive):
    G^-1/2 v underflows at very slow diffusion, extrapolation can dip."""
    return start if start.min() > 0.0 else None


def r0(problem: LinearizedProblem) -> SpectralResult:
    """Basic reproduction number together with the principal eigenvalue.

    Undefined (returned as None) when the recovery rate vanishes
    identically, since the generation operator then has no decay to sum
    against; 0 when the transmission rate does, since no scale then moves
    lambda0 and no root exists. Otherwise the midpoint samples choose one
    of three paths, each with one power iteration at scale 1:

    - flat (no sample varies in space): the constant field is an
      eigenfield of every step, so R0 = mean(beta)*(mean
      density)^q/mean(gamma); it must match that evaluation's Newton
      point (``r0_cross_check``) to ``R0_CROSS_CHECK_TOL``.
    - ``_mean_is_exact``: a step (I + c*A)^-1 G is similar to G^1/2 (I +
      c*A)^-1 G^1/2, so rho = lambda_min^-steps for ``_time_mean``'s
      tridiagonal, which LAPACK bisects to full precision. Its lambda0 =
      steps*ln(lambda_min)/omega, widened by ``_ROUNDING * steps * eps *
      |I + c*A|_1 / omega``, must meet the enclosure; R0 is its root in u.
    - any other potential: ``_find_r0``.

    The counters sum over every power iteration.
    """
    model = problem.model
    if model.gamma.upper <= 0 or model.beta.upper <= 0:
        base = principal_eigenvalue(problem, 1.0)
        return base if model.gamma.upper <= 0 else replace(base, r0=0.0)
    steps = DEFAULT_STEPS_PER_PERIOD
    beta, gamma = problem.coefficient_samples(steps)
    if not ((beta != beta[:, :1]).any() or (gamma != gamma[:, :1]).any()):
        density = problem.mean_density**model.exponents.q
        root = float(beta[:, :1].mean() * density / gamma[:, :1].mean())
        base = principal_eigenvalue(problem, 1.0)
        newton = 1.0 / (1.0 + base.lambda0 / _slope(problem, base.eigenfield))
        if abs(newton - root) > R0_CROSS_CHECK_TOL * max(1.0, root):
            raise NumericsError("closed-form R0 and the Newton point of the "
                                "scale-1 evaluation disagree",
                                closed_form=root, newton_point=newton)
        return replace(base, r0=root, r0_cross_check=newton)
    lowest, norm = _time_mean(problem)
    low, start = lowest(1.0, True)
    base = principal_eigenvalue(problem, 1.0, start=_positive(start))
    if not _mean_is_exact(beta, gamma):
        root, evaluations = _find_r0(problem, base, lowest)
        return replace(base, r0=root, r0_evals=len(evaluations),
                       period_maps=sum(e.period_maps for e in evaluations))
    lambda0 = steps * math.log(low) / problem.omega
    rounding = _ROUNDING * steps * math.ulp(1.0) * norm / problem.omega
    if not (lambda0 - rounding <= base.lambda0_hi
            and base.lambda0_lo <= lambda0 + rounding):
        raise NumericsError("closed-form lambda0 lies outside the power "
                            "iteration's enclosure",
                            closed_form=(lambda0 - rounding, lambda0 + rounding),
                            bracket=(base.lambda0_lo, base.lambda0_hi))

    def lam(u):
        f = steps * math.log(lowest(u, False)[0]) / problem.omega
        return f, f == 0.0

    # lambda_min is bisected to full precision: close the bracket to ulps
    root = _root_in_u(lam, lambda0, lambda0 == 0.0, _slope(problem, start),
                      4 * math.ulp(1.0))
    return replace(base, r0=root)
