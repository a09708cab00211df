import math

import numpy as np
import pytest

from sqip.grid import DiffusionSolver, Domain
from sqip.model import CoefficientField
from sqip.presets import preset_config
from sqip.runner import compute_spectral
from sqip.spectral import (CW_REL_TOL, DEFAULT_STEPS_PER_PERIOD,
                           MAX_POWER_ITER, LinearizedProblem, monodromy_radius,
                           principal_eigenvalue, r0)


def potential(problem, scale=1.0):
    """Callable a(x,t) = beta*(mean density)^q/scale - gamma."""
    factor = problem.mean_density**problem.q / scale

    def a(x, t):
        return problem.beta(x, t) * factor - problem.gamma(x, t)

    return a


def make_problem(beta, gamma, q=1.0, density=1.0, omega=1.0, n=64, d_I=1.0):
    return LinearizedProblem(
        d_I=d_I, beta=beta, gamma=gamma, q=q, mean_density=density,
        omega=omega, domain=Domain((1.0,), (n,)))


def test_monodromy_constant_potential():
    # a(x,t) = beta - gamma constant: the period map scales by e^(a0 w)
    for beta, gamma in ((0.5, 2.0), (1.3, 1.0), (3.0, 1.0)):
        a0 = beta - gamma
        prob = make_problem(CoefficientField.constant(beta),
                            CoefficientField.constant(gamma))
        rho, phi, iters, res = monodromy_radius(prob)
        assert rho == pytest.approx(math.exp(a0), rel=1e-6)
        assert phi.min() > 0


def test_monodromy_cosine_averages_out():
    # a(t) = a0 + c cos(2 pi t / w): the scalar flow integrates to e^(a0 w)
    a0, c = 0.7, 0.5
    beta = CoefficientField.cosine_modulated(a0 + 1.0,
                                             time_amp=c / (a0 + 1.0),
                                             period=1.0)
    prob = make_problem(beta, CoefficientField.constant(1.0))
    rho, _, _, _ = monodromy_radius(prob)
    assert rho == pytest.approx(math.exp(a0), rel=1e-5)


def test_monodromy_zero_potential_identity():
    prob = make_problem(CoefficientField.constant(1.0),
                        CoefficientField.constant(1.0))
    rho, _, _, _ = monodromy_radius(prob)
    assert rho == pytest.approx(1.0, abs=1e-12)


def test_principal_eigenvalue_constant():
    # beta=2, gamma=1, q=1, density 1: lambda0 = gamma - beta = -1
    prob = make_problem(CoefficientField.constant(2.0),
                        CoefficientField.constant(1.0))
    res = principal_eigenvalue(prob)
    assert res.lambda0 == pytest.approx(-1.0, abs=1e-6)
    assert res.lambda0 == pytest.approx(-math.log(res.rho) / prob.omega,
                                        abs=1e-12)


def test_principal_eigenvalue_balanced():
    prob = make_problem(CoefficientField.constant(1.3),
                        CoefficientField.constant(1.3), q=0.7)
    res = principal_eigenvalue(prob)
    assert abs(res.lambda0) <= 1e-8


def test_principal_eigenvalue_time_averaged():
    beta = CoefficientField.cosine_modulated(1.0, time_amp=0.5, period=1.0)
    prob = make_problem(beta, CoefficientField.constant(1.0))
    res = principal_eigenvalue(prob)
    assert abs(res.lambda0) <= 1e-5


def test_r0_autonomous_closed_form():
    prob = make_problem(CoefficientField.constant(2.0),
                        CoefficientField.constant(1.0))
    res = r0(prob)
    assert res.r0 == 2.0  # closed form, exact
    assert res.r0_cross_check == pytest.approx(2.0, abs=1e-8)


def test_r0_threshold_symmetry():
    prob = make_problem(CoefficientField.constant(1.7),
                        CoefficientField.constant(1.7))
    res = r0(prob)
    assert res.r0 == pytest.approx(1.0, abs=1e-12)


def test_r0_periodic_averages_to_threshold():
    beta = CoefficientField.cosine_modulated(1.0, time_amp=0.5, period=1.0)
    prob = make_problem(beta, CoefficientField.constant(1.0))
    res = r0(prob)
    assert res.r0 == pytest.approx(1.0, abs=1e-4)
    assert abs(res.lambda0) <= 1e-5


@pytest.mark.parametrize("beta", [
    CoefficientField.constant(2.0),
    CoefficientField.cosine_modulated(1.0, time_amp=0.5, period=1.0),
], ids=["closed-form", "bisection"])
def test_r0_evaluates_unit_scale_once(monkeypatch, beta):
    from sqip import spectral

    scales = []
    original = spectral.principal_eigenvalue

    def counting(problem, scale=1.0, *args, **kwargs):
        scales.append(scale)
        return original(problem, scale, *args, **kwargs)

    monkeypatch.setattr(spectral, "principal_eigenvalue", counting)
    prob = make_problem(beta, CoefficientField.constant(1.0), n=16)
    r0(prob)
    assert scales.count(1.0) == 1
    assert len(scales) > 1


def test_r0_undefined_without_recovery():
    prob = make_problem(CoefficientField.constant(2.0),
                        CoefficientField.constant(0.0))
    res = r0(prob)
    assert res.r0 is None
    assert res.lambda0 == pytest.approx(-2.0, abs=1e-6)


def test_sign_relation_across_regimes():
    # (1 - R0) and lambda0 always share their sign
    cases = [
        (CoefficientField.constant(2.0), CoefficientField.constant(1.0)),
        (CoefficientField.constant(0.5), CoefficientField.constant(1.0)),
        (CoefficientField.cosine_modulated(2.0, time_amp=0.5, period=1.0),
         CoefficientField.constant(1.0)),
        (CoefficientField.cosine_modulated(0.6, time_amp=0.3, period=1.0),
         CoefficientField.constant(1.1)),
    ]
    for beta, gamma in cases:
        res = r0(make_problem(beta, gamma))
        assert (1.0 - res.r0) * res.lambda0 >= -1e-8


def test_spatial_heterogeneity_helps_growth():
    # a spatially varying potential with zero mean supports positive
    # growth: rho > 1, and the eigenfield stays positive
    beta = CoefficientField.cosine_modulated(2.0, space_amp=0.5, length=1.0)
    prob = make_problem(beta, CoefficientField.constant(2.0), n=128)
    rho, phi, iters, _ = monodromy_radius(prob)
    assert rho > 1.0
    assert phi.min() > 0
    assert iters > 2  # genuinely iterating on a nonconstant field


def test_refinement_consistency():
    # halving both resolutions changes lambda0 consistently (the coarse
    # gap dominates the fine one)
    beta = CoefficientField.cosine_modulated(2.0, space_amp=0.4, length=1.0)
    gamma = CoefficientField.constant(1.5)

    def lam(n, steps):
        prob = make_problem(beta, gamma, n=n)
        return principal_eigenvalue(prob, steps_per_period=steps).lambda0

    l1, l2, l3 = lam(32, 128), lam(64, 256), lam(128, 512)
    assert abs(l1 - l2) <= 4.0 * abs(l2 - l3) + 1e-10


def test_potential_bound_holds():
    prob = make_problem(CoefficientField.constant(2.0),
                        CoefficientField.constant(1.0), q=2.0, density=1.5)
    a = potential(prob)
    x = np.linspace(0, 1, 33)
    vals = np.abs(np.asarray(a(x, 0.0)))
    bound = prob.beta.upper * prob.mean_density**prob.q + prob.gamma.upper
    assert vals.max() <= bound + 1e-12


def test_power_iteration_matches_dense_floquet_spectrum():
    # assemble the one-period map and take its spectral radius with a
    # dense eigensolver: power iteration must reproduce it on a genuinely
    # space- and time-dependent potential
    beta = CoefficientField.cosine_modulated(
        2.0, time_amp=0.3, period=1.0, space_amp=0.5, length=1.0)
    gamma = CoefficientField.constant(1.5)
    prob = make_problem(beta, gamma, n=24)
    steps = 256
    rho_dense = perron_root(dense_period_map(prob, 1.0, steps))

    rho_power, phi, _, _ = monodromy_radius(prob, steps_per_period=steps)
    assert rho_power == pytest.approx(rho_dense, rel=1e-7)
    assert phi.min() > 0


def test_threshold_agreement_with_dynamics():
    # supercritical by a margin: classifier sees persistence (exercised at
    # full length by the acceptance suite); subcritical by a margin: the
    # infected tail keeps shrinking across successive windows
    from sqip.diagnostics import classify_longtime
    from sqip.solver import run

    sub = preset_config("thm-2.11-persist", {
        "model.beta": "0.8",  # R0 = 0.8 < 1 - 0.1
        "solver.t_end": "30.0", "solver.cadence": "0.1"})
    res = compute_spectral(sub)
    assert res.r0 < 0.9
    traj = run(sub)
    sup_I = traj.rows["sup_I"]
    windows = np.array_split(sup_I, 4)
    maxima = [w.max() for w in windows]
    assert all(maxima[i + 1] < maxima[i] for i in range(3))

    sup = preset_config("thm-2.11-persist", {"solver.t_end": "30.0"})
    res = compute_spectral(sup)
    assert res.r0 > 1.1
    out = classify_longtime(run(sup), sup.detect)
    assert out.label == "Persistent"


def test_preset_spectral_values():
    res = compute_spectral(preset_config("thm-2.11-persist"))
    assert res.lambda0 == pytest.approx(-1.0, abs=1e-6)
    assert res.r0 == pytest.approx(2.0, abs=1e-4)
    res = compute_spectral(preset_config("r0-threshold"))
    assert abs(res.lambda0) <= 1e-5
    assert res.r0 == pytest.approx(1.0, abs=1e-4)


@pytest.mark.parametrize("two_dim,overrides,expected", [
    (False, {}, 2.0794296452330667),
    (True, {"domain.n": "16 16"}, 2.079668506613069),
], ids=["1d", "2d"])
def test_time_constant_heterogeneous_problem_is_sampled_once(
        coeff_calls, two_dim, overrides, expected):
    # beta varies in space but not in time: one sample of beta and one of
    # gamma serve all 512 steps of every period map (513 evaluations when
    # beta was tabulated per step), and R0 keeps its bits
    cfg = preset_config("thm-2.11-persist",
                        {"model.beta_x_amp": "0.9", **overrides},
                        two_dim=two_dim)
    res = compute_spectral(cfg)
    assert len(coeff_calls) <= 2
    assert res.r0 == expected


def reference_monodromy(problem, scale=1.0,
                        steps_per_period=DEFAULT_STEPS_PER_PERIOD):
    """Power iteration with the potential sampled at every step of every
    period map (the loop that the coefficient tables replace), stopped on
    the width of its Collatz-Wielandt enclosure."""
    a = potential(problem, scale)
    x = problem.domain.x_coordinate()
    diffusion = DiffusionSolver(problem.domain)
    t0, duration, nsteps = 0.0, problem.omega, steps_per_period

    def period_map(phi):
        dt = duration / nsteps
        out = phi.copy()
        c = dt * problem.d_I
        for k in range(nsteps):
            tm = t0 + (k + 0.5) * dt
            a_k = np.broadcast_to(a(x, tm), problem.domain.shape)
            out = out * np.exp(dt * a_k)
            out = diffusion.solve(c, out)
        return out

    phi = np.ones(problem.domain.shape)
    for iteration in range(1, MAX_POWER_ITER + 1):
        mapped = period_map(phi)
        ratios = mapped / phi
        lo, hi = float(ratios.min()), float(ratios.max())
        phi = mapped / float(mapped.max())
        width = math.log(hi / lo)
        if width <= CW_REL_TOL:
            return math.sqrt(lo * hi), phi, iteration, width
    raise AssertionError("reference power iteration did not converge")


@pytest.mark.parametrize("omega, period", [("1.0", 1.0), ("0.5", 0.5)])
def test_from_model_takes_the_model_period(omega, period):
    cfg = preset_config("thm-2.11-periodic", {"model.omega": omega})
    problem = LinearizedProblem.from_model(cfg.model, cfg.domain, cfg.total_mass())
    assert problem.omega == period


def _heterogeneous_1d():
    cfg = preset_config("thm-2.11-periodic", {
        "model.beta_x_amp": "0.9", "model.dI": "1.0", "domain.n": "64"})
    return LinearizedProblem.from_model(cfg.model, cfg.domain, cfg.total_mass())


def _periodic_2d():
    beta = CoefficientField.cosine_modulated(
        2.0, time_amp=0.5, period=1.0, space_amp=0.6, length=1.0)
    return LinearizedProblem(
        d_I=0.5, beta=beta, gamma=CoefficientField.constant(1.5), q=1.0,
        mean_density=1.0, omega=1.0, domain=Domain((1.0, 1.0), (16, 16)))


def _tabulated_beta():
    x_nodes = np.linspace(0.0, 1.0, 9)[:, None]
    t_nodes = np.linspace(0.0, 1.0, 7)[None, :]
    table = 2.0 + np.cos(np.pi * x_nodes) * (0.5 + 0.4 * np.sin(2 * np.pi * t_nodes))
    beta = CoefficientField.tabulated(table, length=1.0, period=1.0)
    return make_problem(beta, CoefficientField.constant(1.2), n=48, d_I=0.3)


@pytest.mark.parametrize("build", [_heterogeneous_1d, _periodic_2d,
                                   _tabulated_beta],
                         ids=["heterogeneous-1d", "periodic-2d", "tabulated"])
@pytest.mark.parametrize("scale", [1.0, 0.37])
def test_tabulated_period_map_matches_per_step_loop(build, scale):
    prob = build()
    rho, phi, iterations, residual = monodromy_radius(prob, scale)
    ref_rho, ref_phi, ref_iterations, ref_residual = reference_monodromy(
        prob, scale)
    assert rho == ref_rho
    assert iterations == ref_iterations
    assert residual == ref_residual
    assert np.array_equal(phi, ref_phi)


def test_step_counts_keep_separate_tables():
    # one problem at three step counts gives what three fresh problems give
    beta = CoefficientField.cosine_modulated(
        2.0, time_amp=0.4, period=1.0, space_amp=0.4, length=1.0)
    gamma = CoefficientField.constant(1.5)
    shared = make_problem(beta, gamma, n=32)
    for steps in (128, 256, 128, 64):
        fresh = make_problem(beta, gamma, n=32)
        assert (monodromy_radius(shared, 1.0, steps)[0]
                == monodromy_radius(fresh, 1.0, steps)[0])


def test_coefficients_sampled_once_per_problem(monkeypatch):
    calls = 0
    original = CoefficientField.__call__

    def counting(self, x, t):
        nonlocal calls
        calls += 1
        return original(self, x, t)

    monkeypatch.setattr(CoefficientField, "__call__", counting)
    beta = CoefficientField.cosine_modulated(
        2.0, time_amp=0.5, period=1.0, space_amp=0.3, length=1.0)
    res = r0(make_problem(beta, CoefficientField.constant(1.0), n=16))
    assert res.r0_evals > 10
    assert calls <= 2 * DEFAULT_STEPS_PER_PERIOD + 8


@pytest.mark.parametrize("preset,overrides,counts", [
    ("thm-2.11-persist", {}, (6, 6)),
    ("r0-threshold", {}, (3, 3)),
    ("thm-2.11-periodic",
     {"model.beta_x_amp": "0.9", "model.dI": "1.0", "domain.n": "64"},
     (26, 16)),
], ids=["thm-2.11-persist", "r0-threshold", "het-periodic"])
def test_spectral_counters(preset, overrides, counts):
    res = compute_spectral(preset_config(preset, overrides or None))
    assert (res.period_maps, res.r0_evals) == counts
    assert res.stats_lines() == [f"period_maps={counts[0]}",
                                 f"r0_evals={counts[1]}",
                                 f"lambda0_lo={res.lambda0_lo:.17g}",
                                 f"lambda0_hi={res.lambda0_hi:.17g}"]
    assert res.lambda0_lo <= res.lambda0 <= res.lambda0_hi


def test_principal_eigenvalue_counts_one_evaluation():
    beta = CoefficientField.cosine_modulated(2.0, space_amp=0.5, length=1.0)
    res = principal_eigenvalue(make_problem(beta, CoefficientField.constant(2.0)))
    assert (res.period_maps, res.r0_evals) == (res.iterations, 1)


def test_propagator_rejects_a_table_for_another_step_count():
    from sqip.errors import ConfigError
    from sqip.solver import LinearPropagator

    beta = CoefficientField.cosine_modulated(2.0, time_amp=0.5, period=1.0)
    prob = make_problem(beta, CoefficientField.constant(1.0), n=8)
    prop = LinearPropagator(prob.domain, prob.d_I, prob.growth_factors(1.0, 4))
    prop.advance(np.ones(8), 1.0, 4)
    with pytest.raises(ConfigError, match="4 rows for 3 steps"):
        prop.advance(np.ones(8), 1.0, 3)


@pytest.mark.parametrize("field,value", [
    ("omega", math.nan), ("density", math.nan),
    ("d_I", math.nan), ("d_I", math.inf), ("d_I", 0.0)])
def test_linearized_problem_refuses_a_bad_input(field, value):
    # NaN passes a "<= 0" test, and scipy would later die untyped on it.
    from sqip.errors import ConfigError

    with pytest.raises(ConfigError):
        make_problem(CoefficientField.constant(2.0),
                     CoefficientField.constant(1.0), **{field: value})


# ------------------------------------------ dense period-map reference

def dense_period_map(problem, scale, steps=DEFAULT_STEPS_PER_PERIOD):
    """The 1D one-period map as a matrix: every identity column pushed
    through the steps of ``LinearPropagator.advance`` at once."""
    growth = problem.growth_factors(scale, steps)
    diffusion = DiffusionSolver(problem.domain)
    c = problem.omega / steps * problem.d_I
    m = np.eye(problem.domain.cells[0])
    for k in range(steps):
        m = diffusion.solve(c, growth[k % len(growth)][:, None] * m)
    return m


def perron_root(matrix):
    return float(np.abs(np.linalg.eigvals(matrix)).max())


def dense_r0(problem, lo, hi):
    """R0 of the dense map: Brent on the log of its Perron root."""
    from scipy.optimize import brentq

    return brentq(lambda s: math.log(perron_root(dense_period_map(problem, s))),
                  lo, hi, xtol=1e-14)


@pytest.mark.parametrize("build,expected", [
    (_heterogeneous_1d, 2.086103356558332),
    (_tabulated_beta, None),
], ids=["heterogeneous-1d", "tabulated"])
def test_r0_matches_dense_period_map(build, expected):
    prob = build()
    res = r0(prob)
    reference = dense_r0(prob, 1.0, 4.0)
    if expected is not None:
        assert reference == pytest.approx(expected, abs=1e-12)
    assert abs(res.r0 - reference) <= 1e-9
    # the Collatz-Wielandt enclosure at scale 1 holds the dense eigenvalue
    lam = -math.log(perron_root(dense_period_map(prob, 1.0))) / prob.omega
    assert res.lambda0_lo - 1e-13 <= lam <= res.lambda0_hi + 1e-13
    assert res.lambda0_hi - res.lambda0_lo <= CW_REL_TOL / prob.omega


def test_period_map_is_entrywise_positive():
    # the premise of the Collatz-Wielandt bounds
    assert dense_period_map(_tabulated_beta(), 1.0).min() > 0


def test_flat_periodic_r0_is_the_discrete_closed_form():
    beta = CoefficientField.cosine_modulated(1.7, time_amp=0.6, period=1.0)
    gamma = CoefficientField.cosine_modulated(0.9, time_amp=0.3, period=1.0)
    prob = make_problem(beta, gamma, q=0.8, density=1.3, n=16)
    res = r0(prob)
    b, g = prob.coefficient_samples(DEFAULT_STEPS_PER_PERIOD)
    closed = float(b[:, :1].mean() * 1.3**0.8 / g[:, :1].mean())
    assert res.r0 == closed
    assert res.r0_cross_check == pytest.approx(closed, rel=1e-8)


def test_flat_one_column_tables_give_the_exact_ratio():
    # one-column tables have no period, so each is a single sample and the
    # closed form is beta/gamma itself, not a mean over 512 equal rows
    beta = CoefficientField.tabulated(np.full((5, 1), 2.7), 1.0, None)
    gamma = CoefficientField.tabulated(np.full((5, 1), 0.7), 1.0, None)
    assert r0(make_problem(beta, gamma, n=32)).r0 == 2.7 / 0.7


def test_sign_only_stops_once_the_sign_is_certain():
    beta = CoefficientField.cosine_modulated(2.0, space_amp=0.5, length=1.0)
    prob = make_problem(beta, CoefficientField.constant(1.0), n=32, d_I=0.1)
    rho, _, iterations, width = monodromy_radius(prob)
    rho_s, _, iterations_s, width_s = monodromy_radius(prob, sign_only=True)
    assert width <= CW_REL_TOL < width_s
    assert iterations_s < iterations
    # the early enclosure lies wholly above 1 and still holds rho
    assert math.log(rho_s) - 0.5 * width_s > 0
    assert abs(math.log(rho / rho_s)) <= 0.5 * width_s


def test_warm_start_from_the_eigenfield_converges_at_once():
    beta = CoefficientField.cosine_modulated(2.0, space_amp=0.5, length=1.0)
    prob = make_problem(beta, CoefficientField.constant(1.0), n=32, d_I=0.1)
    rho, phi, iterations, _ = monodromy_radius(prob)
    warm_rho, _, warm_iterations, _ = monodromy_radius(prob, start=phi)
    assert iterations > 3
    assert warm_iterations == 1
    assert warm_rho == pytest.approx(rho, rel=1e-11)


def test_root_find_warm_starts_every_evaluation(monkeypatch):
    from sqip import spectral

    starts = []
    original = spectral.principal_eigenvalue

    def recording(problem, scale=1.0, *args, **kwargs):
        starts.append(kwargs.get("start"))
        return original(problem, scale, *args, **kwargs)

    monkeypatch.setattr(spectral, "principal_eigenvalue", recording)
    r0(_heterogeneous_1d())
    assert starts[0] is None
    assert all(s is not None and s.min() > 0 for s in starts[1:])
