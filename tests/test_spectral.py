import math
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sqip.errors import DomainError, NumericsError
from sqip.grid import DiffusionSolver, Domain
from sqip.model import CoefficientField, Incidence, ModelSpec
from sqip.presets import preset_config
from sqip.runner import compute_spectral
from sqip.spectral import (CW_REL_TOL, DEFAULT_STEPS_PER_PERIOD,
                           MAX_POWER_ITER, R0_REL_TOL, LinearizedProblem,
                           monodromy_radius, principal_eigenvalue, r0)

from conftest import summary_block


def potential(problem, scale=1.0):
    """Callable a(x,t) = beta*(mean density)^q/scale - gamma."""
    model = problem.model
    factor = problem.mean_density**model.exponents.q / scale

    def a(x, t):
        return model.beta(x, t) * factor - model.gamma(x, t)

    return a


def make_model(beta, gamma, q=1.0, d_I=1.0):
    return ModelSpec(beta=beta, gamma=gamma, mu=CoefficientField.constant(0.0),
                     d_S=1.0, d_I=d_I, incidence=Incidence("power", q=q))


def make_problem(beta, gamma, q=1.0, density=1.0, n=64, d_I=1.0):
    return LinearizedProblem(make_model(beta, gamma, q, d_I), Domain((1.0,), (n,)),
                             mean_density=density)


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
    rho = monodromy_radius(prob)[0]
    assert res.lambda0 == pytest.approx(-math.log(rho) / prob.omega, abs=1e-12)


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


@pytest.mark.parametrize("beta,root_find", [
    (CoefficientField.cosine_modulated(1.0, time_amp=0.5, period=1.0), False),
    (CoefficientField.cosine_modulated(1.0, time_amp=0.5, period=1.0,
                                       space_amp=0.3, length=1.0), True),
    (CoefficientField.cosine_modulated(2.0, space_amp=0.5, length=1.0), False),
], ids=["closed-form", "bisection", "time-constant"])
def test_r0_evaluates_unit_scale_once(monkeypatch, beta, root_find):
    # a flat or time-constant potential takes the closed form after the
    # scale-1 evaluation alone; a periodic one that varies in space is
    # root-found from it
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
    assert (len(scales) > 1) == root_find


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
    bound = (prob.model.beta.upper * prob.mean_density**prob.model.exponents.q
             + prob.model.gamma.upper)
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
    (False, {}, 2.0794296452318446),
    (True, {"domain.n": "16 16"}, 2.079668506612743),
], ids=["1d", "2d"])
def test_time_constant_heterogeneous_problem_is_sampled_once(
        coeff_calls, two_dim, overrides, expected):
    # beta varies in space but not in time: one sample of beta and one of
    # gamma serve every step (513 evaluations when beta was tabulated per
    # step), and R0 keeps its bits. The 2D value is that of its x axis,
    # the 1D n = 16 problem; the period map of the whole 16 x 16 grid gave
    # 2.079668506613069 under an earlier root-find. The power-iteration
    # root-find gave 2.079429645232951 (1D) and 2.0796685066128915 (2D).
    cfg = preset_config("thm-2.11-persist",
                        {"model.beta_x_amp": "0.9", **overrides},
                        two_dim=two_dim)
    res = compute_spectral(cfg)
    assert len(coeff_calls) <= 2
    assert res.r0 == expected
    assert abs(expected - tridiagonal_r0(spectral_problem(cfg))) <= 1e-12


@pytest.mark.parametrize("preset,overrides", [
    ("thm-2.11-persist", {}), ("thm-2.11-periodic", {}), ("r0-threshold", {}),
    ("thm-2.11-persist", {"model.beta_x_amp": "0.9"}),
    ("thm-2.11-periodic", {"model.beta_x_amp": "0.9", "model.dI": "1.0"})],
    ids=["thm-2.11-persist", "thm-2.11-periodic", "r0-threshold",
         "het-persist", "het-periodic"])
def test_a_2d_spectral_solve_is_its_x_axis_problem(preset, overrides):
    # every coefficient varies along x only, so the rectangle's period map
    # has the Perron root of the x axis's: the 2D result is the 1D one
    flat = compute_spectral(preset_config(
        preset, {**overrides, "domain.n": "16 16"}, two_dim=True))
    line = compute_spectral(preset_config(preset, {**overrides, "domain.n": "16"}))
    assert flat == line
    assert flat.eigenfield.shape == (16,)
    assert np.array_equal(flat.eigenfield, line.eigenfield)


def reference_monodromy(problem, scale=1.0,
                        steps_per_period=DEFAULT_STEPS_PER_PERIOD, domain=None):
    """Power iteration with the potential sampled at every step of every
    period map (the loop that the coefficient tables replace), stopped on
    the width of its Collatz-Wielandt enclosure. It runs on ``domain``,
    by default the problem's x axis, where ``monodromy_radius`` runs."""
    domain = domain or problem.x_domain
    a = potential(problem, scale)
    x = domain.x_coordinate()
    diffusion = DiffusionSolver(domain)
    t0, duration, nsteps = 0.0, problem.omega, steps_per_period

    def period_map(phi):
        dt = duration / nsteps
        out = phi.copy()
        c = dt * problem.model.d_I
        for k in range(nsteps):
            tm = t0 + (k + 0.5) * dt
            a_k = np.broadcast_to(a(x, tm), domain.shape)
            out = out * np.exp(dt * a_k)
            out = diffusion.solve(c, out)
        return out

    phi = np.ones(domain.shape)
    for iteration in range(1, MAX_POWER_ITER + 1):
        mapped = period_map(phi)
        ratios = mapped / phi
        lo, hi = float(ratios.min()), float(ratios.max())
        phi = mapped / float(mapped.max())
        width = math.log(hi / lo)
        if width <= CW_REL_TOL:
            return math.sqrt(lo * hi), phi, iteration, width
    raise AssertionError("reference power iteration did not converge")


def _preset_problem(name, overrides=None):
    cfg = preset_config(name, overrides)
    return LinearizedProblem(cfg.model, cfg.domain,
                             cfg.total_mass() / cfg.domain.measure)


@pytest.mark.parametrize("omega, period", [("1.0", 1.0), ("0.5", 0.5)])
def test_from_model_takes_the_model_period(omega, period):
    problem = _preset_problem("thm-2.11-periodic", {"model.omega": omega})
    assert problem.omega == period


def _heterogeneous_1d():
    return _preset_problem("thm-2.11-periodic", {
        "model.beta_x_amp": "0.9", "model.dI": "1.0", "domain.n": "64"})


def _periodic_2d():
    beta = CoefficientField.cosine_modulated(
        2.0, time_amp=0.5, period=1.0, space_amp=0.6, length=1.0)
    return LinearizedProblem(
        make_model(beta, CoefficientField.constant(1.5), d_I=0.5),
        Domain((1.0, 1.0), (16, 16)), mean_density=1.0)


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
    if len(prob.domain.cells) == 2:
        # the per-step loop on the whole rectangle: the same Perron root,
        # and an eigenfield that is the x profile along every y
        full_rho, full_phi, _, _ = reference_monodromy(prob, scale,
                                                       domain=prob.domain)
        assert full_rho == pytest.approx(rho, rel=1e-12)
        assert np.allclose(full_phi, phi[:, None], rtol=1e-9)


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
    # sampling once per evaluation would make at least 3 * 512 calls
    assert res.r0_evals >= 3
    assert calls <= 2 * DEFAULT_STEPS_PER_PERIOD + 8


@pytest.mark.parametrize("preset,overrides,counts", [
    ("thm-2.11-persist", {}, (1, 1)),
    ("r0-threshold", {}, (1, 1)),
    ("thm-2.11-periodic",
     {"model.beta_x_amp": "0.9", "model.dI": "1.0", "domain.n": "64"},
     (12, 9)),
], ids=["thm-2.11-persist", "r0-threshold", "het-periodic"])
def test_spectral_counters(preset, overrides, counts):
    res = compute_spectral(preset_config(preset, overrides or None))
    assert (res.period_maps, res.r0_evals) == counts
    assert summary_block("[stats]", spectral=res) == [
        f"period_maps={counts[0]}", f"r0_evals={counts[1]}",
        f"lambda0_lo={res.lambda0_lo:.17g}", f"lambda0_hi={res.lambda0_hi:.17g}"]
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
    prop = LinearPropagator(prob.domain, prob.model.d_I)
    growth = prob.growth_factors(1.0, 4)
    prop.advance(np.ones(8), growth, 1.0, 4)
    with pytest.raises(ConfigError, match="4 rows for 3 steps"):
        prop.advance(np.ones(8), growth, 1.0, 3)


def test_propagator_refuses_a_2d_domain():
    # a rectangle is propagated on its x axis (LinearizedProblem.x_domain)
    from sqip.errors import ConfigError
    from sqip.solver import LinearPropagator

    with pytest.raises(ConfigError, match="needs a 1D domain, got 2 axes"):
        LinearPropagator(Domain((1.0, 1.0), (8, 8)), 1.0)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n=st.integers(4, 96), nsteps=st.integers(1, 40),
       duration=st.floats(1e-3, 10.0), diffusivity=st.floats(1e-4, 1e3),
       one_row=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_advance_is_the_solve_loop_bit_for_bit(n, nsteps, duration, diffusivity,
                                               one_row, seed):
    from sqip.solver import LinearPropagator

    domain = Domain((1.0,), (n,))
    rng = np.random.default_rng(seed)
    growth = rng.uniform(0.1, 3.0, (1 if one_row else nsteps, n))
    phi = rng.uniform(0.1, 1.0, n)
    got = LinearPropagator(domain, diffusivity).advance(phi, growth, duration,
                                                        nsteps)
    c = duration / nsteps * diffusivity
    diffusion = DiffusionSolver(domain)
    want = phi
    for k in range(nsteps):
        want = diffusion.solve(c, want * growth[k % len(growth)])
    assert np.array_equal(got, want)
    assert got is not phi


@pytest.mark.parametrize("kwargs, message", [
    ({"steps_per_period": 0}, "steps_per_period must be a positive integer, got 0"),
    ({"steps_per_period": -3}, "steps_per_period must be a positive integer, got -3"),
    ({"steps_per_period": 512.0},
     "steps_per_period must be a positive integer, got 512.0"),
    ({"scale": 0.0}, "scale must be finite and positive, got 0.0"),
    ({"scale": -1.0}, "scale must be finite and positive, got -1.0"),
    ({"scale": math.nan}, "scale must be finite and positive, got nan"),
    ({"scale": math.inf}, "scale must be finite and positive, got inf"),
    ({"start": np.ones((8, 8))}, "start has shape (8, 8), the x axis (8,)"),
    ({"start": np.r_[np.ones(7), 0.0]},
     "start must be finite and positive, got 0.0 at index 7"),
    ({"start": np.r_[1.0, -1.0, np.ones(6)]},
     "start must be finite and positive, got -1.0 at index 1"),
    ({"start": np.r_[np.ones(3), math.nan, np.ones(4)]},
     "start must be finite and positive, got nan at index 3"),
    ({"start": np.r_[math.inf, np.ones(7)]},
     "start must be finite and positive, got inf at index 0")],
    ids=["zero-steps", "negative-steps", "float-steps", "zero-scale",
         "negative-scale", "nan-scale", "inf-scale", "2d-start", "zero-start",
         "negative-start", "nan-start", "inf-start"])
@pytest.mark.parametrize("entry", [monodromy_radius, principal_eigenvalue],
                         ids=["monodromy_radius", "principal_eigenvalue"])
def test_a_bad_step_count_scale_or_start_is_refused(entry, kwargs, message):
    # they raised ZeroDivisionError or a broadcast ValueError, or (a
    # negative scale) returned lambda0 of a meaningless potential; an
    # (8, 8) start was broadcast against the growth rows and solved as 8
    # right-hand sides; a start entry that is zero, negative or NaN
    # failed as "period map lost positivity", blaming the map
    prob = make_problem(CoefficientField.constant(2.0),
                        CoefficientField.constant(1.0), n=8)
    with pytest.raises(DomainError, match=re.escape(message) + "$"):
        entry(prob, **kwargs)


def test_a_map_that_loses_positivity_raises_without_a_numpy_warning():
    # at dI = 1e-7 the period map underflows to 0/0 in some cells, and
    # numpy warned "invalid value encountered in divide" before the error
    cfg = preset_config("thm-2.11-persist",
                        {"model.beta_x_amp": "0.9", "model.dI": "1e-7"})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericsError, match="^period map lost positivity$"):
            compute_spectral(cfg)


@pytest.mark.parametrize("diffusivity", [math.nan, math.inf, 0.0, -1.0])
def test_propagator_refuses_a_bad_diffusivity(diffusivity):
    from sqip.errors import ConfigError
    from sqip.solver import LinearPropagator

    with pytest.raises(ConfigError, match="need a finite, positive diffusivity"):
        LinearPropagator(Domain((1.0,), (8,)), diffusivity)


@pytest.mark.parametrize("cells, two_dim", [("64", False), ("16 16", True)],
                         ids=["1d", "2d"])
def test_one_spectral_solve_factors_each_axis_once(monkeypatch, cells, two_dim):
    # Every period map of every scale in the R0 root-find shares one
    # c = d_I * omega / steps, so the problem's one propagator factors
    # (I + c*A) once, in one call that factors every axis.
    calls = []
    original = DiffusionSolver._axis_factors

    def counted(self, c):
        calls.append(c)
        return original(self, c)

    monkeypatch.setattr(DiffusionSolver, "_axis_factors", counted)
    res = compute_spectral(preset_config("thm-2.11-periodic", {
        "model.beta_x_amp": "0.9", "model.dI": "1.0", "domain.n": cells},
        two_dim))
    assert res.r0_evals >= 3
    assert len(calls) == 1


@pytest.mark.parametrize("field,value", [
    ("density", math.nan),
    ("d_I", math.nan), ("d_I", math.inf), ("d_I", 0.0)])
def test_linearized_problem_refuses_a_bad_input(field, value):
    # NaN passes a "<= 0" test, and scipy would later die untyped on it.
    from sqip.errors import ConfigError

    with pytest.raises(ConfigError):
        make_problem(CoefficientField.constant(2.0),
                     CoefficientField.constant(1.0), **{field: value})


@pytest.mark.parametrize("mu, incidence, gaps", [
    (5.0, Incidence("power"), "mu > 0"),
    (0.0, Incidence("power", p=2.0), "p = 2 != 1"),
    (0.0, Incidence("binomial", k=0.25), "incidence = binomial"),
    (0.0, Incidence("saturated", ell=1.0), "incidence = saturated"),
    (0.0, Incidence("media", p=0.5), "p = 0.5 != 1, incidence = media"),
    (5.0, Incidence("saturated", p=2.0), "mu > 0, p = 2 != 1, incidence = saturated")],
    ids=["mu", "p", "binomial", "saturated", "media", "all-three"])
def test_linearized_problem_refuses_a_model_outside_the_theory(mu, incidence, gaps):
    # an R0 from such a model would ignore the term the theory cannot hold
    from sqip.errors import ConfigError

    model = ModelSpec(beta=CoefficientField.constant(2.0),
                      gamma=CoefficientField.constant(1.0),
                      mu=CoefficientField.constant(mu), d_S=1.0, d_I=1.0,
                      incidence=incidence)
    with pytest.raises(ConfigError, match=re.escape(f"this model has {gaps}") + "$"):
        LinearizedProblem(model, Domain((1.0,), (16,)), mean_density=1.0)


# ------------------------------------------ dense period-map reference

def dense_period_map(problem, scale, steps=DEFAULT_STEPS_PER_PERIOD):
    """The 1D one-period map as a matrix: every identity column pushed
    through the steps of ``LinearPropagator.advance`` at once."""
    growth = problem.growth_factors(scale, steps)
    diffusion = DiffusionSolver(problem.domain)
    c = problem.omega / steps * problem.model.d_I
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


def tridiagonal_r0(problem):
    """R0 of the time-mean potential on the x axis, without power
    iteration: the problem's own R0 when the potential is time-constant
    or separable.

    A step is B = (I + c*A)^-1 G with G = diag(exp(dt*a)), a the time
    mean of the potential over the midpoint samples, so the map B^512
    has rho = lambda_min(G^-1/2 (I + c*A) G^-1/2)^-512, the
    smallest eigenvalue of a symmetric tridiagonal matrix, which LAPACK
    bisects until its interval stops shrinking (to about eps times the
    matrix norm); Brent then finds the scale at which ln(rho) = 0.
    """
    from scipy.linalg import eigvalsh_tridiagonal
    from scipy.optimize import brentq

    steps = DEFAULT_STEPS_PER_PERIOD
    dt = problem.omega / steps
    beta, gamma = (table.mean(axis=0)
                   for table in problem.coefficient_samples(steps))
    (n,), (h,) = problem.x_domain.cells, problem.x_domain.spacing
    coupling = dt * problem.model.d_I / h**2
    stiffness = np.full(n, 2.0)
    stiffness[[0, -1]] = 1.0
    beta = beta * problem.mean_density**problem.model.exponents.q

    def log_rho(scale):
        inv_sqrt_g = np.exp(-0.5 * dt * (beta / scale - gamma))
        diagonal = (1.0 + coupling * stiffness) * inv_sqrt_g**2
        off = -coupling * inv_sqrt_g[:-1] * inv_sqrt_g[1:]
        [smallest] = eigvalsh_tridiagonal(diagonal, off, select="i",
                                          select_range=(0, 0),
                                          tol=np.finfo(float).tiny)
        return -steps * math.log(smallest)

    ratio = beta / gamma  # R0 lies between the extremes of beta/gamma
    return brentq(log_rho, 0.5 * ratio.min(), 2.0 * ratio.max(),
                  xtol=1e-15, rtol=4 * np.finfo(float).eps)


def spectral_problem(cfg):
    """The linearized problem that ``compute_spectral(cfg)`` solves."""
    return LinearizedProblem(cfg.model, cfg.domain,
                             cfg.total_mass() / cfg.domain.measure)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(amp=st.floats(0.0, 0.95), d_I=st.floats(0.01, 10.0),
       n=st.integers(8, 48))
def test_r0_matches_the_tridiagonal_reference(amp, d_I, n):
    cfg = preset_config("thm-2.11-persist", {"model.beta_x_amp": repr(amp),
                                             "model.dI": repr(d_I),
                                             "domain.n": str(n)})
    reference = tridiagonal_r0(spectral_problem(cfg))
    assert compute_spectral(cfg).r0 == pytest.approx(reference, rel=1e-10)


def test_a_non_positive_extrapolated_start_falls_back_to_the_last_eigenfield(
        monkeypatch):
    # The Newton point of a time-constant R0 > 1 problem falls short of
    # the root, so the third evaluation lies past the second in u and its
    # start is extrapolated beyond the second eigenfield. Shrinking one
    # entry of that field 10^6-fold drives the extrapolated entry below 0,
    # so the third evaluation starts from the second field itself.
    from sqip import spectral

    starts, fields = [], []
    original = spectral.principal_eigenvalue

    def tampering(problem, scale=1.0, *args, **kwargs):
        starts.append(kwargs.get("start"))
        result = original(problem, scale, *args, **kwargs)
        if len(starts) == 2:
            field = result.eigenfield.copy()
            field[0] *= 1e-6
            result = replace(result, eigenfield=field)
        fields.append(result.eigenfield)
        return result

    monkeypatch.setattr(spectral, "principal_eigenvalue", tampering)
    cfg = preset_config("thm-2.11-persist", {
        "model.beta_x_amp": "0.9", "model.dI": "0.1", "domain.n": "16"})
    problem = spectral_problem(cfg)
    # r0 takes the closed form here, so the root-find is called itself
    root, _ = spectral._find_r0(problem,
                                spectral.principal_eigenvalue(problem, 1.0),
                                spectral._time_mean(problem)[0])
    assert starts[2] is fields[1]
    # every later start is extrapolated, and every start is positive
    assert not any(start is fields[k] for k, start in enumerate(starts[3:], 2))
    assert all(start.min() > 0 for start in starts[1:])
    assert root == pytest.approx(tridiagonal_r0(problem), rel=1e-10)


def test_slow_diffusion_r0_matches_the_tridiagonal_reference():
    # dI = 0.001 on 128 cells: 196 period maps for the power-iteration
    # root-find, one for the closed form's cross-check
    cfg = preset_config("thm-2.11-persist", {"model.beta_x_amp": "0.9",
                                             "model.dI": "0.001"})
    reference = tridiagonal_r0(spectral_problem(cfg))
    assert reference == pytest.approx(3.622911718880676, rel=1e-12)
    res = compute_spectral(cfg)
    assert abs(res.r0 - reference) <= 1e-12
    assert res.period_maps == 1


@pytest.mark.parametrize("d_I,maps", [(1e-5, 60), (1e-6, 130)])
def test_very_slow_diffusion_r0_is_found(d_I, maps):
    # From a flat start the scale-1 power iteration does not converge
    # within MAX_POWER_ITER maps here, so no root-find can begin; from the
    # closed form's start G^-1/2 v it converges within that budget
    cfg = preset_config("thm-2.11-persist", {"model.beta_x_amp": "0.9",
                                             "model.dI": repr(d_I)})
    res = compute_spectral(cfg)
    assert abs(res.r0 - tridiagonal_r0(spectral_problem(cfg))) <= 1e-12
    assert res.period_maps == maps


@pytest.mark.parametrize("d_I", [0.05, 2.0])
def test_time_constant_r0_matches_dense_period_map(d_I):
    # beta and gamma both vary in space, neither in time: the closed form
    # against Brent on the Perron root of the assembled period map
    cfg = preset_config("thm-2.11-persist", {
        "model.beta_x_amp": "0.9", "model.gamma_x_amp": "-0.5",
        "model.dI": repr(d_I), "domain.n": "24"})
    prob = spectral_problem(cfg)
    res = r0(prob)
    assert res.period_maps == 1
    assert abs(res.r0 - dense_r0(prob, 1.0, 8.0)) <= 1e-12


# The closed-form R0 of a time-constant problem is good to about 1e-12
# relative; the theory's bounds and its monotonicity in d_I are exact. Where
# beta/gamma is constant in x both bounds are that ratio, R0 is it at every
# d_I, and rounding alone separates the sides: 69 of 300 examples of the
# property below, all such, missed by up to 8.0e-13 relative.
R0_ROUNDING = 1e-12


@settings(max_examples=50, deadline=None, derandomize=True)
@given(beta_amp=st.floats(-0.95, 0.95), gamma_amp=st.floats(-0.9, 0.9),
       d_I=st.floats(0.01, 10.0), n=st.integers(8, 48))
def test_time_constant_r0_lies_between_the_diffusion_limits(beta_amp, gamma_amp,
                                                             d_I, n):
    # A is positive semidefinite, so G^-1/2 (I + c*A) G^-1/2 grows with c and
    # R0 cannot increase with d_I. At c = 0 it is max(b/gamma), b = beta*N^q;
    # as c grows the map tends to the average, which by Jensen leaves R0 at
    # least mean(b)/mean(gamma) (Allen, Bolker, Lou & Nevai 2008, Lemma 2.3)
    def solve(d):
        cfg = preset_config("thm-2.11-persist", {
            "model.beta_x_amp": repr(beta_amp), "model.gamma_x_amp": repr(gamma_amp),
            "model.dI": repr(d), "domain.n": str(n)})
        return spectral_problem(cfg), compute_spectral(cfg).r0

    problem, value = solve(d_I)
    _, wider = solve(2.0 * d_I)
    beta, gamma = (table[0] for table in problem.coefficient_samples(
        DEFAULT_STEPS_PER_PERIOD))
    b = beta * problem.mean_density**problem.model.exponents.q
    slack = R0_ROUNDING * value
    assert b.mean() / gamma.mean() - slack <= value <= (b / gamma).max() + slack
    assert wider <= value + slack


def test_time_constant_r0_nears_its_diffusion_limits():
    # het thm-2.11-persist on 32 cells: max(b/gamma) = 3.79783 and
    # mean(b)/mean(gamma) = 2. At dI = 1e-4, R0 = 3.74311 lies 1.44% below
    # the first. At dI = 1e4 (c = 2e4), R0 = 2.000799 lies 4.0e-4 above the
    # second, and all but 4.1e-6 of that is the discrete limit's own gap:
    # (I + c*A)^-1 tends to the average, the map to mean(exp(dt*a))^512, and
    # by Jensen its root in u lies O(dt) beyond the ratio of means
    from scipy.optimize import brentq

    def solve(d_I):
        cfg = preset_config("thm-2.11-persist", {
            "model.beta_x_amp": "0.9", "model.dI": d_I, "domain.n": "32"})
        return spectral_problem(cfg), compute_spectral(cfg).r0

    problem, slow = solve("1e-4")
    _, fast = solve("1e4")
    beta, gamma = (table[0] for table in problem.coefficient_samples(
        DEFAULT_STEPS_PER_PERIOD))
    b = beta * problem.mean_density**problem.model.exponents.q
    dt = problem.omega / DEFAULT_STEPS_PER_PERIOD
    averaged = 1.0 / brentq(
        lambda u: math.log(np.mean(np.exp(dt * (u * b - gamma)))), 0.1, 1.0,
        xtol=1e-15)
    assert 0.0 < 1.0 - slow / (b / gamma).max() <= 0.015
    assert 0.0 < fast / (b.mean() / gamma.mean()) - 1.0 <= 4.1e-4
    assert 0.0 < fast / averaged - 1.0 <= 5e-6


def periodic_config(d_I, overrides):
    return preset_config("thm-2.11-periodic", {
        "model.beta_x_amp": "0.9", "model.dI": d_I, "domain.n": "32",
        **overrides})


@pytest.mark.parametrize("overrides", [
    {"model.gamma_x_amp": "-0.5", "model.gamma_t_amp": "0.5"},
    {"model.beta_t_amp": "0", "model.gamma_t_amp": "0.5"},
], ids=["x-and-t", "separable"])
def test_periodic_r0_lies_between_the_diffusion_limits(overrides):
    # As dI -> 0, R0 tends to the max over x of mean_t(b)/mean_t(gamma); as
    # dI -> infinity, to the ratio of space-time means (Peng & Zhao 2012).
    # At dI = 0.1: 2 < 3.362 < 7.587 (x-and-t) and 2 < 2.545 < 3.798
    cfg = periodic_config("0.1", overrides)
    problem, value = spectral_problem(cfg), compute_spectral(cfg).r0
    beta, gamma = np.broadcast_arrays(
        *problem.coefficient_samples(DEFAULT_STEPS_PER_PERIOD))
    b = beta * problem.mean_density**problem.model.exponents.q
    assert b.mean() / gamma.mean() < value < (
        b.mean(axis=0) / gamma.mean(axis=0)).max()


def test_separable_periodic_r0_falls_as_diffusion_grows():
    # u*b(x) - gamma(t) is separable, where Liu, Lou, Peng & Zhou (Proc. AMS
    # 147, 2019) prove the principal eigenvalue monotone in dI. For the
    # discrete map it is exact: a step's growth is exp(-dt*gamma_k) times
    # that of u*b, so the map is exp(-dt*sum_k gamma_k) times the
    # time-constant map of u*b - mean(gamma), whose R0 does not increase
    # with dI, and R0 is that problem's closed form
    separable = {"model.beta_t_amp": "0", "model.gamma_t_amp": "0.5"}
    values = [compute_spectral(periodic_config(d, separable)).r0
              for d in ("0.1", "0.2", "0.4")]
    assert values[0] > values[1] > values[2]
    time_mean = preset_config("thm-2.11-persist", {
        "model.beta_x_amp": "0.9", "model.dI": "0.1", "domain.n": "32"})
    assert values[0] == pytest.approx(compute_spectral(time_mean).r0, rel=1e-10)


@pytest.mark.parametrize("overrides,exact", [
    ({"model.beta_t_amp": "0", "model.gamma_t_amp": "0.5"}, True),
    ({"model.beta_x_amp": "0", "model.gamma_x_amp": "-0.5"}, True),
    ({"model.gamma_x_amp": "-0.5", "model.gamma_t_amp": "0.5"}, False),
], ids=["beta(x)-gamma(t)", "beta(t)-gamma(x)", "x-and-t"])
def test_only_a_separable_periodic_potential_takes_the_tridiagonal(overrides,
                                                                   exact):
    # In u*b(x) - gamma(t) or u*beta(t) - g(x) every step's growth is one
    # row times a factor of t_k, so the period map is the time-mean map's
    # power and R0 is the tridiagonal's root, checked in one map; root-found,
    # the first took 21 maps over 19 evaluations. A potential that varies
    # in x and t at once is still root-found, and the time-mean R0 misses it
    cfg = periodic_config("0.1", overrides)
    res = compute_spectral(cfg)
    miss = abs(res.r0 - tridiagonal_r0(spectral_problem(cfg)))
    if exact:
        assert (res.period_maps, res.r0_evals) == (1, 1)
        assert miss <= 1e-12
    else:
        assert res.r0_evals > 1
        assert miss > 1e-3


SEPARABLE = {"model.beta_x_amp": "0.9", "model.beta_t_amp": "0",
             "model.gamma_t_amp": "0.5", "domain.n": "32"}


@pytest.mark.parametrize("preset,overrides,message", [
    ("thm-2.11-persist", {},
     "closed-form R0 and the Newton point of the scale-1 evaluation disagree"),
    ("thm-2.11-persist", {"model.beta_x_amp": "0.9"},
     "closed-form lambda0 lies outside the power iteration's enclosure"),
    ("thm-2.11-periodic", SEPARABLE,
     "closed-form lambda0 lies outside the power iteration's enclosure"),
], ids=["flat", "time-constant", "separable"])
def test_a_closed_form_off_by_1e_6_is_refused(monkeypatch, preset, overrides,
                                              message):
    # the scale-1 power iteration checks each closed form: a flat R0
    # against that evaluation's Newton point, the tridiagonal's lambda0
    # against its enclosure. A power iteration whose lambda0 and enclosure
    # lie 1e-6 off fails either check
    from sqip import spectral
    from sqip.errors import NumericsError

    cfg = preset_config(preset, overrides)
    compute_spectral(cfg)
    original = spectral.principal_eigenvalue

    def off(problem, scale=1.0, *args, **kwargs):
        e = original(problem, scale, *args, **kwargs)
        return replace(e, lambda0=e.lambda0 + 1e-6,
                       lambda0_lo=e.lambda0_lo + 1e-6,
                       lambda0_hi=e.lambda0_hi + 1e-6)

    monkeypatch.setattr(spectral, "principal_eigenvalue", off)
    with pytest.raises(NumericsError, match=re.escape(message)):
        compute_spectral(cfg)


# One problem of each path through r0: flat time-constant, flat periodic,
# time-constant (n = 32 is a case where the closed form's root-find ends
# on a bound of Brent's nudge), separable, root-found, no transmission.
R0_PATHS = {
    "flat": ("thm-2.11-persist", {}),
    "flat-periodic": ("r0-threshold", {}),
    "time-constant": ("thm-2.11-persist", {"model.beta_x_amp": "0.3",
                                           "domain.n": "32"}),
    "separable": ("thm-2.11-periodic", SEPARABLE),
    "root-found": ("thm-2.11-periodic", {"model.beta_x_amp": "0.9",
                                         "domain.n": "32"}),
    "no-transmission": ("thm-2.11-persist", {"model.beta": "0"}),
}


@pytest.mark.parametrize("path", R0_PATHS)
def test_r0_is_a_python_float_on_every_path(path):
    assert type(compute_spectral(preset_config(*R0_PATHS[path])).r0) is float


@pytest.mark.parametrize("path,builds", [
    ("flat", 0), ("flat-periodic", 0), ("time-constant", 1), ("separable", 1),
    ("root-found", 1)])
def test_r0_builds_the_time_mean_tridiagonal_at_most_once(monkeypatch, path,
                                                          builds):
    from sqip import spectral

    built = []
    original = spectral._time_mean

    def counting(problem):
        built.append(problem)
        return original(problem)

    monkeypatch.setattr(spectral, "_time_mean", counting)
    r0(_preset_problem(*R0_PATHS[path]))
    assert len(built) == builds


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


def test_a_period_2_model_maps_over_its_own_period():
    # the period comes from the coefficients: a map over [0, 1.5] instead
    # of [0, 2] gave R0 = 0.897 on this problem, not 1.109
    beta = CoefficientField.cosine_modulated(
        1.0, time_amp=0.9, period=2.0, space_amp=0.5, length=1.0)
    prob = make_problem(beta, CoefficientField.constant(1.0), n=32, d_I=0.1)
    assert prob.omega == 2.0
    res = r0(prob)
    assert res.r0 == pytest.approx(1.109, abs=5e-4)
    assert abs(res.r0 - dense_r0(prob, 0.5, 2.0)) <= 1e-9
    assert res.lambda0 < 0


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

    calls = []
    original = spectral.principal_eigenvalue

    def recording(problem, scale=1.0, *args, **kwargs):
        calls.append((scale, kwargs.get("start")))
        return original(problem, scale, *args, **kwargs)

    monkeypatch.setattr(spectral, "principal_eigenvalue", recording)
    problem = _heterogeneous_1d()
    r0(problem)
    # the scale-1 and the first sign-only evaluation start from the time-mean
    # tridiagonal's G^-1/2 v at their own u, every later one from eigenfields
    lowest = spectral._time_mean(problem)[0]
    for scale, start in calls[:2]:
        assert np.array_equal(start, lowest(1.0 / scale, True)[1])
    assert all(start is not None and start.min() > 0 for _, start in calls)


def _r0_and_crowding(monkeypatch, cfg):
    """R0 of ``cfg``, and whether any two of its evaluations lie closer in
    u = 1/scale than R0_REL_TOL/2 relative, give or take rounding."""
    from sqip import spectral

    us = []
    original = spectral.principal_eigenvalue

    def recording(problem, scale=1.0, *args, **kwargs):
        us.append(1.0 / scale)
        return original(problem, scale, *args, **kwargs)

    monkeypatch.setattr(spectral, "principal_eigenvalue", recording)
    res = compute_spectral(cfg)
    assert len(us) == res.r0_evals
    return res, any(abs(u - v) < 0.4 * R0_REL_TOL * max(u, v)
                    for k, u in enumerate(us) for v in us[:k])


def test_a_regula_falsi_point_at_a_bracket_end_is_nudged(monkeypatch):
    # Near the root the retained end's lambda0 dwarfs the latest one's, so
    # without the nudge the Anderson-Bjorck points crept from u =
    # 0.479364622213915 by a few ulps, three evaluations in all, and the
    # solve took 14 maps and 11 evaluations
    cfg = preset_config("thm-2.11-periodic", {"model.beta_x_amp": "0.9"})
    res, crowded = _r0_and_crowding(monkeypatch, cfg)
    assert (res.period_maps, res.r0_evals) == (12, 9) and not crowded
    assert res.r0 == pytest.approx(2.08609470465627, rel=1e-12)


@pytest.mark.parametrize("preset,amp,d_I", [
    ("thm-2.11-periodic", "0.3", "1"), ("thm-2.11-periodic", "0.9", "0.3"),
    ("r0-threshold", "0.6", "0.1"), ("r0-threshold", "0.9", "3")])
def test_no_root_find_evaluates_a_u_twice(monkeypatch, preset, amp, d_I):
    # without the nudge each of these solves had two points closer than
    # 0.4 * R0_REL_TOL relative
    res, crowded = _r0_and_crowding(monkeypatch, preset_config(preset, {
        "model.beta_x_amp": amp, "model.dI": d_I, "domain.n": "32"}))
    assert res.r0_evals >= 5 and not crowded


def test_the_newton_point_has_the_slope_of_lambda0_in_u(monkeypatch):
    # For a time-constant potential the slope -d lambda0/du at u = 1 comes
    # exactly from the scale-1 eigenfield, so the Newton point 1 +
    # lambda0(1)/slope gives back the slope of converged lambda0.
    from sqip import spectral

    scales = []
    original = spectral.principal_eigenvalue

    def recording(problem, scale=1.0, *args, **kwargs):
        scales.append(scale)
        return original(problem, scale, *args, **kwargs)

    monkeypatch.setattr(spectral, "principal_eigenvalue", recording)
    problem = spectral_problem(preset_config(
        "thm-2.11-persist", {"model.beta_x_amp": "0.9", "model.dI": "1.0"}))
    # r0 takes the closed form here, so the root-find is called itself
    base = spectral.principal_eigenvalue(problem, 1.0)
    root, _ = spectral._find_r0(problem, base, spectral._time_mean(problem)[0])
    assert root == pytest.approx(tridiagonal_r0(problem), rel=1e-10)
    slope = base.lambda0 / (1.0 / scales[1] - 1.0)
    h = 1e-4
    ahead, behind = (original(problem, 1.0 / (1.0 + h)).lambda0,
                     original(problem, 1.0 / (1.0 - h)).lambda0)
    assert slope == pytest.approx((behind - ahead) / (2 * h), rel=1e-6)


@pytest.mark.parametrize("preset", ["thm-2.11-persist", "r0-threshold"])
def test_a_flat_root_find_ends_at_its_newton_point(preset):
    # lambda0 is linear in u with the eigenfield constant, so the Newton
    # point is the computed map's own root: the root-find ends there, at
    # its second evaluation. r0 therefore keeps only that point, from the
    # scale-1 evaluation alone, as its cross-check.
    from sqip import spectral

    res = compute_spectral(preset_config(preset))
    assert (res.r0_evals, res.period_maps) == (1, 1)
    assert abs(res.r0_cross_check - res.r0) <= 1e-8 * res.r0
    problem = _preset_problem(preset)
    root, evaluations = spectral._find_r0(
        problem, spectral.principal_eigenvalue(problem, 1.0),
        spectral._time_mean(problem)[0])
    assert len(evaluations) == 2
    assert abs(root - res.r0_cross_check) <= 1e-12 * res.r0


def test_an_unusable_slope_falls_back_to_doubling(monkeypatch):
    # beta = 0: the slope is 0, so there is no Newton point and u doubles;
    # lambda0 = gamma at every u, so no step finds a bracket, each goes at
    # most a factor of 2 further, and the search gives up past u = 2^60.
    # r0 returns 0 for beta = 0 before any root-find, so this calls the
    # root-find itself.
    from sqip import spectral
    from sqip.errors import NumericsError

    scales = []
    original = spectral.principal_eigenvalue

    def recording(problem, scale=1.0, *args, **kwargs):
        scales.append(scale)
        return original(problem, scale, *args, **kwargs)

    monkeypatch.setattr(spectral, "principal_eigenvalue", recording)
    prob = make_problem(CoefficientField.constant(0.0),
                        CoefficientField.constant(1.0), n=8)
    with pytest.raises(NumericsError, match="bracket not found"):
        spectral._find_r0(prob, spectral.principal_eigenvalue(prob, 1.0),
                          spectral._time_mean(prob)[0])
    assert scales[:2] == [1.0, 0.5]
    assert all(1.0 < a / b <= 2.0 for a, b in zip(scales, scales[1:]))
    assert (r0(prob).r0, r0(prob).r0_evals) == (0.0, 1)


def test_a_power_iteration_that_cannot_converge_names_its_scale(monkeypatch):
    from sqip import spectral
    from sqip.errors import NumericsError

    monkeypatch.setattr(spectral, "MAX_POWER_ITER", 3)
    beta = CoefficientField.cosine_modulated(2.0, space_amp=0.5, length=1.0)
    prob = make_problem(beta, CoefficientField.constant(1.0), n=32, d_I=0.1)
    with pytest.raises(NumericsError) as caught:
        monodromy_radius(prob, scale=0.5)
    width = caught.value.payload["residual"]
    assert width > CW_REL_TOL
    assert str(caught.value) == (
        f"power iteration did not converge at scale 0.5: after 3 period maps "
        f"the enclosure of ln(rho) is {width:.3g} wide, not CW_REL_TOL = 1e-11")
