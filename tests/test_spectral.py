import math

import numpy as np
import pytest

from sqip.grid import DiffusionSolver, Domain1D, Domain2D
from sqip.model import CoefficientField
from sqip.presets import preset_config
from sqip.runner import compute_spectral
from sqip.spectral import (DEFAULT_STEPS_PER_PERIOD, MAX_POWER_ITER,
                           RAYLEIGH_TOL, LinearizedProblem, monodromy_radius,
                           principal_eigenvalue, r0)


def make_problem(beta, gamma, q=1.0, density=1.0, omega=1.0, n=64, d_I=1.0):
    return LinearizedProblem(
        d_I=d_I, beta=beta, gamma=gamma, q=q, mean_density=density,
        omega=omega, domain=Domain1D(1.0, n))


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
    assert res.lambda0 == pytest.approx(-math.log(res.rho) / res.omega,
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
    assert res.r0_cross_check == pytest.approx(2.0, abs=1e-4)


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
    a = prob.potential()
    x = np.linspace(0, 1, 33)
    vals = np.abs(np.asarray(a(x, 0.0)))
    assert vals.max() <= prob.potential_bound + 1e-12


def test_power_iteration_matches_dense_floquet_spectrum():
    # assemble the one-period map column by column and take its spectral
    # radius with a dense eigensolver: power iteration must reproduce it
    # on a genuinely space- and time-dependent potential
    from sqip.solver import LinearPropagator

    n = 24
    beta = CoefficientField.cosine_modulated(
        2.0, time_amp=0.3, period=1.0, space_amp=0.5, length=1.0)
    gamma = CoefficientField.constant(1.5)
    prob = make_problem(beta, gamma, n=n)
    steps = 256

    prop = LinearPropagator(prob.domain, prob.d_I, prob.growth_factors(1.0, steps))
    columns = []
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        columns.append(prop.advance(e, 0.0, prob.omega, steps))
    monodromy = np.array(columns).T
    rho_dense = float(np.abs(np.linalg.eigvals(monodromy)).max())

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


def reference_monodromy(problem, scale=1.0,
                        steps_per_period=DEFAULT_STEPS_PER_PERIOD):
    """Power iteration with the potential sampled at every step of every
    period map: the loop that the coefficient tables replace."""
    a = problem.potential(scale)
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
    rho_prev = None
    for iteration in range(1, MAX_POWER_ITER + 1):
        mapped = period_map(phi)
        rho = float(np.abs(mapped).max())
        phi = mapped / rho
        if rho_prev is not None:
            residual = abs(rho - rho_prev) / rho
            if residual <= RAYLEIGH_TOL:
                return rho, phi, iteration, residual
        rho_prev = rho
    raise AssertionError("reference power iteration did not converge")


def _heterogeneous_1d():
    cfg = preset_config("thm-2.11-periodic", {
        "model.beta_x_amp": "0.9", "model.dI": "1.0", "domain.n": "64"})
    return LinearizedProblem.from_model(cfg.model, cfg.domain,
                                        cfg.total_mass(), omega=cfg.omega)


def _periodic_2d():
    beta = CoefficientField.cosine_modulated(
        2.0, time_amp=0.5, period=1.0, space_amp=0.6, length=1.0)
    return LinearizedProblem(
        d_I=0.5, beta=beta, gamma=CoefficientField.constant(1.5), q=1.0,
        mean_density=1.0, omega=1.0, domain=Domain2D(1.0, 1.0, 16, 16))


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
    ("thm-2.11-persist", {}, (48, 24)),
    ("r0-threshold", {}, (44, 22)),
    ("thm-2.11-periodic",
     {"model.beta_x_amp": "0.9", "model.dI": "1.0", "domain.n": "64"},
     (96, 24)),
], ids=["thm-2.11-persist", "r0-threshold", "het-periodic"])
def test_spectral_counters(preset, overrides, counts):
    res = compute_spectral(preset_config(preset, overrides or None))
    assert (res.period_maps, res.r0_evals) == counts
    assert res.stats_lines() == [f"period_maps={counts[0]}",
                                 f"r0_evals={counts[1]}"]


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
    prop.advance(np.ones(8), 0.0, 1.0, 4)
    with pytest.raises(ConfigError, match="4 rows for 3 steps"):
        prop.advance(np.ones(8), 0.0, 1.0, 3)
