import math

import numpy as np
import pytest

from sqip.errors import AssumptionError, NumericsError, StiffnessError
from sqip.grid import Domain, integrate
from sqip.model import CoefficientField, Exponents, Incidence, ModelSpec
from sqip.presets import preset_config
from sqip.solver import SolverSettings, Stepper, SystemState, run


def make_model(p=1.0, q=1.0, s=0.0, r=1.0, beta=1.0, gamma=1.0, mu=0.0,
               d_S=1.0, d_I=1.0):
    return ModelSpec(
        exponents=Exponents(p=p, q=q, s=s, r=r),
        beta=CoefficientField.constant(beta),
        gamma=CoefficientField.constant(gamma),
        mu=CoefficientField.constant(mu),
        d_S=d_S, d_I=d_I,
        incidence=Incidence("power", q=q, p=p),
    )


def test_pure_diffusion_conserves_each_mass():
    dom = Domain((1.0,), (64,))
    model = make_model(beta=0.0, gamma=0.0, mu=0.0, d_S=0.7, d_I=1.3)
    stepper = Stepper(model, dom)
    rng = np.random.default_rng(1)
    state = SystemState(rng.uniform(0.1, 2.0, 64), rng.uniform(0.0, 1.0, 64), 0.0)
    m_S, m_I = integrate(dom, state.S), integrate(dom, state.I)
    for _ in range(50):
        state = stepper.step(state, 0.01)
        assert state is not None
    assert abs(integrate(dom, state.S) - m_S) < 1e-12
    assert abs(integrate(dom, state.I) - m_I) < 1e-12


def test_constant_state_stays_constant():
    dom = Domain((2.0,), (80,))
    model = make_model(beta=1.5, gamma=0.7, mu=0.2)
    state = SystemState(np.full(80, 0.8), np.full(80, 0.4), 0.0)
    new = Stepper(model, dom).step(state, 0.01)
    assert new.S.max() - new.S.min() <= 1e-12
    assert new.I.max() - new.I.min() <= 1e-12


def test_reaction_values_at_half_half():
    # p=q=1, beta=gamma=1, mu=0, state (0.5, 0.5): f = 0.25, g = -0.25
    dom = Domain((1.0,), (16,))
    stepper = Stepper(make_model(), dom)
    f, g = stepper.reaction(np.full(16, 0.5), np.full(16, 0.5), 0.0)
    assert f == pytest.approx(np.full(16, 0.25))
    assert g == pytest.approx(np.full(16, -0.25))


def test_reaction_broadcasts_a_2d_sample_to_the_same_bits():
    # time-constant samples keep the evaluator's (nx, 1) shape in 2D;
    # broadcasting in the arithmetic gives what full (nx, ny) fields give
    dom = Domain((1.0, 1.5), (12, 10))
    model = ModelSpec(
        exponents=Exponents(p=1.0, q=1.0),
        beta=CoefficientField.cosine_modulated(2.0, space_amp=0.9, length=1.0),
        gamma=CoefficientField.cosine_modulated(
            1.0, time_amp=0.5, period=1.0, space_amp=0.3, length=1.0),
        mu=CoefficientField.constant(0.2), d_S=1.0, d_I=1.0,
        incidence=Incidence("power", q=1.0, p=1.0))
    rng = np.random.default_rng(11)
    S, I = rng.uniform(0.1, 1.0, dom.shape), rng.uniform(0.1, 1.0, dom.shape)
    t = 0.3
    x = dom.x_coordinate()
    beta, gamma, mu = (np.broadcast_to(c(x, t), dom.shape).copy()
                       for c in (model.beta, model.gamma, model.mu))
    f, g = Stepper(model, dom).reaction(S, I, t)
    assert np.array_equal(f, -beta * (S * I) + gamma * I)
    assert np.array_equal(g, beta * (S * I) - (gamma + mu) * I)


def test_time_constant_coefficients_are_evaluated_once_per_run(coeff_calls):
    # beta varies in space but has no period: the assumption scan and the
    # stepper sample each coefficient once (495 evaluations when beta was
    # evaluated on every step and at 33 scan times)
    cfg = preset_config("thm-2.11-persist", {"model.beta_x_amp": "0.9",
                                             "solver.t_end": "5"})
    traj = run(cfg)
    assert traj.steps_accepted > 100
    assert len(coeff_calls) <= 6


def _rk4_reduced(y, dt, beta=1.0, gamma=1.0, mu=0.0):
    def rhs(y):
        S, I = y
        return np.array([-beta * S * I + gamma * I,
                         beta * S * I - (gamma + mu) * I])
    k1 = rhs(y)
    k2 = rhs(y + 0.5 * dt * k1)
    k3 = rhs(y + 0.5 * dt * k2)
    k4 = rhs(y + dt * k3)
    return y + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)


def test_single_step_matches_rk4_to_second_order():
    # spatially constant state: the discrete step must agree with a
    # fourth-order reference on the reduced system to O(dt^2) per step
    dom = Domain((1.0,), (32,))
    stepper = Stepper(make_model(), dom)
    state = SystemState(np.full(32, 0.5), np.full(32, 0.5), 0.0)
    errors = []
    for dt in (0.01, 0.005, 0.0025):
        new = stepper.step(state, dt)
        ref = _rk4_reduced(np.array([0.5, 0.5]), dt)
        errors.append(max(abs(new.S[0] - ref[0]), abs(new.I[0] - ref[1])))
    assert errors[0] < 0.5 * 0.01**2
    ratio1 = errors[0] / errors[1]
    ratio2 = errors[1] / errors[2]
    assert 3.0 < ratio1 < 5.0
    assert 3.0 < ratio2 < 5.0


def test_mass_identity_per_step():
    # mass(S+I) changes by exactly -dt * integral(mu * S^s I^r) per step,
    # up to linear-solver tolerance times grid size
    dom = Domain((1.0,), (48,))
    model = make_model(p=1.5, q=0.8, s=0.3, r=1.2, beta=1.2, gamma=0.4, mu=0.6)
    stepper = Stepper(model, dom)
    rng = np.random.default_rng(2)
    state = SystemState(rng.uniform(0.5, 1.5, 48), rng.uniform(0.2, 0.8, 48), 0.0)
    dt = 0.005
    for _ in range(40):
        removal = integrate(dom, 0.6 * state.S**0.3 * state.I**1.2)
        before = integrate(dom, state.S) + integrate(dom, state.I)
        state = stepper.step(state, dt)
        assert state is not None
        after = integrate(dom, state.S) + integrate(dom, state.I)
        assert after - before == pytest.approx(-dt * removal, abs=1e-12 * 48)


def test_reject_signal_on_negativity():
    # fractional q makes the explicit stage overshoot near S = 0
    dom = Domain((1.0,), (16,))
    model = make_model(q=0.5, p=1.0, beta=1.0, gamma=0.0)
    stepper = Stepper(model, dom)
    S = np.full(16, 1e-6)
    I = np.full(16, 1.0)
    assert stepper.step(SystemState(S, I, 0.0), 0.01) is None


def test_stiffness_error_carries_location():
    cfg = preset_config("thm-2.11-persist", {
        "model.q": "0.5", "model.gamma": "0.0",
        "initial.S": "constant(1e-6)", "initial.I": "constant(1.0)",
        "solver.dt_min": "0.005", "solver.dt_max": "0.02",
        "solver.dt_init": "0.02", "solver.t_end": "1.0",
        "solver.allow_degenerate_initial": "true"})
    with pytest.raises(StiffnessError) as err:
        run(cfg)
    assert err.value.location is not None


@pytest.mark.parametrize("dom", (Domain((1.0,), (32,)), Domain((1.0, 1.0), (8, 8))))
@pytest.mark.parametrize("bad", (math.nan, math.inf, -math.inf))
def test_non_finite_state_raises_numerics_error_with_state(dom, bad):
    stepper = Stepper(make_model(), dom)
    S = np.full(dom.shape, 0.5)
    S.flat[5] = bad
    state = SystemState(S, np.full(dom.shape, 0.1), 0.25)
    with pytest.raises(NumericsError) as info:
        stepper.step(state, 0.01)
    payload = info.value.payload
    assert payload["t"] == 0.25
    assert payload["dt"] == 0.01
    assert np.array_equal(payload["S"], S, equal_nan=True)
    assert np.array_equal(payload["I"], state.I)
    assert not np.shares_memory(payload["S"], state.S)


@pytest.mark.parametrize("name, overrides, two_dim", [
    ("thm-2.11-persist", {"solver.t_end": "0.5"}, False),
    ("thm-2.11-persist", {"solver.t_end": "0.1"}, True),
    ("thm-2.10-ii", {"model.q": "0.3", "model.beta": "4.0",
                     "solver.t_end": "1.0"}, False),
])
def test_run_monitors_match_every_row(name, overrides, two_dim):
    # A cadence below any step records every accepted state, so the
    # monitors run() keeps from the shared per-step reductions must equal
    # the ones recomputed from the rows.
    cfg = preset_config(name, {**overrides, "solver.cadence": "1e-9"},
                        two_dim=two_dim)
    traj = run(cfg)
    rows = traj.rows
    assert len(rows) == traj.steps_accepted + 1
    assert traj.sup_monitor == max(rows["sup_S"].max(), rows["sup_I"].max())
    assert traj.floor_S == rows["min_S"].min()
    assert traj.floor_I == rows["min_I"].min()
    if name == "thm-2.10-ii":
        assert traj.steps_rejected > 0


def test_run_mass_conserved_without_mortality():
    cfg = preset_config("thm-2.11-persist", {"solver.t_end": "5.0"})
    traj = run(cfg)
    mass = traj.mass
    assert np.abs(mass - mass[0]).max() <= 1e-9 * mass[0]


def test_run_mass_decreasing_with_mortality():
    cfg = preset_config("thm-2.10-i", {"solver.t_end": "10.0",
                                       "solver.cadence": "0.05"})
    traj = run(cfg)
    diffs = np.diff(traj.mass)
    assert diffs.max() <= 1e-10 * traj.mass[0]
    assert traj.mass[-1] < traj.mass[0]


def test_run_refuses_empty_infection():
    cfg = preset_config("thm-2.11-persist", {
        "initial.I": "constant(0.0)", "solver.t_end": "1.0"})
    with pytest.raises(AssumptionError):
        run(cfg)


def test_run_override_keeps_zero_infection_invariant():
    cfg = preset_config("thm-2.11-persist", {
        "initial.S": "constant(1.0)",
        "initial.I": "constant(0.0)", "solver.t_end": "1.0",
        "solver.allow_degenerate_initial": "true"})
    traj = run(cfg)
    assert "degenerate-initial-override" in traj.flags
    assert traj.rows["sup_I"].max() == 0.0


def test_comparison_floor_constant_coefficients():
    # min I decays no faster than exp(-2 * sigma_sup * t), up to the
    # first-order stepping correction
    cfg = preset_config("thm-2.11-persist", {
        "model.beta": "0.5", "model.gamma": "0.5",
        "solver.t_end": "2.0", "solver.dt_max": "0.01",
        "solver.cadence": "0.1"})
    traj = run(cfg)
    sigma_sup = 0.5
    floor0 = traj.rows["min_I"][0]
    for row in traj.rows:
        floor = floor0 * math.exp(-2 * sigma_sup * row["t"])
        assert row["min_I"] >= 0.98 * floor


def test_positivity_all_rows():
    for name in ("thm-2.10-i", "thm-2.11-persist"):
        cfg = preset_config(name, {"solver.t_end": "5.0"})
        traj = run(cfg)
        assert traj.floor_S >= 0.0
        assert traj.floor_I >= 0.0
        assert traj.final_state.S.min() >= 0.0
        assert traj.final_state.I.min() >= 0.0


def test_deterministic_reruns_bit_identical():
    cfg = preset_config("thm-2.11-periodic", {"solver.t_end": "4.0"})
    t1 = run(cfg)
    t2 = run(cfg)
    assert t1.rows.tobytes() == t2.rows.tobytes()
    assert np.array_equal(t1.final_state.S, t2.final_state.S)
    assert np.array_equal(t1.final_state.I, t2.final_state.I)


def _terminal(n, dt, t_end=0.5):
    cfg = preset_config("thm-2.11-persist", {
        "domain.n": str(n), "solver.t_end": str(t_end),
        "solver.dt_init": str(dt), "solver.dt_max": str(dt),
        "solver.cadence": str(t_end)})
    return run(cfg).final_state


def _restrict(f):
    return 0.5 * (f[0::2] + f[1::2])


def test_spatial_convergence_order():
    dt = 2e-4
    u1, u2, u3 = _terminal(50, dt), _terminal(100, dt), _terminal(200, dt)
    e1 = np.abs(_restrict(u2.S) - u1.S).max()
    e2 = np.abs(_restrict(u3.S) - u2.S).max()
    assert math.log2(e1 / e2) >= 1.8


def test_temporal_convergence_order():
    u1, u2, u3 = _terminal(128, 4e-3), _terminal(128, 2e-3), _terminal(128, 1e-3)
    e1 = np.abs(u2.S - u1.S).max()
    e2 = np.abs(u3.S - u2.S).max()
    assert math.log2(e1 / e2) >= 0.9


def test_marginal_positivity_is_flagged():
    # strictly positive infected floor at machine scale: accepted as valid
    # input for fractional exponents, but called out in the run flags
    cfg = preset_config("thm-2.10-ii", {
        "initial.I": "bump(0.5, 0.02, 1.0, floor=1e-15)",
        "solver.t_end": "0.2"})
    traj = run(cfg)
    assert "marginal-positivity-I0" in traj.flags


def test_terminal_state_matches_independent_stiff_integrator():
    # same semidiscrete system, independent time integrator: the reaction
    # is written out by hand, the Laplacian is the dense form of the banded
    # matrix the diffusion solves factor, and the lines are solved by
    # scipy's Radau at tight tolerance; the IMEX terminal state must
    # approach it at first order in dt
    from scipy.integrate import solve_ivp
    from sqip.grid import _stiffness_banded

    n = 48
    dom = Domain((1.0,), (n,))
    ab = _stiffness_banded(n, dom.spacing[0])
    lap = -(np.diag(ab[1]) + np.diag(ab[0, 1:], 1) + np.diag(ab[0, 1:], -1))
    (x,) = dom.cell_centers()
    I0 = 0.5 * np.exp(-0.5 * ((x - 0.5) / 0.1) ** 2)
    S0 = 1.0 - I0

    def rhs(t, y):
        S, I = y[:n], y[n:]
        inc = 2.0 * S * I  # beta = 2, gamma = 1, mu = 0, p = q = 1
        dS = lap @ S + (-inc + I)
        dI = lap @ I + (inc - I)
        return np.concatenate([dS, dI])

    ref = solve_ivp(rhs, (0.0, 1.0), np.concatenate([S0, I0]),
                    method="Radau", rtol=1e-10, atol=1e-12)
    S_ref, I_ref = ref.y[:n, -1], ref.y[n:, -1]

    model = make_model(beta=2.0, gamma=1.0)
    errors = []
    for dt in (2e-3, 1e-3):
        stepper = Stepper(model, dom)
        state = SystemState(S0.copy(), I0.copy(), 0.0)
        for _ in range(int(round(1.0 / dt))):
            state = stepper.step(state, dt)
        errors.append(max(np.abs(state.S - S_ref).max(),
                          np.abs(state.I - I_ref).max()))
    assert errors[0] < 2e-3
    assert 1.6 < errors[0] / errors[1] < 2.4  # first-order in dt


def test_snapshots_land_exactly():
    cfg = preset_config("thm-2.11-persist", {
        "solver.t_end": "3.0", "solver.snapshots": "0.7 1.3 2.9"})
    traj = run(cfg)
    assert sorted(traj.snapshots) == [0.7, 1.3, 2.9]


def test_2d_run_conserves_mass():
    cfg = preset_config("thm-2.11-persist", two_dim=True,
                        overrides={"solver.t_end": "1.0",
                                   "domain.nx": "24", "domain.ny": "24"})
    traj = run(cfg)
    mass = traj.mass
    assert np.abs(mass - mass[0]).max() <= 1e-10 * mass[0]
    assert traj.floor_S >= 0 and traj.floor_I >= 0


def test_settings_validation():
    with pytest.raises(Exception):
        SolverSettings(dt_min=1.0, dt_max=0.1)
    with pytest.raises(Exception):
        SolverSettings(positivity_policy="clamp")
