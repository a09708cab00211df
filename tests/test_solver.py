import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra import numpy as hnp
from scipy.linalg import cholesky_banded
from scipy.linalg.lapack import dpbtrs

from sqip.cli import main as cli_main
from sqip.errors import AssumptionError, NumericsError, StiffnessError
from sqip.grid import Domain, _stiffness_banded, integrate
from sqip.model import (A1, CoefficientField, Exponents, Incidence, ModelSpec,
                        classify_exponents, validate_assumptions)
from sqip.presets import preset_config
from sqip.solver import Stepper, SystemState, _extrema, run


def make_model(p=1.0, q=1.0, s=0.0, r=1.0, beta=1.0, gamma=1.0, mu=0.0,
               d_S=1.0, d_I=1.0):
    return ModelSpec(
        s=s, r=r,
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


def _reference_solve(dom, c, rhs):
    """(I + c*A) x = rhs, axis by axis, by dpbtrs on a fresh factor."""
    out = rhs
    for axis, (n, h) in enumerate(zip(dom.cells, dom.spacing)):
        ab = c * _stiffness_banded(n, h)
        ab[1, :] += 1.0
        x, info = dpbtrs(cholesky_banded(ab), np.moveaxis(out, axis, 0))
        assert info == 0
        out = np.moveaxis(x, 0, axis)
    return out


def _reference_step(model, dom, state, dt):
    """One IMEX step in the plain algebra: every coefficient evaluated at
    the step's time, -beta*K + gamma*R and gamma + mu formed each step."""
    x = dom.x_coordinate()
    beta, gamma, mu = (c(x, state.t) for c in (model.beta, model.gamma, model.mu))
    e = model.exponents
    kernel = model.incidence.kernel(state.S, state.I)
    removal = state.I if (e.s, e.r) == (0.0, 1.0) else state.S**e.s * state.I**e.r
    f = -beta * kernel + gamma * removal
    g = beta * kernel - (gamma + mu) * removal
    return (_reference_solve(dom, dt * model.d_S, state.S + dt * f),
            _reference_solve(dom, dt * model.d_I, state.I + dt * g))


class _NoPower(np.ndarray):
    """An array that refuses ``**``: shows that a power pass is skipped."""

    def __pow__(self, other):
        raise AssertionError(f"x**{other} taken")


def test_unit_exponents_take_no_power():
    # x**1.0 == x bit for bit, so neither the kernel nor the removal takes
    # a unit power: arrays that refuse ``**`` pass through both
    dom = Domain((1.0,), (32,))
    model = make_model(p=1.0, q=1.0, s=1.0, r=1.0, beta=1.3, gamma=0.7, mu=0.2)
    rng = np.random.default_rng(5)
    S, I = rng.uniform(0.1, 2.0, 32), rng.uniform(0.0, 1.0, 32)
    f, g = Stepper(model, dom).reaction(S.view(_NoPower), I.view(_NoPower), 0.0)
    plain = S**1.0 * I**1.0
    assert np.array_equal(f, 0.7 * plain - 1.3 * plain)
    assert np.array_equal(g, 1.3 * plain - (0.7 + 0.2) * plain)
    # q = 1 with p = 2: only I is raised
    kernel = Incidence("power", q=1.0, p=2.0).kernel(S.view(_NoPower), I)
    assert np.array_equal(kernel, S**1.0 * I**2.0)


def _coefficient(base, periodic, length):
    if periodic:
        return CoefficientField.cosine_modulated(
            base, time_amp=0.7, period=0.9, space_amp=0.4, length=length)
    return CoefficientField.cosine_modulated(base, space_amp=0.4, length=length)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(cells=st.sampled_from(((24,), (96,), (9, 7), (12, 16))),
       pq=st.tuples(st.floats(0.5, 2.0), st.floats(0.3, 2.0)),
       sr=st.one_of(st.just((0.0, 1.0)),
                    st.tuples(st.floats(0.0, 1.5), st.floats(0.5, 2.0))),
       periodic=st.tuples(st.booleans(), st.booleans(), st.booleans()),
       t=st.floats(0.0, 3.0), dt=st.floats(1e-4, 0.05),
       seed=st.integers(0, 2**16))
def test_step_matches_the_plain_algebra_bit_for_bit(cells, pq, sr, periodic,
                                                     t, dt, seed):
    # 1D and 2D, the SI removal and (s, r) != (0, 1), time-constant and
    # time-periodic coefficients (gamma and mu independently)
    lengths = (1.0, 1.5)[:len(cells)]
    dom = Domain(lengths, cells)
    (p, q), (s, r) = pq, sr
    model = ModelSpec(
        s=s, r=r,
        beta=_coefficient(1.5, periodic[0], lengths[0]),
        gamma=_coefficient(0.6, periodic[1], lengths[0]),
        mu=_coefficient(0.3, periodic[2], lengths[0]),
        d_S=0.3, d_I=0.05, incidence=Incidence("power", q=q, p=p))
    rng = np.random.default_rng(seed)
    state = SystemState(rng.uniform(0.05, 2.0, dom.shape),
                        rng.uniform(0.05, 2.0, dom.shape), t)
    new = Stepper(model, dom).step(state, dt)
    S, I = _reference_step(model, dom, state, dt)
    if new is None:
        assert min(S.min(), I.min()) < 0.0
        return
    assert np.array_equal(new.S, S) and np.array_equal(new.I, I)
    assert new.t == t + dt
    assert new.extrema == (S.min(), S.max(), I.min(), I.max())


# Values a reduction gets wrong most easily: infinities, both zeros and
# subnormals (the smallest, a negative one and the largest).
_EDGE_VALUES = (math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324,
                2.2250738585072009e-308)


@st.composite
def _edge_field(draw, shape, order):
    """A float field of ``shape`` in C or F ``order``, with repeated
    values, edge values and, at times, NaNs."""
    values = st.floats(-1e6, 1e6) | st.sampled_from(_EDGE_VALUES)
    field = draw(hnp.arrays(np.float64, shape, elements=values, fill=values))
    for k in draw(st.lists(st.integers(0, field.size - 1), max_size=2)):
        field.flat[k] = math.nan
    return np.asarray(field, order=order)


@st.composite
def _edge_fields(draw):
    shape = draw(st.tuples(st.integers(4, 200))
                 | st.tuples(st.integers(4, 40), st.integers(4, 40)))
    order = draw(st.sampled_from("CF"))
    return draw(_edge_field(shape, order)), draw(_edge_field(shape, order))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(fields=_edge_fields())
def test_extrema_match_min_and_max(fields):
    # Reading by argmin/argmax index gives np.min and np.max of each field
    # (a zero extreme may differ in sign, which == does not see), and a
    # NaN anywhere in a field makes both of its values NaN.
    S, I = fields
    found = _extrema(S, I)
    assert all(type(v) is float for v in found)
    for (lo, hi), field in ((found[:2], S), (found[2:], I)):
        if np.isnan(field).any():
            assert math.isnan(lo) and math.isnan(hi)
        else:
            assert lo == np.min(field) and hi == np.max(field)
    assert np.array_equal(SystemState(S, I, 0.0).extrema, found, equal_nan=True)


@st.composite
def _regime_exponents(draw):
    """(p, q, s, r) inside a family drawn from H1-i ... H2-ii, each built
    from its inequalities and checked against the classifier."""
    label = draw(st.sampled_from(("H1-i", "H1-ii", "H1-iii", "H1-iv",
                                  "H2-i", "H2-ii")))
    a, b = draw(st.floats(0.3, 2.0)), draw(st.floats(0.3, 2.0))
    u, v, w = (draw(st.floats(0.05, 0.95)) for _ in range(3))
    if label == "H1-i":  # p > r, s p - r q <= p - r
        r, q, p = a, b, a + v
        s = u * (p - r + r * q) / p
    elif label == "H1-ii":  # p = r, s < q
        p = r = a
        q, s = b, u * b
    elif label == "H1-iii":  # s > q, s p - r q <= s - q
        q, r, s = a, b, a + v
        p = u * (s - q + r * q) / s
    elif label == "H1-iv":  # s = q, p < r
        s = q = a
        r, p = b, u * b
    elif label == "H2-i":  # p < 1, s < q, p s - q r >= s - q
        p, q, s = u, a, v * a
        r = w * (q - s * (1.0 - p)) / q
    else:  # H2-ii: s < 1, p < r, p s - q r >= p - r
        s, r, p = u, a, v * a
        q = w * (r - p * (1.0 - s)) / r
    e = Exponents(p, q, s, r)
    assume(classify_exponents(e).label == label)
    return e


_DECADES = st.floats(-3.0, 1.0).map(lambda k: 10.0**k)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(e=_regime_exponents(),
       cells=st.sampled_from(((8,), (33,), (128,), (6, 5), (16, 12))),
       length=st.floats(0.1, 4.0), levels=st.tuples(*[st.floats(0.0, 3.0)] * 3),
       amps=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
       d=st.tuples(_DECADES, _DECADES),
       dt=st.floats(-4.0, 0.0).map(lambda k: 10.0**k), t=st.floats(0.0, 3.0),
       low=st.tuples(st.floats(0.05, 0.5), st.sampled_from((1e-12, 1e-6, 1e-3, 0.0))),
       seed=st.integers(0, 2**16))
def test_a_step_is_rejected_or_nonnegative_and_keeps_the_mass_identity(
        e, cells, length, levels, amps, d, dt, t, low, seed):
    # a fraction low[0] of the nodes sits at low[1], where a sublinear
    # power overshoots; about a third of the draws are rejected
    dom = Domain((length, 1.0)[:len(cells)], cells)
    beta, gamma, mu = (CoefficientField.cosine_modulated(
        level, time_amp=amps[1], period=0.7, space_amp=amps[0], length=length)
        for level in levels)
    model = ModelSpec(beta=beta, gamma=gamma, mu=mu, d_S=d[0], d_I=d[1],
                      incidence=Incidence("power", q=e.q, p=e.p), s=e.s, r=e.r)
    rng = np.random.default_rng(seed)
    S0, I0 = (np.where(rng.uniform(size=dom.shape) < low[0], low[1],
                       rng.uniform(0.0, 2.0, dom.shape)) for _ in range(2))
    new = Stepper(model, dom).step(SystemState(S0, I0, t), dt)
    S, I = _reference_step(model, dom, SystemState(S0, I0, t), dt)
    if new is None:
        assert min(S.min(), I.min()) < 0.0
        return
    assert min(new.S.min(), new.I.min()) >= 0.0
    # mass(S + I) moves by -dt * integral(mu S^s I^r). The solves keep the
    # integral only to about eps * c/h^2, and c/h^2 reaches 4e5 in these
    # draws, so the bound is eps * (1 + c/h^2) times the integral of every
    # term of the explicit stages.
    x = dom.x_coordinate()
    b, g, m = (np.broadcast_to(c(x, t), dom.shape) for c in (beta, gamma, mu))
    kernel, removal = model.incidence.kernel(S0, I0), S0**e.s * I0**e.r
    change = (integrate(dom, new.S) + integrate(dom, new.I)
              - integrate(dom, S0) - integrate(dom, I0))
    terms = integrate(dom, S0 + I0 + dt * (2 * b * kernel + (2 * g + m) * removal))
    stiffness = dt * max(d) / min(dom.spacing) ** 2
    eps = np.finfo(float).eps
    assert abs(change + dt * integrate(dom, m * removal)) <= (
        8 * eps * (1 + stiffness) * terms)
    # never clamped: the accepted state is the plain algebra's
    assert np.array_equal(new.S, S) and np.array_equal(new.I, I)


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


def _stiffness_failure(monkeypatch, initial_s):
    """Run a degenerate thm-2.11-persist variant to its StiffnessError;
    return the error, the config and the last attempted (state, dt)."""
    cfg = preset_config("thm-2.11-persist", {
        "model.q": "0.5", "model.gamma": "0.0",
        "initial.S": initial_s, "initial.I": "constant(1.0)",
        "solver.dt_min": "0.005", "solver.dt_max": "0.02",
        "solver.dt_init": "0.02", "solver.t_end": "1.0",
        "solver.allow_degenerate_initial": "true"})
    attempts = []
    step = Stepper.step

    def recording_step(self, state, dt):
        attempts.append((state, dt))
        return step(self, state, dt)

    monkeypatch.setattr(Stepper, "step", recording_step)
    with pytest.raises(StiffnessError) as err:
        run(cfg)
    last, last_dt = attempts[-1]
    worst = np.unravel_index(int(np.argmin(np.minimum(last.S, last.I))),
                             last.S.shape)
    assert err.value.t == last.t
    assert last_dt >= cfg.dt_min > err.value.dt == last_dt / 2.0
    assert err.value.location == worst
    return err.value, cfg, last


def test_stiffness_error_carries_location(monkeypatch):
    # a flat degenerate start fails on its first steps, at t = 0; all
    # nodes tie, so the worst index is the first
    err, cfg, last = _stiffness_failure(monkeypatch, "constant(1e-6)")
    assert last.t == 0.0 and err.t == 0.0
    assert err.location == (0,)
    # dt_init = 0.02 halves through 0.01 and 0.005 = dt_min to 0.0025
    assert err.dt == cfg.dt_min / 2.0 == 0.0025


def test_stiffness_error_carries_location_after_accepted_steps(monkeypatch):
    # S is a bump on a floor of 1e-6: the floor's far end runs out first,
    # after some accepted steps, so t, dt and the index are all nontrivial
    err, _, last = _stiffness_failure(
        monkeypatch, "bump(0.3, 0.1, 1.0, floor=1e-6)")
    assert last.t > 0.0
    assert err.location != (0,)


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
    with pytest.raises(AssumptionError) as err:
        run(cfg)
    assert err.value.failed_items == ["A4i-infection-seed"]


def test_a_run_past_max_steps_is_refused(tmp_path, capsys):
    # the message names the key, how far the run got and where it was going
    cfg = preset_config("thm-2.11-persist", {"solver.max_steps": "5"})
    with pytest.raises(NumericsError) as err:
        run(cfg)
    assert err.value.payload["steps"] == 5
    t = err.value.payload["t"]
    assert 0.0 < t < 40.0
    message = (f"solver.max_steps = 5 exhausted at t = {t:.10g}, before "
               f"t_end = 40 (5 steps accepted, 0 rejected)")
    assert str(err.value) == message
    assert cli_main(["preset", "thm-2.11-persist", "--override",
                     "solver.max_steps=5", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("overrides, message", [
    (["initial.S=constant(1e160)"],
     "the initial data (sup 1e+160) overflow the mass or L2 norm of the first "
     "diagnostics row"),
    (["initial.S=constant(1e154)"],  # each square fits, their sum does not
     "the initial data (sup 1e+154) overflow the mass or L2 norm of the first "
     "diagnostics row"),
    (["initial.S=constant(1e70)", "model.p=2.5", "model.q=2.5"],
     "sup(S, I) = 1e+70 leaves no positive reaction step cap")],
    ids=["square", "sum", "step-cap"])
def test_huge_finite_data_fail_typed_before_the_first_step(tmp_path, capsys,
                                                          overrides, message):
    # no numpy warning (an error under this suite) and no OverflowError
    args = [arg for item in overrides for arg in ("--override", item)]
    assert cli_main(["preset", "thm-2.10-i", *args, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_every_finite_reaction_step_cap_keeps_its_formula():
    stepper = Stepper(preset_config("thm-2.10-i").model, Domain((1.0,), (8,)))
    sigma, power_sum = stepper._sigma, stepper._cap_power
    for sup in (-1.0, 0.0, 0.37, 1.0, 12.5, 1e60, 1e100):
        m = max(sup, 0.0)
        assert stepper.reaction_dt_cap(sup) == 0.5 / (sigma * (1.0 + m ** power_sum))
    for sup in (1e200, math.nan):
        with pytest.raises(NumericsError, match="no positive reaction step cap"):
            stepper.reaction_dt_cap(sup)


def test_a_nan_coefficient_built_in_code_fails_a1_and_stops_the_run_at_zero():
    # a field built in code skips the config checks; its declared bounds
    # hold, but half of its samples are NaN
    cfg = preset_config("thm-2.11-persist", {"solver.t_end": "1.0"})
    half_nan = CoefficientField(1.0, 2.0, None,
                                lambda x, t: np.where(x < 0.5, np.nan, 2.0))
    cfg = dataclasses.replace(cfg, model=dataclasses.replace(cfg.model, beta=half_nan))
    S0, I0 = cfg.initial_arrays()
    report = validate_assumptions(cfg.model, SystemState(S0, I0, 0.0), cfg.domain)
    assert (report[A1].status, report[A1].detail) == ("fail", "bounds violated for beta")
    with pytest.raises(NumericsError) as err:
        run(cfg)
    assert err.value.payload["t"] == 0.0


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
                                   "domain.n": "24 24"})
    traj = run(cfg)
    mass = traj.mass
    assert np.abs(mass - mass[0]).max() <= 1e-10 * mass[0]
    assert traj.floor_S >= 0 and traj.floor_I >= 0
