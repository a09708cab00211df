import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.integrate import solve_ivp

from sqip.errors import DomainError, NumericsError
from sqip.runner import si_sweep_rows, sis_sweep_rows
from sqip.ode import (BOTH_TO_ZERO, S_HITS_ZERO, S_POSITIVE_LIMIT,
                      SETTLE_CHECK_WINDOW, SiOdeParams, SisOdeParams, _Batch,
                      extinction_time_bound, n_star, settle_batch,
                      si_classify, sis_classify, sis_steady_states)


# ------------------------------------------------------------- SI system

def test_si_classify_equality_case():
    # mu*p*S0^(1-q) = 1*1*1 = (1-q)*beta*I0^p = 0.5*2*1: knife edge
    params = SiOdeParams(beta=2, mu=1, p=1, q=0.5, S0=1, I0=1)
    out = si_classify(params)
    assert out.kind == BOTH_TO_ZERO
    assert out.rule == "depletion-balance-equality"


def test_si_classify_finite_time_hit():
    params = SiOdeParams(beta=1, mu=1, p=1, q=0.5, S0=1, I0=4)
    out = si_classify(params)
    assert out.kind == S_HITS_ZERO
    assert out.t_upper == pytest.approx(math.log(2.0), abs=1e-14)


def test_si_classify_sublinear_p():
    out = si_classify(SiOdeParams(beta=1, mu=1, p=0.5, q=1, S0=1, I0=1))
    assert out.kind == BOTH_TO_ZERO
    out = si_classify(SiOdeParams(beta=0.3, mu=2, p=0.7, q=3, S0=2, I0=0.5))
    assert out.kind == BOTH_TO_ZERO


def test_si_classify_superlinear():
    out = si_classify(SiOdeParams(beta=1, mu=1, p=2, q=1.5, S0=1, I0=1))
    assert out.kind == S_POSITIVE_LIMIT


def test_si_classify_unclassified_corner():
    # q < 1, p >= 1, balance reversed but decay margin too weak
    params = SiOdeParams(beta=2, mu=1, p=1.5, q=0.5, S0=1, I0=1)
    lhs = params.mu * params.p * params.S0 ** 0.5
    rhs = 0.5 * params.beta * params.I0**1.5
    assert lhs > rhs  # not the finite-time case
    out = si_classify(params)
    assert out.kind == "Unclassified"


def test_extinction_time_bound_worked_example():
    # solve 1 + 2(e^-t - 1) = 0 by hand: t = ln 2
    params = SiOdeParams(beta=1, mu=1, p=1, q=0.5, S0=1, I0=4)
    assert extinction_time_bound(params) == pytest.approx(math.log(2.0),
                                                          abs=1e-14)


def test_extinction_time_bound_rejects_equality():
    params = SiOdeParams(beta=2, mu=1, p=1, q=0.5, S0=1, I0=1)
    with pytest.raises(DomainError):
        extinction_time_bound(params)


def test_extinction_time_bound_precondition_arithmetic():
    # mu*p*S0^(1-q) = 4 >= (1-q)*beta*I0^p = 2: precondition rejects, so
    # the impossible log argument is never reached
    params = SiOdeParams(beta=1, mu=2, p=2, q=0.5, S0=1, I0=2)
    with pytest.raises(DomainError) as err:
        extinction_time_bound(params)
    assert "4" in str(err.value) and "2" in str(err.value)


def test_extinction_time_bound_needs_fractional_q():
    with pytest.raises(DomainError):
        extinction_time_bound(SiOdeParams(beta=1, mu=1, p=1, q=1.5, S0=1, I0=4))


def test_si_rk4_clamp_time_within_bound():
    params = SiOdeParams(beta=1, mu=1, p=1, q=0.5, S0=1, I0=4)
    report = settle_batch([params], dt=1e-3, t_max=2.0)
    assert report.clamp_time[0] <= math.log(2.0) + 0.01, "S never reached zero"
    assert report.y[0, 0] == 0.0


def test_si_params_validated():
    with pytest.raises(DomainError):
        SiOdeParams(beta=1, mu=0, p=1, q=1, S0=1, I0=1)


ODE_FIELDS = ([(SiOdeParams, f.name) for f in dataclasses.fields(SiOdeParams)]
              + [(SisOdeParams, f.name) for f in dataclasses.fields(SisOdeParams)])


BAD_VALUES = [math.nan, math.inf, 0.0, -1.0]


@pytest.mark.parametrize("value", BAD_VALUES)
@pytest.mark.parametrize("cls, name", ODE_FIELDS,
                         ids=[f"{cls.__name__}-{name}" for cls, name in ODE_FIELDS])
def test_a_non_finite_ode_parameter_is_refused(cls, name, value):
    good = {"beta": 1.0, "mu": 1.0, "gamma": 1.0, "p": 1.0, "q": 0.5,
            "N": 2.0, "S0": 1.0, "I0": 1.0}
    fields = {f.name: good[f.name] for f in dataclasses.fields(cls)}
    cls(**fields)
    with pytest.raises(DomainError, match=f"(^{name} |S0={value})"):
        cls(**dict(fields, **{name: value}))


# ------------------------------------------------------------ SIS system

def test_n_star_values():
    assert n_star(2, 1, 1) == pytest.approx(0.25, abs=1e-15)
    assert n_star(2, 1, 2) == pytest.approx(1.0, abs=1e-15)
    assert n_star(3, 1, 1) == pytest.approx(4.0 / 27.0, abs=1e-15)


def test_n_star_monotone_in_total_mass():
    rng = np.random.default_rng(21)
    for _ in range(50):
        p = float(rng.uniform(1.05, 3.0))
        q = float(rng.uniform(0.2, 2.5))
        n1 = float(rng.uniform(0.2, 3.0))
        n2 = n1 * float(rng.uniform(1.01, 2.0))
        assert n_star(p, q, n2) > n_star(p, q, n1)


def test_n_star_needs_superlinear_p():
    with pytest.raises(DomainError):
        n_star(1.0, 1.0, 1.0)


@pytest.mark.parametrize("value", BAD_VALUES)
@pytest.mark.parametrize("name", ["p", "q", "N"])
def test_n_star_refuses_a_bad_argument(name, value):
    args = dict({"p": 2.0, "q": 1.0, "N": 1.0}, **{name: value})
    with pytest.raises(DomainError, match=f"(^| ){name}[ =]"):
        n_star(**args)


def test_sis_steady_states_bistable_pair():
    # S(1-S) = 0.21 solves to S in {0.3, 0.7}
    params = SisOdeParams(beta=1, gamma=0.21, p=2, q=1, N=1, S0=0.5)
    states = sis_steady_states(params)
    assert len(states.interior) == 2
    low, high = states.interior
    assert low.S == pytest.approx(0.3, abs=1e-10)
    assert high.S == pytest.approx(0.7, abs=1e-10)
    assert low.I == pytest.approx(0.7, abs=1e-10)
    assert abs(low.S - high.S) > 1e-8
    assert low.stability == ("attracting-from-below", "attracting-from-above")
    assert high.stability == ("repelling",)
    assert states.boundary.S == 1.0
    assert "attracting-from-below" in states.boundary.stability


def test_sis_steady_state_residuals():
    rng = np.random.default_rng(30)
    for _ in range(20):
        p = float(rng.uniform(1.2, 2.5))
        q = float(rng.uniform(0.4, 2.0))
        N = float(rng.uniform(0.5, 2.0))
        beta = float(rng.uniform(0.5, 2.0))
        gamma = 0.7 * beta * n_star(p, q, N)
        params = SisOdeParams(beta=beta, gamma=gamma, p=p, q=q, N=N, S0=0.5 * N)
        for st in sis_steady_states(params).interior:
            residual = abs(-beta * st.S**q * st.I**p + gamma * st.I)
            assert residual <= 1e-10


def test_sis_unique_state_linear_p():
    params = SisOdeParams(beta=2, gamma=1, p=1, q=1, N=1, S0=0.9)
    states = sis_steady_states(params)
    assert len(states.interior) == 1
    assert states.interior[0].S == pytest.approx(0.5, abs=1e-12)  # (gamma/beta)^(1/q)


def test_sis_no_interior_state_above_threshold():
    params = SisOdeParams(beta=1, gamma=0.3, p=2, q=1, N=1, S0=0.5)
    assert len(sis_steady_states(params).interior) == 0  # gamma > beta*N* = 0.25


def test_sis_count_transitions_across_threshold():
    # steady-state count steps 2 -> 1 -> 0 as gamma crosses beta*N*
    fold = 1.0 * n_star(2, 1, 1)
    counts = []
    for gamma in (0.8 * fold, fold, 1.2 * fold):
        params = SisOdeParams(beta=1, gamma=gamma, p=2, q=1, N=1, S0=0.5)
        counts.append(len(sis_steady_states(params).interior))
    assert counts == [2, 1, 0]


def test_sis_tangent_state_semistable():
    fold = n_star(2, 1, 1)
    params = SisOdeParams(beta=1, gamma=fold, p=2, q=1, N=1, S0=0.5)
    (state,) = sis_steady_states(params).interior
    assert state.S == pytest.approx(0.5, abs=1e-12)  # peak of S(1-S)
    assert "semi-stable" in state.stability


def test_sis_sublinear_always_unique():
    rng = np.random.default_rng(31)
    for _ in range(20):
        params = SisOdeParams(beta=float(rng.uniform(0.5, 2)),
                              gamma=float(rng.uniform(0.05, 3)),
                              p=float(rng.uniform(0.2, 0.9)),
                              q=float(rng.uniform(0.4, 2)),
                              N=float(rng.uniform(0.5, 2)), S0=0.3)
        states = sis_steady_states(params)
        assert len(states.interior) == 1
        st = states.interior[0]
        assert st.stability == ("attracting-from-below", "attracting-from-above")


def test_a_sublinear_root_closer_to_n_than_a_float_is_refused():
    # the gain at the last float below N stays under gamma; the search for
    # a larger one must end instead of halving in place
    params = SisOdeParams(beta=0.23556394851112603, gamma=2.898768620459333,
                          p=0.9372286229348794, q=0.3093009083271088,
                          N=2.293382516860277, S0=0.4260845551568494)
    with pytest.raises(NumericsError, match="gain never exceeded gamma"):
        sis_steady_states(params)


def test_an_upper_root_within_a_float_spacing_of_n_is_refused():
    # p just above 1 puts the upper root closer to N than the float below
    # N; no float stands for it, so a start between it and N would be
    # placed in the wrong basin
    points = [
        # true root 4.2e-16 below N = 2.8456, where the float spacing is
        # 4.4e-16
        dict(p=1.0589316548419363, q=1.511500236015866, N=2.8456012647555977,
             beta=1.0496326339218107, gamma=0.6329506915522994),
        # true root 1 - 5.4e-20: g - gamma is 0.19 at the float below 1
        dict(beta=2, gamma=1, p=1.015625, q=1, N=1)]
    for point in points:
        params = SisOdeParams(**point, S0=0.5 * point["N"])
        for call in (sis_steady_states, sis_classify):
            with pytest.raises(NumericsError, match="within a float spacing"):
                call(params)


def test_an_upper_root_a_few_float_spacings_below_n_is_found():
    # true upper root 3.9e-16 below N = 1, three and a half spacings of
    # the floats below 1; the bracket [s_peak, N] straddles gamma since
    # g(N) = 0
    params = SisOdeParams(beta=1, gamma=0.33, p=1.03125, q=1, N=1, S0=0.5)
    low, high = sis_steady_states(params).interior
    assert low.S < high.S < params.N
    assert params.N - high.S < 1e-13
    out = sis_classify(params)
    assert (out.limit_S, out.case) == (low.S, "bistable-lower-basin")


def test_a_start_between_the_upper_root_and_n_goes_by_the_flow_sign():
    # the upper root of this point lies 3.9e-16 below N = 1; at S0 = 1 -
    # 2e-15, below it, gamma - g(S0) = -0.017 < 0, so S falls into the
    # lower basin. Only a root placed to float resolution puts S0 below it.
    S0 = 1 - 2e-15
    params = SisOdeParams(beta=1, gamma=0.33, p=1.03125, q=1, N=1, S0=S0)
    assert params.gamma - S0 * (1 - S0) ** 0.03125 < 0
    _, high = sis_steady_states(params).interior
    assert S0 < high.S
    assert sis_classify(params).case == "bistable-lower-basin"


def test_a_lower_root_below_the_search_floor_is_found():
    # gamma = 3e-20 puts the lower root near 1e-65, below the 1e-13*N
    # where the bisection starts; it must keep its digits there
    params = SisOdeParams(beta=1, gamma=3.1637527173477554e-20, p=2.5, q=0.3,
                          N=1, S0=0.5)
    low, high = sis_steady_states(params).interior
    assert 0 < low.S < 1e-60 and high.S < params.N
    assert low.S**0.3 * (1 - low.S) ** 1.5 == pytest.approx(params.gamma,
                                                            rel=1e-12)
    out = sis_classify(params)
    assert (out.limit_S, out.case) == (low.S, "bistable-lower-basin")


def _flow_tags(below: float, above: float) -> tuple[str, ...]:
    """Tags of a state from the flow's sign just below and just above it."""
    if below > 0 and above < 0:
        return ("attracting-from-below", "attracting-from-above")
    if (below > 0) != (above < 0):
        return ("semi-stable",
                "attracting-from-below" if below > 0 else "attracting-from-above")
    return ("repelling",)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(p=st.one_of(st.floats(0.3, 2.5), st.just(1.0)), q=st.floats(0.3, 2.5),
       N=st.floats(0.3, 3.0), beta=st.floats(0.2, 2.5),
       gap=st.floats(-13.0, -0.05),
       excess=st.one_of(st.just(1.0), st.floats(1.0, 2.0)))
def test_each_tag_matches_the_flow_between_the_states(p, q, N, beta, gap, excess):
    # S' = (N-S)*(gamma - g(S)), so the sign of gamma - g at the midpoint
    # of each interval between consecutive states is the flow's direction
    # there. gamma = g(root) puts a root 10**gap * N below N (for p > 1,
    # the upper root), so near-N roots are common but stay farther from N
    # than the 1e-14 * N root tolerance; a root closer to N than any float
    # has no midpoint between it and N. excess > 1 moves the roots of
    # p >= 1 or removes them.
    def g(S):
        return beta * S**q * (N - S) ** (p - 1.0)

    root = N * (1.0 - 10.0**gap)
    assume(p <= 1 or root > q * N / (p - 1.0 + q))
    gamma = g(root) * (excess if p >= 1 else 1.0)
    params = SisOdeParams(beta=beta, gamma=gamma, p=p, q=q, N=N, S0=0.5 * N)
    try:
        states = sis_steady_states(params)
    except NumericsError:
        return  # a refused point has no tags
    points = [0.0] + [state.S for state in states.interior] + [N]
    signs = [gamma - g(0.5 * (a + b)) for a, b in zip(points, points[1:])]
    for k, state in enumerate(states.interior):
        assert state.stability == _flow_tags(signs[k], signs[k + 1])
    attracts = "attracting-from-below" in states.boundary.stability
    assert attracts == (signs[-1] > 0)


@pytest.mark.parametrize("point, interior_tags, boundary_tags", [
    # the upper root lies 2.8e-13 below N, about 640 float spacings
    (dict(p=1.0589316548419363, q=1.511500236015866, N=2.8456012647555977,
          beta=1.0496326339218107, gamma=0.9293607012181807),
     [("attracting-from-below", "attracting-from-above"), ("repelling",)],
     ("boundary", "attracting-from-below")),
    (dict(p=1.057786269335985, q=0.5757466096149991, N=2.685230580810617,
          beta=2.4098931351074935, gamma=1.6749381152614309),
     [("attracting-from-below", "attracting-from-above"), ("repelling",)],
     ("boundary", "attracting-from-below")),
    (dict(p=0.9330232236299589, q=2.086063867128976, N=0.4138914753480738,
          beta=0.2584689023798952, gamma=0.2226112958170529),
     [("attracting-from-below", "attracting-from-above")],
     ("boundary",))],
    ids=["upper-root-repels", "boundary-attracts", "boundary-does-not-attract"])
def test_a_root_near_n_gets_the_tags_of_the_root_structure(point, interior_tags,
                                                           boundary_tags):
    states = sis_steady_states(SisOdeParams(**point, S0=0.1 * point["N"]))
    assert states.interior[-1].S > point["N"] * (1 - 1e-7)
    assert [state.stability for state in states.interior] == interior_tags
    assert states.boundary.stability == boundary_tags


def test_sis_classify_spot_checks():
    params = SisOdeParams(beta=1, gamma=0.21, p=2, q=1, N=1, S0=0.75)
    out = sis_classify(params)
    assert (out.limit_S, out.limit_I) == (1.0, 0.0)
    out = sis_classify(dataclasses.replace(params, S0=0.5))
    assert out.limit_S == pytest.approx(0.3, abs=1e-10)
    assert out.limit_I == pytest.approx(0.7, abs=1e-10)
    # a start on the upper root, which bisection finds as 0.7 exactly
    out = sis_classify(dataclasses.replace(params, S0=0.7))
    assert out.case == "bistable-separatrix"
    assert (out.limit_S, out.limit_I) == (0.7, pytest.approx(0.3, abs=1e-12))


@pytest.mark.parametrize("S0, case, limit", [
    (0.3, "tangent-state", (0.5, 0.5)),
    (0.5, "tangent-state", (0.5, 0.5)),
    (0.7, "tangent-above", (1.0, 0.0))])
def test_sis_classify_at_the_fold(S0, case, limit):
    # gamma = beta*N* exactly: the tangent state attracts from below only.
    # The closed form alone: from below the flow nears it like 1/t, so the
    # oracle is still at S = 0.4968, unconverged, at t = 600 from S0 = 0.3.
    params = SisOdeParams(beta=1, gamma=n_star(2, 1, 1), p=2, q=1, N=1, S0=S0)
    out = sis_classify(params)
    assert (out.case, (out.limit_S, out.limit_I)) == (case, limit)


def test_sis_classify_sublinear():
    params = SisOdeParams(beta=1, gamma=0.1, p=0.5, q=1, N=1, S0=0.9)
    out = sis_classify(params)
    assert 0 < out.limit_S < 1
    assert out.case == "endemic-sublinear"


# ------------------------------------------------------------- oracle

def test_rk4_sis_terminal_equilibrium():
    params = SisOdeParams(beta=2, gamma=1, p=1, q=1, N=1, S0=0.9)
    report = settle_batch([params], dt=1e-3, t_max=50.0)
    assert report.y[0, 0] == pytest.approx(0.5, abs=1e-6)
    assert report.y[0, 1] == pytest.approx(0.5, abs=1e-6)


def test_rk4_sis_conserves_total():
    params = SisOdeParams(beta=1.3, gamma=0.4, p=1.7, q=0.8, N=1.5, S0=1.0)
    sums = [settle_batch([params], dt=1e-3, t_max=t_max).y[0].sum()
            for t_max in np.linspace(1.0, 10.0, 10)]
    assert np.abs(np.array(sums) - params.N).max() <= 1e-10 * params.N


def test_rk4_reduced_matches_full():
    # the full pair's oracle runs against a tight DOP853 solve of the
    # scalar conserved-sum flow S' = -beta*S^q*(N-S)^p + gamma*(N-S)
    params = SisOdeParams(beta=1, gamma=0.21, p=2, q=1, N=1, S0=0.45)
    reports = [settle_batch([params], dt=1e-3, t_max=t_max)
               for t_max in np.linspace(3.0, 30.0, 10)]
    t_reached = np.array([report.t_reached[0] for report in reports])
    S = np.array([report.y[0, 0] for report in reports])

    def flow(t, S):
        I = params.N - S
        return -params.beta * S**params.q * I**params.p + params.gamma * I

    reduced = solve_ivp(flow, (0.0, t_reached[-1]), [params.S0], method="DOP853",
                        t_eval=t_reached, rtol=1e-12, atol=1e-14)
    assert np.abs(S - reduced.y[0]).max() < 1e-9


def test_rk4_rejects_unknown_system():
    # only an SiOdeParams or an SisOdeParams names its system
    params = SisOdeParams(beta=1, gamma=1, p=1, q=1, N=1, S0=0.5)
    for unknown in (vars(params), SimpleNamespace(**vars(params), I0=0.5)):
        with pytest.raises(DomainError, match="points of one system"):
            settle_batch([unknown], dt=0.1, t_max=1.0)


def test_a_batch_of_two_systems_is_refused():
    # each row would otherwise run under the first point's equations
    si = SiOdeParams(beta=1, mu=1, p=1, q=1, S0=0.9, I0=0.1)
    sis = SisOdeParams(beta=1, gamma=1, p=1, q=1, N=1, S0=0.9)
    for points in ([si, sis], [sis, si], []):
        with pytest.raises(DomainError, match="points of one system"):
            settle_batch(points)


@pytest.mark.parametrize("value", BAD_VALUES)
@pytest.mark.parametrize("name", ["dt", "t_max"],
                         ids=lambda name: f"settle_batch-{name}")
def test_a_bad_oracle_time_input_is_refused(name, value):
    params = SisOdeParams(beta=1, gamma=0.5, p=1, q=1, N=1, S0=0.5)
    with pytest.raises(DomainError, match=f"^{name} must be positive and finite"):
        settle_batch([params], **{name: value})


def _point_params(system, p, q, beta, rate, S0, I0):
    """An SI point, or an SIS point with N = S0 + I0."""
    if system == "si":
        return SiOdeParams(beta=beta, mu=rate, p=p, q=q, S0=S0, I0=I0)
    return SisOdeParams(beta=beta, gamma=rate, p=p, q=q, N=S0 + I0, S0=S0)


_point = st.tuples(st.floats(0.3, 2.5), st.floats(0.3, 2.0), st.floats(0.3, 2.0),
                   st.floats(0.1, 2.0), st.floats(0.05, 2.0), st.floats(0.05, 2.0))


@settings(max_examples=15, deadline=None, derandomize=True)
@given(system=st.sampled_from(["si", "sis"]),
       points=st.lists(_point, min_size=2, max_size=6), index=st.integers(0, 5))
def test_a_point_gets_the_same_bits_alone_and_inside_a_batch(system, points, index):
    # each row keeps its own t and step, so its neighbours change nothing
    params = [_point_params(system, *pt) for pt in points]
    index %= len(points)
    together = settle_batch(params, t_max=20.0)
    alone = settle_batch(params[index:index + 1], t_max=20.0)
    for field in ("y", "t_reached", "converged", "clamp_time", "steps_accepted",
                  "steps_rejected"):
        assert np.array_equal(getattr(alone, field)[0],
                              getattr(together, field)[index], equal_nan=True), field


@settings(max_examples=20, deadline=None, derandomize=True)
@given(system=st.sampled_from(["si", "sis"]),
       points=st.lists(_point, min_size=1, max_size=6),
       t_max=st.floats(0.0, SETTLE_CHECK_WINDOW, exclude_min=True))
def test_a_run_within_the_first_checkpoint_lands_every_row_on_t_max(system, points,
                                                                   t_max):
    # run_ode_preset reads the oracle's state at t_end off such a run
    report = settle_batch([_point_params(system, *pt) for pt in points], t_max=t_max)
    assert (report.t_reached == t_max).all()


REFERENCE_DT = 0.0025


def _fixed_step_rk4(system, params_batch, y0, stops):
    """The fixed-step RK4 loop the oracle used to run, kept as a reference.

    Steps of at most REFERENCE_DT land on each stop time; returns the
    state at each stop and each row's first S-clamp time (SI clamps a
    negative S at zero, as the oracle does).
    """
    prm = SimpleNamespace(**{k: np.asarray(v, dtype=float)
                             for k, v in params_batch.items()})

    def rhs(y):
        clipped = np.maximum(y, 0.0)
        S, I = clipped[:, 0], clipped[:, 1]
        incidence = prm.beta * S**prm.q * I**prm.p
        removal = (prm.mu if system == "si" else prm.gamma) * I
        out = np.empty_like(y)
        out[:, 0] = -incidence if system == "si" else removal - incidence
        out[:, 1] = incidence - removal
        return out

    y = np.array(y0, dtype=float)
    clamp_time = np.full(len(y), np.nan)
    t, states = 0.0, {}
    for stop in stops:
        n = math.ceil((stop - t) / REFERENCE_DT)
        dt = (stop - t) / n
        for i in range(1, n + 1):
            k1 = rhs(y)
            k2 = rhs(y + 0.5 * dt * k1)
            k3 = rhs(y + 0.5 * dt * k2)
            k4 = rhs(y + dt * k3)
            y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if system == "si":
                fresh = (y[:, 0] < 0.0) & np.isnan(clamp_time)
                clamp_time[fresh] = t + i * dt
                y = np.maximum(y, 0.0)
        t = stop
        states[stop] = y
    return states, clamp_time


@pytest.mark.parametrize("system, maker", [("si", si_sweep_rows),
                                           ("sis", sis_sweep_rows)])
def test_settle_batch_matches_the_fixed_step_reference(system, maker):
    # SIS terminal S at the same checkpoint to 1e-8, SI clamp times to 0.01
    rows = maker(count=30)
    if system == "si":
        params = [SiOdeParams(beta=r["beta"], mu=r["gamma_or_mu"], p=r["p"], q=r["q"],
                              S0=r["S0"], I0=r["N_or_I0"]) for r in rows]
    else:
        params = [SisOdeParams(beta=r["beta"], gamma=r["gamma_or_mu"], p=r["p"],
                               q=r["q"], N=r["N_or_I0"], S0=r["S0"]) for r in rows]
    batch = {name: [getattr(prm, name) for prm in params]
             for name in ("p", "q", "beta", "mu" if system == "si" else "gamma")}
    y0 = [[prm.S0, prm.I0] for prm in params]
    report = settle_batch(params, t_max=30.0)
    states, clamp_time = _fixed_step_rk4(system, batch, y0, [5.0 * k for k in range(1, 7)])
    if system == "sis":
        reference = np.array([states[t][i, 0] for i, t in enumerate(report.t_reached)])
        assert np.abs(report.y[:, 0] - reference).max() <= 1e-8
    else:
        assert np.array_equal(np.isnan(report.clamp_time), np.isnan(clamp_time))
        assert (~np.isnan(clamp_time)).sum() >= 10
        assert np.nanmax(np.abs(report.clamp_time - clamp_time)) <= 0.01


def test_a_step_that_cannot_move_t_is_refused(monkeypatch):
    # with a zero tolerance every step is rejected and shrinks to nothing
    monkeypatch.setattr("sqip.ode.STEP_TOL", 0.0)
    params = SisOdeParams(beta=2.0, gamma=1.0, p=1.0, q=1.0, N=1.0, S0=0.9)
    with np.errstate(divide="ignore", invalid="ignore"), \
            pytest.raises(NumericsError, match="step size underflow in row 0") as info:
        settle_batch([params], dt=0.01, t_max=5.0)
    assert info.value.payload == {"row": 0, "t": 0.0, "h": 0.0}


def test_settle_batch_freezes_converged_points():
    points = [SisOdeParams(beta=2.0, gamma=1.0, p=1.0, q=1.0, N=1.0, S0=0.9),
              SisOdeParams(beta=1.0, gamma=0.21, p=2.0, q=1.0, N=1.0, S0=0.75)]
    report = settle_batch(points, dt=0.01, t_max=300.0)
    assert report.converged.all()
    assert report.y[0, 0] == pytest.approx(0.5, abs=1e-4)
    assert report.y[1, 0] == pytest.approx(1.0, abs=1e-4)


@pytest.mark.parametrize("maker, busiest", [(si_sweep_rows, 286),
                                            (sis_sweep_rows, 154)])
def test_no_row_waits_for_another(monkeypatch, maker, busiest):
    # each batch step makes one attempt per moving row toward that row's
    # own stop, so the reference sweeps take as many batch steps as their
    # busiest row takes attempts
    calls = []
    attempt = _Batch.attempt

    def counted(self, stop, moving):
        calls.append(int(moving.sum()))
        return attempt(self, stop, moving)

    monkeypatch.setattr(_Batch, "attempt", counted)
    rows = maker()
    attempts = [row["steps_accepted"] + row["steps_rejected"] for row in rows]
    assert len(calls) == max(attempts) == busiest
    assert sum(calls) == sum(attempts)


def test_a_row_that_settles_early_keeps_its_bits_beside_one_that_runs_on():
    early = SisOdeParams(beta=2.0, gamma=1.0, p=1.0, q=1.0, N=1.0, S0=0.9)
    # near the threshold beta*N = gamma, I approaches 0.001 at rate 0.001
    late = SisOdeParams(beta=1.0, gamma=0.999, p=1.0, q=1.0, N=1.0, S0=0.5)
    together = settle_batch([early, late], t_max=100.0)
    assert together.converged.tolist() == [True, False]
    assert together.t_reached.tolist() == [20.0, 100.0]
    for index, point in enumerate((early, late)):
        alone = settle_batch([point], t_max=100.0)
        for field in dataclasses.fields(alone):
            assert np.array_equal(getattr(alone, field.name)[0],
                                  getattr(together, field.name)[index],
                                  equal_nan=True), field.name
