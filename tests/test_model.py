import math
import re
from fractions import Fraction

import numpy as np
import pytest

from sqip.errors import ConfigError
from sqip.grid import Domain
from sqip.model import (MANDATORY_ITEMS, CoefficientField, Exponents,
                        Incidence, ModelSpec, classify_exponents,
                        read_coefficient_table, validate_assumptions)
from sqip.presets import preset_config
from sqip.solver import SystemState
from sqip.spectral import LinearizedProblem

from conftest import summary_block, write_coefficient_table


# ---------------------------------------------------------------- incidence

def test_power_incidence_values():
    kind = Incidence("power", q=1, p=2)
    assert kind.kernel(2.0, 0.0) == 0.0
    assert kind.kernel(2.0, 3.0) == 18.0  # 2 * 3^2 by hand


def test_binomial_k_zero():
    assert Incidence("binomial", k=0.0).kernel(5.0, 7.0) == 0.0


def test_media_zero_infection():
    assert Incidence("media", q=1, p=1, ell=0).kernel(1.0, 0.0) == 0.0


def test_all_variants_vanish_at_zero():
    kinds = [Incidence("power", q=0.5, p=0.5), Incidence("binomial", k=2.0),
             Incidence("saturated", q=1, p=2, ell=3),
             Incidence("media", q=0.7, p=0.3, ell=1)]
    for kind in kinds:
        assert kind.kernel(0.0, 1.3) == 0.0
        assert kind.kernel(1.3, 0.0) == 0.0


def test_incidence_monotone_in_susceptibles():
    # nondecreasing in S for fixed I, every variant, on a sample lattice
    kinds = [Incidence("power", q=0.5, p=2), Incidence("power", q=2, p=0.5),
             Incidence("binomial", k=1.5),
             Incidence("saturated", q=1, p=1, ell=2),
             Incidence("media", q=1, p=2, ell=1)]
    S = np.linspace(0, 4, 41)
    for kind in kinds:
        for I in (0.0, 0.3, 1.0, 5.0):
            vals = kind.kernel(S, np.full_like(S, I))
            assert (np.diff(vals) >= -1e-14).all(), kind.variant


def test_incidence_vectorized_matches_scalar():
    kind = Incidence("media", q=1.2, p=0.8, ell=2.0)
    S = np.array([0.0, 0.5, 2.0])
    I = np.array([1.0, 0.0, 3.0])
    vec = kind.kernel(S, I)
    for i in range(3):
        assert vec[i] == pytest.approx(
            kind.kernel(float(S[i]), float(I[i])), abs=1e-15)


# ------------------------------------------------------------------ regimes

def test_classify_examples():
    assert classify_exponents(Exponents(p=2, q=1)).label == "H1-i"
    assert classify_exponents(Exponents(p=1, q=1)).label == "H1-ii"
    assert classify_exponents(Exponents(p=0.5, q=1)).label == "H2-i"


def test_classify_priority_and_flags():
    rep = classify_exponents(Exponents(p=2, q=1))
    assert rep.label != "none"
    assert not rep.needs_dual_floor
    assert rep.dissipativity_assured
    # the (1,1,0,1) case is dissipative because p = r = 1
    assert classify_exponents(Exponents(p=1, q=1)).dissipativity_assured


def test_classify_dual_regimes():
    rep = classify_exponents(Exponents(p=1, q=1, s=2, r=2))
    assert rep.label == "H1-iii"  # s=2 > q=1, sp-rq = 0 <= s-q = 1
    assert rep.needs_dual_floor
    rep = classify_exponents(Exponents(p=0.5, q=2, s=2, r=1))
    assert rep.label == "H1-iv"
    assert not rep.dissipativity_assured  # needs q = s = 1
    rep2 = classify_exponents(Exponents(p=0.5, q=1.0, s=1.0, r=1.0))
    assert rep2.label == "H1-iv" and rep2.dissipativity_assured


def test_classify_none_exists():
    # p just below r with heavy s: H1 fails, H2-ii needs s < 1
    rep = classify_exponents(Exponents(p=1.0, q=0.5, s=2.0, r=1.5))
    assert rep.label in ("none", "H1-iii")  # s > q, sp - rq = 1.25 > 1.5? no
    # construct a definite none: p=r excluded by s>q failing both branches
    rep = classify_exponents(Exponents(p=3, q=0.5, s=4, r=3.5))
    # H1-i: p > r false; H1-iii: sp-rq = 12-1.75 > s-q = 3.5 -> false
    assert rep.label == "none"


def test_si_specialization_always_covered():
    # s=0, r=1 is covered by a bound regime for every p > 0, q >= 1
    rng = np.random.default_rng(11)
    for _ in range(200):
        p = float(rng.uniform(0.05, 4.0))
        q = float(rng.uniform(1.0, 4.0))
        rep = classify_exponents(Exponents(p=p, q=q))
        assert rep.label != "none", (p, q)


def test_h1i_inequality_exact_in_rational_arithmetic():
    # every float classification into H1-i is confirmed by exact
    # fraction arithmetic when the inputs are rational
    rng = np.random.default_rng(5)
    checked = 0
    while checked < 100:
        vals = [Fraction(int(rng.integers(0, 33)), int(rng.integers(1, 17)))
                for _ in range(4)]
        p, q, s, r = vals
        if p <= 0 or q <= 0:
            continue
        rep = classify_exponents(Exponents(p=float(p), q=float(q),
                                           s=float(s), r=float(r)))
        if rep.label != "H1-i":
            continue
        assert p > r >= 0
        assert s * p - r * q <= p - r  # exact Fraction comparison
        checked += 1


def test_exponents_validation():
    with pytest.raises(ConfigError):
        Exponents(p=0, q=1)
    with pytest.raises(ConfigError):
        Exponents(p=1, q=1, s=-0.1)
    assert Exponents(p=1, q=1).is_si_specialization
    assert not Exponents(p=1, q=1, s=1, r=1).is_si_specialization


@pytest.mark.parametrize("kwargs, unread", [
    (dict(variant="binomial", q=2, p=0.5, ell=3), "q"),
    (dict(variant="power", k=7.0), "k")], ids=["binomial", "power"])
def test_incidence_refuses_a_parameter_its_kernel_never_reads(kwargs, unread):
    with pytest.raises(ConfigError, match=f"^{unread} is not read by "
                       f"incidence = {kwargs['variant']}$"):
        Incidence(**kwargs)


def test_model_exponents_come_from_the_kernel():
    flat = CoefficientField.constant(1.0)
    common = dict(beta=flat, gamma=flat, mu=flat, d_S=1.0, d_I=1.0)
    binomial = ModelSpec(incidence=Incidence("binomial", k=2), **common)
    assert binomial.exponents == Exponents(1, 1)
    saturated = ModelSpec(incidence=Incidence("saturated", q=2, p=0.5, ell=1),
                          s=1, r=2, **common)
    assert saturated.exponents == Exponents(p=0.5, q=2, s=1, r=2)
    with pytest.raises(ConfigError):
        ModelSpec(incidence=Incidence("power"), s=-0.1, **common)


# ------------------------------------------------------------- coefficients

def test_constant_field():
    f = CoefficientField.constant(2.5)
    x = np.linspace(0, 1, 7)
    assert (f(x, 0.3) == 2.5).all()
    assert f.lower == f.upper == 2.5
    assert f.is_time_constant


def test_cosine_modulated_bounds_and_period():
    f = CoefficientField.cosine_modulated(2.0, time_amp=0.5, period=1.0,
                                          space_amp=0.25, length=1.0)
    x = np.linspace(0, 1, 41)
    rng = np.random.default_rng(8)
    for t in rng.uniform(0, 7, 40):
        vals = f(x, t)
        assert vals.min() >= f.lower - 1e-12
        assert vals.max() <= f.upper + 1e-12
        assert np.abs(f(x, t + 1.0) - vals).max() < 1e-12 * max(1.0, vals.max())


def test_cosine_requires_period():
    with pytest.raises(ConfigError):
        CoefficientField.cosine_modulated(1.0, time_amp=0.5)


def test_tabulated_bilinear_within_bounds(tmp_path):
    rng = np.random.default_rng(9)
    table = rng.uniform(0.5, 2.0, (9, 5))
    path = tmp_path / "beta.txt"
    write_coefficient_table(path, table, omega=2.0)
    f = read_coefficient_table(path, length=1.0)
    assert f.period == 2.0
    assert not f.is_time_constant
    assert f.lower == table.min() and f.upper == table.max()
    x = np.linspace(0, 1, 57)
    for t in rng.uniform(0, 10, 30):
        vals = f(x, t)
        assert vals.min() >= f.lower - 1e-12
        assert vals.max() <= f.upper + 1e-12
        # periodic wrap
        assert np.abs(f(x, t + 2.0) - vals).max() < 1e-12


def test_tabulated_reproduces_nodes(tmp_path):
    table = np.array([[1.0], [2.0], [4.0]])
    path = tmp_path / "c.txt"
    write_coefficient_table(path, table, omega=None)
    f = read_coefficient_table(path, length=2.0)
    assert f(np.array([0.0, 1.0, 2.0]), 0.0) == pytest.approx([1.0, 2.0, 4.0])
    assert f(np.array([0.5]), 5.0) == pytest.approx([1.5])  # linear between rows


def test_a_field_without_period_is_time_constant():
    # Time-constancy is the absence of a period, also for fields that
    # vary in space: such a field is sampled once, not once per time.
    spatial = CoefficientField.cosine_modulated(2.0, space_amp=0.9, length=1.0)
    assert spatial.period is None and spatial.is_time_constant
    one_column = CoefficientField.tabulated(
        np.array([[1.0], [2.0], [4.0]]), length=1.0, period=None)
    assert one_column.is_time_constant
    periodic = CoefficientField.cosine_modulated(2.0, time_amp=0.5, period=1.0)
    assert not periodic.is_time_constant


def test_sample_gives_one_row_for_a_time_constant_field(coeff_calls):
    spatial = CoefficientField.cosine_modulated(2.0, space_amp=0.9, length=1.0)
    periodic = CoefficientField.cosine_modulated(
        2.0, time_amp=0.5, period=1.0, space_amp=0.9, length=1.0)
    times = np.linspace(0.0, 1.0, 5)
    dom1, dom2 = Domain((1.0,), (16,)), Domain((1.0, 2.0), (8, 6))
    (x,) = dom1.cell_centers()
    want = spatial(x, 0.0)
    coeff_calls.clear()
    assert np.array_equal(spatial.sample(dom1, times), [want])
    assert spatial.sample(dom2, times).shape == (1, 8, 1)
    assert coeff_calls == [0.0, 0.0]  # one evaluation each, at times[0]
    rows = periodic.sample(dom1, times)
    assert rows.shape == (5, 16)
    for row, t in zip(rows, times):
        assert np.array_equal(row, periodic(x, t))
    assert periodic.sample(dom2, times).shape == (5, 8, 1)


@pytest.mark.parametrize("make", [
    lambda: CoefficientField.constant(1.5),
    lambda: CoefficientField.cosine_modulated(2.0, space_amp=0.9, length=1.0),
    lambda: CoefficientField.cosine_modulated(2.0, time_amp=0.5, period=0.7),
    lambda: CoefficientField.cosine_modulated(
        2.0, time_amp=0.5, period=0.7, space_amp=-0.4, length=1.0),
    lambda: CoefficientField.tabulated(
        np.array([[1.0], [2.0], [4.0]]), length=1.0, period=None),
    lambda: CoefficientField.tabulated(
        np.array([[1.0, 3.0, 1.0], [2.0, 0.5, 2.0]]), length=1.0, period=0.7)],
    ids=["constant", "space", "time", "space-time", "table", "periodic-table"])
def test_every_coefficient_kind_varies_along_x_only(make):
    # The premise of solving a 2D spectral problem on its x axis: on a
    # rectangle every sample is constant along axis 1 and equals the
    # sample on the x axis alone.
    field, times = make(), np.array([0.0, 0.2, 0.45])
    sample = field.sample(Domain((1.0, 2.0), (12, 5)), times)
    rect = np.broadcast_to(sample, (len(sample), 12, 5))
    assert (rect == rect[:, :, :1]).all()
    assert np.array_equal(rect[:, :, 0],
                          field.sample(Domain((1.0,), (12,)), times))


# Amplitudes of a cosine-modulated field of base 2.0 on [0, 1.3], period 0.7.
MODULATIONS = {"none": (0.0, 0.0), "space": (0.9, 0.0), "time": (0.0, 0.5),
               "space-time": (-0.4, 0.5)}


def _modulated(space_amp, time_amp):
    return CoefficientField.cosine_modulated(
        2.0, time_amp=time_amp, period=0.7 if time_amp else None,
        space_amp=space_amp, length=1.3)


def _product(x, t, space_amp, time_amp):
    """The field's values as the full product, in the docstring's order."""
    out = np.full_like(x, 2.0)
    if space_amp:
        out = out * (1.0 + space_amp * np.cos(np.pi * x / 1.3))
    if time_amp:
        out = out * (1.0 + time_amp * math.cos(2.0 * math.pi * t / 0.7))
    return out


@pytest.mark.parametrize("cells", [(16,), (8, 5)], ids=["1d", "2d"])
@pytest.mark.parametrize("amps", MODULATIONS.values(), ids=MODULATIONS)
def test_repeated_calls_on_one_grid_give_the_bits_of_a_fresh_array(cells, amps):
    # the profile is kept for the last x; the values keep the full
    # product's bits
    field = _modulated(*amps)
    x = Domain((1.3, 1.0)[:len(cells)], cells).x_coordinate()
    times = np.linspace(0.0, 2.0, 9)
    repeated = [field(x, t) for t in times]
    for got, t in zip(repeated, times):
        assert got.shape == x.shape
        assert np.array_equal(got, _product(x, t, *amps))
        assert np.array_equal(got, field(x.copy(), t))


def test_the_spatial_cosine_is_taken_once_per_grid(monkeypatch):
    taken = []
    cos = np.cos
    monkeypatch.setattr(np, "cos", lambda x: taken.append(x.shape) or cos(x))
    field = _modulated(0.9, 0.5)
    x = Domain((1.3,), (16,)).x_coordinate()
    for t in np.linspace(0.0, 1.0, 50):
        field(x, t)
    assert taken == [(16,)]
    field(x.copy(), 0.0)  # equal values, another array
    assert taken == [(16,), (16,)]


def test_alternating_grids_each_get_their_own_values():
    field = _modulated(0.9, 0.5)
    grids = (Domain((1.3,), (16,)).x_coordinate(),
             Domain((1.3, 1.0), (7, 4)).x_coordinate(),
             Domain((2.6,), (16,)).x_coordinate())
    for t in np.linspace(0.0, 1.0, 5):
        for x in grids + grids[::-1]:
            assert np.array_equal(field(x, t), _product(x, t, 0.9, 0.5))


@pytest.mark.parametrize("amps", [(0.9, 0.0), (0.9, 0.5)],
                         ids=["time-constant", "periodic"])
def test_a_returned_array_is_the_callers_own(amps):
    field = _modulated(*amps)
    x = Domain((1.3,), (16,)).x_coordinate()
    first = field(x, 0.2)
    assert first is not field(x, 0.2)
    first[:] = -1.0
    assert np.array_equal(field(x, 0.2), _product(x, 0.2, *amps))


def test_spectral_samples_equal_evaluations_one_time_at_a_time():
    # the benchmark's heterogeneous spectral problem: 512 midpoint rows of
    # beta on one grid, each the bits of an evaluation on a fresh x
    cfg = preset_config("thm-2.11-periodic", {
        "model.beta_x_amp": "0.9", "model.dI": "1.0", "domain.n": "64"})
    problem = LinearizedProblem(cfg.model, cfg.domain,
                                cfg.total_mass() / cfg.domain.measure)
    beta, gamma = problem.coefficient_samples(512)
    times = (np.arange(512) + 0.5) * (problem.omega / 512)
    x = cfg.domain.x_coordinate()
    assert beta.shape == (512, 64) and gamma.shape == (1, 64)
    for row, t in zip(beta, times):
        assert np.array_equal(row, cfg.model.beta(x.copy(), t))
    assert np.array_equal(gamma[0], cfg.model.gamma(x.copy(), times[0]))


@pytest.mark.filterwarnings("error")  # np.loadtxt warns on empty input
@pytest.mark.parametrize("text, cause", [
    ("", "expected 3, got 0"),
    ("1.0 2\n1 2 3\n", "expected 3, got 2"),
    ("one 2 1\n1\n2\n", "could not convert string to float: 'one'"),
    ("0 2 1\n", "rows x columns (0, 0), header (2, 1)"),
    ("0 3 1\n1\n2\n", "rows x columns (2, 1), header (3, 1)"),
    ("1 2 2\n1 2\n3\n", "columns"),
    ("0 2 1  # omega n_x n_t\n1  # first row\n", "rows x columns (1, 1), header (2, 1)"),
    ("nan 2 1\n1\n2\n", "header omega nan must be finite and >= 0"),
    ("inf 2 2\n1 2\n3 4\n", "header omega inf must be finite and >= 0"),
    ("-1 2 3\n1 2 3\n4 5 6\n", "header omega -1.0 must be finite and >= 0"),
    ("2 2 1\n1\n2\n", "header omega 2.0 must be finite and >= 0, and 0 on a "
                       "one-column table"),
    ("0 1 3\n1 2 3\n", "header needs n_x >= 2 and n_t >= 1, got 1 and 3"),
    ("1 2 0\n1\n2\n", "header needs n_x >= 2 and n_t >= 1, got 2 and 0"),
    ("0 2 3\n1 2 3\n4 5 6\n", "header omega 0.0 must be finite and >= 0, and 0 on "
                             "a one-column table, > 0 on a wider one"),
    (None, "No such file or directory")],
    ids=["empty", "two-field-header", "non-numeric-header", "no-rows",
         "fewer-rows", "ragged-row", "inline-comment", "nan-omega", "inf-omega",
         "negative-omega", "period-on-one-column", "one-row", "no-columns",
         "no-period-on-three-columns", "missing-file"])
def test_a_malformed_table_is_refused(tmp_path, text, cause):
    path = tmp_path / "bad.txt"
    if text is not None:
        path.write_text(text)
    with pytest.raises(ConfigError, match=re.escape(cause)) as err:
        read_coefficient_table(path, length=1.0)
    assert str(err.value).startswith(f"coefficient table {path}: ")
    assert str(err.value).endswith("expected a header 'omega n_x n_t' and n_x rows "
                                   "of n_t numbers")


def test_a_written_table_reads_back_exactly(tmp_path, monkeypatch):
    table = np.random.default_rng(5).uniform(0.0, 10.0, (6, 4)) / 3.0
    write_coefficient_table(tmp_path / "t.txt", table, omega=2.5)
    built = []
    monkeypatch.setattr(CoefficientField, "tabulated",
                        classmethod(lambda cls, *args: built.append(args)))
    read_coefficient_table(tmp_path / "t.txt", length=1.0)
    [(read, length, period)] = built
    assert np.array_equal(read, table)  # .17g round-trips a double
    assert (length, period) == (1.0, 2.5)


@pytest.mark.parametrize("make", [
    lambda: CoefficientField.constant(math.nan),
    lambda: CoefficientField.cosine_modulated(math.nan, space_amp=0.5, length=1.0),
    lambda: CoefficientField.tabulated(np.array([[1.0], [math.nan]]), 1.0, None),
    lambda: CoefficientField.tabulated(np.array([[1.0], [math.inf]]), 1.0, None),
    lambda: CoefficientField.cosine_modulated(1.0, time_amp=0.5, period=math.nan),
    lambda: CoefficientField(0.0, math.inf, None, lambda x, t: x)],
    ids=["constant-nan", "cosine-nan", "table-nan", "table-inf", "period-nan",
         "upper-inf"])
def test_non_finite_coefficient_refused(make):
    with pytest.raises(ConfigError):
        make()


@pytest.mark.parametrize("d_S, d_I", [(math.nan, 1.0), (1.0, math.inf)])
def test_diffusivities_must_be_finite(d_S, d_I):
    flat = CoefficientField.constant(1.0)
    with pytest.raises(ConfigError, match="finite and positive"):
        ModelSpec(beta=flat, gamma=flat, mu=flat, d_S=d_S, d_I=d_I,
                  incidence=Incidence("power", q=1.0, p=1.0))


# -------------------------------------------------------------- assumptions

def _model(p=1.0, q=1.0, beta=1.0, gamma=1.0, mu=0.0, **kw):
    return ModelSpec(
        **kw,
        beta=CoefficientField.constant(beta),
        gamma=CoefficientField.constant(gamma),
        mu=CoefficientField.constant(mu),
        d_S=1.0, d_I=1.0,
        incidence=Incidence("power", q=q, p=p),
    )


def test_assumptions_all_pass_constant_positive():
    dom = Domain((1.0,), (16,))
    state = SystemState(np.full(16, 1.0), np.full(16, 0.5), 0.0)
    report = validate_assumptions(_model(mu=0.5), state, dom)
    assert "fail" not in [i.status for i in report.values()]


def test_mandatory_items_are_the_one_list():
    dom = Domain((1.0,), (16,))
    state = SystemState(np.full(16, 1.0), np.full(16, 0.5), 0.0)
    report = validate_assumptions(_model(mu=0.5), state, dom)
    # solver.run looks up every mandatory check by name
    assert [name for name in report if name in MANDATORY_ITEMS] == list(MANDATORY_ITEMS)


def test_assumptions_vanishing_s0_with_sublinear_q():
    dom = Domain((1.0,), (16,))
    S0 = np.full(16, 1.0)
    S0[7] = 0.0  # one grid point touching zero
    state = SystemState(S0, np.full(16, 0.5), 0.0)
    report = validate_assumptions(_model(q=0.5), state, dom)
    name = "A4ii-positive-S0-and-recovery-floor"
    assert name in MANDATORY_ITEMS
    assert report[name].status == "fail"


def test_assumptions_mortality_not_applicable_without_mu():
    dom = Domain((1.0,), (16,))
    state = SystemState(np.full(16, 1.0), np.full(16, 0.5), 0.0)
    report = validate_assumptions(_model(mu=0.0), state, dom)
    assert report["A5-mortality-floor"].status == "n/a"


def test_assumptions_infection_seed():
    dom = Domain((1.0,), (16,))
    state = SystemState(np.full(16, 1.0), np.zeros(16), 0.0)
    report = validate_assumptions(_model(), state, dom)
    assert report["A4i-infection-seed"].status == "fail"


def test_assumptions_sublinear_p_needs_positive_i0():
    dom = Domain((1.0,), (16,))
    I0 = np.full(16, 0.5)
    I0[0] = 0.0
    state = SystemState(np.full(16, 1.0), I0, 0.0)
    report = validate_assumptions(_model(p=0.5), state, dom)
    assert report["A4iii-positive-I0"].status == "fail"


def test_assumptions_periodicity_checked():
    dom = Domain((1.0,), (16,))
    state = SystemState(np.full(16, 1.0), np.full(16, 0.5), 0.0)
    model = ModelSpec(
        beta=CoefficientField.cosine_modulated(1.0, time_amp=0.5, period=2.0),
        gamma=CoefficientField.constant(1.0),
        mu=CoefficientField.constant(0.0),
        d_S=1.0, d_I=1.0, incidence=Incidence("power", q=1, p=1))
    report = validate_assumptions(model, state, dom)
    assert report["A6-period-consistency"].status == "pass"


def test_assumptions_periodicity_defect_found_in_2d():
    # a declared period of 1.5 on a field whose true period is 2
    dom = Domain((1.0, 1.0), (8, 6))
    state = SystemState(np.full(dom.shape, 1.0), np.full(dom.shape, 0.5), 0.0)
    true = CoefficientField.cosine_modulated(1.0, time_amp=0.5, period=2.0,
                                             space_amp=0.5, length=1.0)
    lying = CoefficientField(true.lower, true.upper, 1.5, true.evaluator)
    model = ModelSpec(
        beta=lying,
        gamma=CoefficientField.constant(1.0),
        mu=CoefficientField.constant(0.0),
        d_S=1.0, d_I=1.0, incidence=Incidence("power", q=1, p=1))
    report = validate_assumptions(model, state, dom)
    assert report["A6-period-consistency"].status == "fail"
    assert report["A1-coefficient-bounds"].status == "pass"


def test_assumptions_dual_floor_flagged():
    dom = Domain((1.0,), (16,))
    state = SystemState(np.full(16, 1.0), np.full(16, 0.5), 0.0)
    model = ModelSpec(
        s=2, r=2,  # H1-iii, dual regime
        beta=CoefficientField.constant(1.0),
        gamma=CoefficientField.constant(0.0),
        mu=CoefficientField.constant(0.0),
        d_S=1.0, d_I=1.0, incidence=Incidence("power", q=1, p=1))
    report = validate_assumptions(model, state, dom)
    assert report["A3prime-removal-floor"].status == "fail"


def _pin_cases():
    """Three (model, initial state, domain) cases that between them take every
    row to n/a, to an applied pass and to an applied fail."""
    dom = Domain((1.0,), (16,))
    ones = np.full(16, 1.0)
    # H1-iv (s = q, p < r) with q < 1 and p < 1: every conditional row
    # applies, and A3' is the dual regime's removal floor.
    dual = dict(s=0.5, r=1.0, d_S=1.0,
                d_I=1.0, incidence=Incidence("power", q=0.5, p=0.5))
    # mu's table is exactly periodic at the dyadic check times, so the
    # A6 detail does not hang on the last bits of a cosine.
    passing = ModelSpec(
        beta=CoefficientField.cosine_modulated(2.0, space_amp=0.5, length=1.0),
        gamma=CoefficientField.constant(0.5),
        mu=CoefficientField.tabulated(np.array([[0.25, 0.5, 0.25]] * 2),
                                      length=1.0, period=1.0),
        **dual)
    # beta dips below its declared floor of 0.1 and gamma rises above
    # its declared ceiling of 0.5; gamma declares the period 1 but its
    # evaluator's true period is 2, and beta and mu vanish at x = L.
    beta = CoefficientField.cosine_modulated(
        1.0, time_amp=0.5, period=1.0, space_amp=1.0, length=1.0)
    too_high = CoefficientField(
        0.0, 0.5, 1.0,
        lambda x, t: np.full_like(x, 1.0 + 0.5 * math.cos(math.pi * t)))
    failing = ModelSpec(
        beta=CoefficientField(0.1, beta.upper, beta.period, beta.evaluator),
        gamma=too_high,
        mu=CoefficientField.cosine_modulated(0.5, space_amp=1.0, length=1.0),
        **dual)
    S_neg = ones.copy()
    S_neg[3] = -0.1
    return [(_model(beta=2.0), SystemState(ones, 0.5 * ones, 0.0), dom),
            (passing, SystemState(ones, 0.5 * ones, 0.0), dom),
            (failing, SystemState(S_neg, np.zeros(16), 0.0), dom)]


PINNED_LINES = [
    ["A1-coefficient-bounds: pass",
     "A2-nonnegative-initial-data: pass",
     "A3-transmission-floor: pass (min sampled beta = 2, declared floor = 2)",
     "A4i-infection-seed: pass",
     "A4ii-positive-S0-and-recovery-floor: n/a",
     "A4iii-positive-I0: n/a",
     "A5-mortality-floor: n/a",
     "A6-period-consistency: n/a",
     "A3prime-removal-floor: n/a"],
    ["A1-coefficient-bounds: pass",
     "A2-nonnegative-initial-data: pass",
     "A3-transmission-floor: pass (min sampled beta = 1, declared floor = 1)",
     "A4i-infection-seed: pass",
     "A4ii-positive-S0-and-recovery-floor: pass",
     "A4iii-positive-I0: pass",
     "A5-mortality-floor: pass (min sampled mu = 0.25)",
     "A6-period-consistency: pass (worst periodicity defect 0.00e+00)",
     "A3prime-removal-floor: pass (min sampled gamma+mu = 0.75)"],
    ["A1-coefficient-bounds: fail (bounds violated for beta, gamma)",
     "A2-nonnegative-initial-data: fail (negative initial values present)",
     "A3-transmission-floor: fail (min sampled beta = 0.00241, declared floor = 0.1)",
     "A4i-infection-seed: fail (I0 vanishes identically)",
     "A4ii-positive-S0-and-recovery-floor: fail (S0 touches zero)",
     "A4iii-positive-I0: fail (I0 touches zero)",
     "A5-mortality-floor: fail (min sampled mu = 0.00241)",
     "A6-period-consistency: fail (worst periodicity defect 1.00e+00)",
     "A3prime-removal-floor: fail (min sampled gamma+mu = 0.502)"],
]


@pytest.mark.parametrize("case", range(3), ids=["not-applicable", "pass", "fail"])
def test_assumption_lines_are_pinned(case):
    # the [assumptions] block of summary.txt, byte for byte
    model, state, dom = _pin_cases()[case]
    report = validate_assumptions(model, state, dom)
    assert summary_block("[assumptions]", assumptions=report) == PINNED_LINES[case]
