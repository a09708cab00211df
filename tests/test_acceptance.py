"""Acceptance criteria, one test per criterion at its stated tolerance.

Each test prints a single PASS line when its assertions hold, so running
``pytest tests/test_acceptance.py -v -s`` yields a per-criterion report.
Preset trajectories are computed once and shared across criteria.
"""

import math
import time

import numpy as np
import pytest

from sqip import diagnostics, solver
from sqip.config import InitialData
from sqip.grid import Domain, integrate, poincare_constant
from sqip.presets import PDE_PRESETS, preset_config
from sqip.runner import compute_spectral, si_sweep_rows, sis_sweep_rows
from sqip.ode import SiOdeParams, SisOdeParams, rk4_integrate, sis_classify


def _report(number: int, name: str, detail: str = "") -> None:
    suffix = f"  [{detail}]" if detail else ""
    print(f"ACCEPTANCE {number:02d} {name}: PASS{suffix}")


@pytest.fixture(scope="module")
def preset_runs():
    """All PDE presets run once at their configured settings."""
    runs = {}
    for name in PDE_PRESETS:
        cfg = preset_config(name)
        start = time.perf_counter()
        traj = solver.run(cfg)
        wall = time.perf_counter() - start
        outcome = diagnostics.classify_longtime(traj, cfg.detect,
                                                omega=cfg.omega)
        runs[name] = (cfg, traj, outcome, wall)
    return runs


@pytest.fixture(scope="module")
def conservation_run():
    """Dedicated fine-step conserved-mass run: n=200, t_end=50, 1e4 steps."""
    cfg = preset_config("thm-2.11-persist", {
        "domain.n": "200", "solver.t_end": "50",
        "solver.dt_init": "0.005", "solver.dt_max": "0.005",
        "solver.cadence": "0.05"})
    start = time.perf_counter()
    traj = solver.run(cfg)
    wall = time.perf_counter() - start
    return cfg, traj, wall


def test_criterion_01_mass_conservation(conservation_run):
    cfg, traj, wall = conservation_run
    assert traj.steps_accepted >= 10_000
    mass = traj.mass
    drift = np.abs(mass - mass[0]).max() / mass[0]
    assert drift <= 1e-8
    assert wall <= 10.0
    _report(1, "mass conservation without mortality",
            f"steps={traj.steps_accepted} drift={drift:.2e} wall={wall:.2f}s")


def test_criterion_02_mass_monotonicity(preset_runs):
    checked = 0
    for name, (cfg, traj, _, _) in preset_runs.items():
        if cfg.model.mu.lower <= 0:
            continue
        diffs = np.diff(traj.mass)
        total = traj.mass[0]
        assert diffs.max() <= 1e-10 * total, name
        checked += 1
    assert checked >= 2
    _report(2, "mass monotone under mortality", f"presets={checked}")


def test_criterion_03_positivity(preset_runs, conservation_run):
    runs = [(n, t) for n, (_, t, _, _) in preset_runs.items()]
    runs.append(("conservation", conservation_run[1]))
    for name, traj in runs:
        assert traj.floor_S >= 0.0, name
        assert traj.floor_I >= 0.0, name
        assert traj.final_state.S.min() >= 0.0, name
        assert traj.final_state.I.min() >= 0.0, name
        assert traj.rows["min_S"].min() >= 0.0, name
        assert traj.rows["min_I"].min() >= 0.0, name
    _report(3, "positivity at every accepted step", f"runs={len(runs)}")


def test_criterion_04_disease_free_limit(preset_runs):
    cfg, traj, outcome, wall = preset_runs["thm-2.10-i"]
    tail = traj.rows[traj.rows["t"] >= 0.8 * cfg.t_end]
    assert outcome.label == "DiseaseFreeLimit"
    assert tail["sup_I"].max() < 1e-4
    assert tail["flat_S"].max() < 1e-4
    assert outcome.s_star is not None and outcome.s_star <= 2.0
    assert wall <= 30.0
    _report(4, "mortality drives disease-free flat limit",
            f"S*={outcome.s_star:.6f} wall={wall:.2f}s")


def test_criterion_05_joint_extinction(preset_runs):
    cfg, traj, outcome, _ = preset_runs["thm-2.10-ii"]
    tail = traj.rows[traj.rows["t"] >= 0.8 * cfg.t_end]
    assert outcome.label == "ExtinctionBoth"
    assert tail["sup_S"].max() < 1e-3
    assert tail["sup_I"].max() < 1e-3
    _report(5, "sublinear infected exponent extinguishes both",
            f"supS={tail['sup_S'].max():.2e} supI={tail['sup_I'].max():.2e}")


def test_criterion_06_persistence_and_threshold(preset_runs):
    cfg, traj, outcome, _ = preset_runs["thm-2.11-persist"]
    assert outcome.label in ("Persistent", "PeriodicCandidate")
    final = traj.final_state
    assert np.abs(final.S - 0.5).max() <= 1e-3
    assert np.abs(final.I - 0.5).max() <= 1e-3
    spec_result = compute_spectral(cfg)
    assert abs(spec_result.r0 - 2.0) <= 1e-4
    assert abs(spec_result.lambda0 - (-1.0)) <= 1e-6
    _report(6, "persistence with endemic level and thresholds",
            f"R0={spec_result.r0:.6f} lambda0={spec_result.lambda0:.2e}")


def test_criterion_07_periodic_attractor(preset_runs):
    cfg, traj, outcome, _ = preset_runs["thm-2.11-periodic"]
    spec_result = compute_spectral(cfg)
    assert spec_result.lambda0 < 0
    assert outcome.label == "PeriodicCandidate"
    assert outcome.period_residual is not None
    assert outcome.period_residual < 1e-4
    _report(7, "seasonal forcing yields a periodic attractor",
            f"residual={outcome.period_residual:.2e} "
            f"lambda0={spec_result.lambda0:.3f}")


def test_criterion_08_dissipativity():
    base = preset_config("thm-2.11-persist", {
        "initial.S": "constant(0.5)", "initial.I": "constant(0.5)"})
    traj_a = solver.run(base)
    sup_a0 = max(traj_a.rows["sup_S"][0], traj_a.rows["sup_I"][0])

    width = 0.04
    probe = InitialData("bump", center=(0.5,), width=width, amplitude=1.0)
    amp = 0.5 / integrate(base.domain, probe.build(base.domain))
    cfg_b = base.with_overrides({
        "initial.S": "constant(0.5)",
        "initial.I": f"bump(0.5, {width!r}, {amp!r})"})
    traj_b = solver.run(cfg_b)
    sup_b0 = max(traj_b.rows["sup_S"][0], traj_b.rows["sup_I"][0])

    assert abs(traj_a.mass[0] - traj_b.mass[0]) <= 1e-9 * traj_a.mass[0]
    assert sup_b0 / sup_a0 >= 5.0
    tail_a = traj_a.tail_sup_monitor(base.detect.window_fraction)
    tail_b = traj_b.tail_sup_monitor(cfg_b.detect.window_fraction)
    rel = abs(tail_a - tail_b) / max(tail_a, tail_b)
    assert rel <= 0.10
    _report(8, "tail bound depends on mass, not amplitude",
            f"sup ratio={sup_b0 / sup_a0:.1f} tail rel diff={rel:.2e}")


def test_criterion_09_ode_oracle_agreement():
    start = time.perf_counter()
    rows = si_sweep_rows(count=100) + sis_sweep_rows(count=100)
    assert len(rows) == 200
    disagreements = [r for r in rows if not r["agree"]]
    assert not disagreements, disagreements[:5]
    assert all(r["observed"] != "Unconverged" for r in rows)

    # bistability spot checks at 1e-3
    params = SisOdeParams(beta=1, gamma=0.21, p=2, q=1, N=1, S0=0.75)
    high = rk4_integrate("sis", params, t_end=200.0, dt=5e-3, record_every=1000)
    assert abs(high.terminal[0] - 1.0) <= 1e-3
    assert abs(high.terminal[1] - 0.0) <= 1e-3
    assert sis_classify(params).limit_S == 1.0
    low = rk4_integrate("sis", SisOdeParams(beta=1, gamma=0.21, p=2, q=1,
                                            N=1, S0=0.5),
                        t_end=200.0, dt=5e-3, record_every=1000)
    assert abs(low.terminal[0] - 0.3) <= 1e-3
    assert abs(low.terminal[1] - 0.7) <= 1e-3

    # finite-time loss of susceptibles, measured against the closed bound
    si = SiOdeParams(beta=1, mu=1, p=1, q=0.5, S0=1, I0=4)
    traj = rk4_integrate("si", si, t_end=2.0, dt=1e-3)
    assert traj.clamp_events
    assert traj.clamp_events[0][0] <= math.log(2.0) + 0.01

    wall = time.perf_counter() - start
    assert wall <= 60.0
    _report(9, "closed-form predictions match the integrator",
            f"points=200 agreement=100% wall={wall:.1f}s")


def test_criterion_10_spectral_closed_forms():
    checked_pairs = []

    # autonomous: lambda0 = gamma - beta * (N/|domain|)^q exactly
    cfg = preset_config("thm-2.11-persist")
    res = compute_spectral(cfg)
    assert abs(res.lambda0 - (1.0 - 2.0)) <= 1e-6
    checked_pairs.append(res)

    # time-averaged periodic potential: lambda0 = 0
    cfg = preset_config("r0-threshold")
    res = compute_spectral(cfg)
    assert abs(res.lambda0) <= 1e-5
    checked_pairs.append(res)

    cfg = preset_config("thm-2.11-periodic")
    checked_pairs.append(compute_spectral(cfg))

    for res in checked_pairs:
        assert res.r0 is not None
        assert (1.0 - res.r0) * res.lambda0 >= -1e-8
    _report(10, "spectral closed forms and sign relation",
            f"pairs={len(checked_pairs)}")


def test_criterion_11_discretization_quality():
    lam = poincare_constant(Domain((1.0,), (400,)))
    err_400 = abs(lam - math.pi**2)
    assert err_400 <= 1e-2
    errs = [abs(poincare_constant(Domain((1.0,), (n,))) - math.pi**2)
            for n in (100, 200, 400)]
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert min(orders) >= 1.8
    _report(11, "eigenvalue accuracy and convergence order",
            f"err(n=400)={err_400:.2e} orders={[f'{o:.2f}' for o in orders]}")
