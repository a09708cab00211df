import math

import numpy as np
import pytest

from sqip.diagnostics import (CSV_HEADER, ROW_DTYPE, Tolerances,
                              classify_longtime, compute_row, detect_periodic,
                              format_csv, lk_norm, periodic_residuals)
from sqip.errors import ConfigError, DomainError
from sqip.grid import Domain, integrate
from sqip.presets import preset_config
from sqip.runner import run_scenario
from sqip.solver import SystemState, Trajectory, run


def test_lk_norm_constant():
    dom = Domain((2.0,), (40,))  # measure-2 domain
    c = 1.7
    assert lk_norm(dom, np.full(40, c), 2) == pytest.approx(c * math.sqrt(2.0))


def test_lk_norm_zero():
    dom = Domain((1.0,), (10,))
    assert lk_norm(dom, np.zeros(10), 3) == 0.0


def test_lk_norm_k1_is_integral():
    dom = Domain((1.5,), (30,))
    rng = np.random.default_rng(6)
    f = rng.uniform(-2, 2, 30)
    assert lk_norm(dom, f, 1) == pytest.approx(integrate(dom, np.abs(f)))


def test_lk_norm_order_validated():
    with pytest.raises(DomainError):
        lk_norm(Domain((1.0,), (10,)), np.ones(10), 0.5)


def _traj_from_rows(rows, snapshots=None, measure=1.0):
    arr = np.array(rows, dtype=ROW_DTYPE)
    state = SystemState(np.ones(4), np.ones(4), float(arr["t"][-1]))
    return Trajectory(rows=arr, snapshots=snapshots or {}, final_state=state,
                      measure=measure, sup_monitor=float(arr["sup_S"].max()),
                      floor_S=0.0, floor_I=0.0, steps_accepted=len(rows),
                      steps_rejected=0, flags=())


def _row(t, mass_S, mass_I, sup_S, sup_I, min_S, min_I, flat_S=0.0, flat_I=0.0):
    return (t, mass_S, mass_I, sup_S, sup_I, min_S, min_I,
            mass_S, mass_I, flat_S, flat_I)


def test_classify_disease_free():
    rows = [_row(t, 1.2, 1e-6, 1.2, 1e-6, 1.2, 0.0) for t in np.linspace(0, 100, 60)]
    out = classify_longtime(_traj_from_rows(rows))
    assert out.label == "DiseaseFreeLimit"
    assert out.s_star == pytest.approx(1.2)


def test_classify_extinction_both():
    rows = [_row(t, 1e-6, 1e-6, 5e-5, 5e-5, 0.0, 0.0)
            for t in np.linspace(0, 100, 60)]
    out = classify_longtime(_traj_from_rows(rows))
    assert out.label == "ExtinctionBoth"


def test_classify_persistent():
    rows = [_row(t, 0.5, 0.5, 0.6, 0.6, 0.4, 0.4) for t in np.linspace(0, 100, 60)]
    out = classify_longtime(_traj_from_rows(rows))
    assert out.label == "Persistent"
    assert out.persistence_floor == pytest.approx(0.4)


def test_classify_undetermined_short_window():
    rows = [_row(t, 0.5, 0.5, 0.6, 0.6, 0.4, 0.4) for t in np.linspace(0, 1, 3)]
    out = classify_longtime(_traj_from_rows(rows))
    assert out.label == "Undetermined"
    assert "window" in out.reason


def test_classify_undetermined_mixed_tail():
    # infected alive but susceptible floor below persistence tolerance
    rows = [_row(t, 0.5, 0.5, 0.6, 0.6, 1e-5, 0.4)
            for t in np.linspace(0, 100, 60)]
    out = classify_longtime(_traj_from_rows(rows))
    assert out.label == "Undetermined"


def test_detect_periodic_exact_synthetic():
    # injected trajectory S(t) = 1 + 0.1 sin(2 pi t / w): exactly periodic
    omega = 0.5
    snaps = {}
    for k in range(8):
        t = 10.0 + k * omega
        val = 1.0 + 0.1 * math.sin(2 * math.pi * t / omega)
        snaps[t] = SystemState(np.full(4, val), np.full(4, val), t)
    rows = [_row(t, 1, 1, 1.2, 1.2, 0.9, 0.9) for t in np.linspace(0, 13.5, 60)]
    traj = _traj_from_rows(rows, snapshots=snaps)
    assert detect_periodic(traj, omega) <= 1e-10


def test_detect_periodic_needs_pairs():
    rows = [_row(t, 1, 1, 1, 1, 1, 1) for t in np.linspace(0, 10, 30)]
    snaps = {9.0: SystemState(np.ones(4), np.ones(4), 9.0),
             10.0: SystemState(np.ones(4), np.ones(4), 10.0)}
    with pytest.raises(ConfigError):
        detect_periodic(_traj_from_rows(rows, snapshots=snaps), 1.0)


def test_steady_state_is_periodic():
    # a time-constant tail is a periodic orbit of every period
    snaps = {t: SystemState(np.full(4, 0.5), np.full(4, 0.5), t)
             for t in (6.0, 7.0, 8.0, 9.0, 10.0)}
    rows = [_row(t, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5) for t in np.linspace(0, 10, 60)]
    traj = _traj_from_rows(rows, snapshots=snaps)
    assert detect_periodic(traj, 1.0) == 0.0
    out = classify_longtime(traj, omega=1.0)
    assert out.label == "PeriodicCandidate"


def test_transient_residuals_decrease_on_periodic_preset():
    # early-window mismatches dominate, then decay across later windows
    cfg = preset_config("thm-2.11-periodic", {
        "solver.t_end": "14.0", "solver.periodic_snapshots": "12"})
    traj = run(cfg)
    pairs = periodic_residuals(traj, 1.0)
    assert len(pairs) >= 10
    residuals = [r for _, r in pairs]
    assert residuals[0] > 1e-4  # transient-dominated early pair
    # monotone decay across successive windows
    assert all(residuals[i + 1] < residuals[i] for i in range(len(residuals) - 1))
    assert residuals[-1] < residuals[0] * 1e-3


def test_disease_free_flatness_decreases():
    # windows chosen inside the decay regime, before the roundoff floor
    cfg = preset_config("thm-2.10-i", {"solver.t_end": "2.0",
                                       "solver.cadence": "0.02"})
    traj = run(cfg)
    flat = traj.rows["flat_S"]
    thirds = np.array_split(flat, 3)
    assert thirds[1].max() < thirds[0].max()
    assert thirds[2].max() < thirds[1].max()


def test_csv_format():
    rows = np.array([_row(0.0, 1, 1, 1, 1, 1, 1),
                     _row(0.5, 1, 1, 1, 1, 1, 1)], dtype=ROW_DTYPE)
    text = format_csv(rows)
    lines = text.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert lines[0] == "t,mass_S,mass_I,sup_S,sup_I,min_S,min_I,L2_S,L2_I,flat_S,flat_I"
    assert len(lines) == 3
    parsed = [float(tok) for tok in lines[2].split(",")]
    assert parsed[0] == 0.5 and len(parsed) == 11


def test_compute_row_consistency():
    dom = Domain((2.0,), (32,))
    rng = np.random.default_rng(12)
    S = rng.uniform(0.5, 2.0, 32)
    I = rng.uniform(0.0, 1.0, 32)
    row = np.array([compute_row(dom, S, I, 1.5)], dtype=ROW_DTYPE)[0]
    assert row["t"] == 1.5
    assert row["mass_S"] == pytest.approx(integrate(dom, S))
    assert row["sup_S"] == S.max() and row["min_I"] == I.min()
    assert row["flat_S"] == pytest.approx(S.max() - S.min())
    assert row["L2_S"] == pytest.approx(lk_norm(dom, S, 2))
    assert row["min_S"] <= row["sup_S"]


def test_tail_monitor_reads_the_classifier_window():
    # With window = 0.9 the summary's monitor must span the same rows as
    # the classifier's tail, not the default 0.2 of the run.
    cfg = preset_config("thm-2.11-persist", {"detect.window": "0.9",
                                             "solver.t_end": "5.0"})
    result = run_scenario(cfg)
    stats = result.outcome.tail_stats
    summary = dict(line.split("=", 1) for line in result.summary.splitlines()
                   if "=" in line)
    assert summary["N_inf_tail_monitor"] == \
        f"{max(stats['sup_S'], stats['sup_I']):.10g}"
    assert summary["evidence_window"].startswith("[0.505493,5]")
