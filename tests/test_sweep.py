"""Sweep contract: one ODE-sweep path, spec checking, journal fingerprints."""

import csv
import json
import shlex
from pathlib import Path

import numpy as np
import pytest

from sqip import runner
from sqip.cli import build_parser
from sqip.cli import main as cli_main
from sqip.errors import ConfigError, NumericsError
from sqip.ode import SYSTEMS, settle_batch
from sqip.runner import (SweepSpec, ode_sweep_csv, parse_sweep, run_sweep,
                         si_sweep_rows, sis_sweep_rows)


# ------------------------------------------------------------- ODE sweeps

def test_cli_ode_sweep_exits_1_on_disagreement(tmp_path, monkeypatch, capsys):
    # Too short an integration leaves points "Unconverged": agree=false.
    monkeypatch.setattr(runner, "SWEEP_T_MAX", 1.0)
    spec_file = tmp_path / "oracle.cfg"
    spec_file.write_text("[sweep]\nkind = ode-si\npoints = 6\nseed = 3\n")
    code = cli_main(["sweep", str(spec_file), "--out", str(tmp_path / "sw")])
    assert code == 1
    rows = (tmp_path / "sw" / "results.csv").read_text().splitlines()[1:]
    assert any(",Unconverged,false" in row for row in rows)
    assert "sweep row(s) failed" in capsys.readouterr().err


def test_cli_ode_sweep_exits_0_when_every_point_agrees(tmp_path):
    spec_file = tmp_path / "oracle.cfg"
    spec_file.write_text("[sweep]\nkind = ode-sis\npoints = 6\nseed = 3\n")
    assert cli_main(["sweep", str(spec_file), "--out", str(tmp_path)]) == 0
    # each file is renamed into place, so no temporary file is left
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "oracle.cfg", "results.csv", "steps.csv"]


def test_ode_sweep_uses_seed_zero_as_given(tmp_path):
    csv_path = run_sweep(SweepSpec(kind="ode-si", points=6, seed=0), tmp_path)
    text = Path(csv_path).read_text()
    assert text == ode_sweep_csv(si_sweep_rows(count=6, seed=0))
    assert text != ode_sweep_csv(si_sweep_rows(count=6))


@pytest.mark.parametrize("kind, maker, seed", [
    ("ode-si", si_sweep_rows, 20240501), ("ode-sis", sis_sweep_rows, 20240502)])
def test_ode_sweep_unset_seed_is_the_reference_seed(tmp_path, kind, maker, seed):
    spec = parse_sweep(f"[sweep]\nkind = {kind}\npoints = 6\n")
    assert spec.seed is None
    csv_path = run_sweep(spec, tmp_path)
    assert Path(csv_path).read_text() == ode_sweep_csv(maker(count=6, seed=seed))


@pytest.mark.parametrize("kind", ["ode-si", "ode-sis"])
def test_ode_sweep_writes_each_points_steps_beside_its_results(tmp_path, kind):
    spec = SweepSpec(kind=kind, points=6, seed=3)
    csv_path = run_sweep(spec, tmp_path)
    first = (tmp_path / "steps.csv").read_bytes()
    run_sweep(spec, tmp_path)
    assert (tmp_path / "steps.csv").read_bytes() == first
    assert Path(csv_path).read_text().splitlines()[0] == runner.ODE_SWEEP_HEADER
    header, *lines = first.decode().splitlines()
    assert header == "row,steps_accepted,steps_rejected,t_reached"
    rows = [line.split(",") for line in lines]
    assert [int(row[0]) for row in rows] == list(range(6))
    assert all(int(row[1]) > 0 and int(row[2]) >= 0 and float(row[3]) >= 5.0
               for row in rows)


@pytest.mark.parametrize("system, rate", [("si", "mu"), ("sis", "gamma")])
def test_settle_batch_raises_on_a_nan_point(system, rate):
    # a NaN parameter cannot be built into a point, but finite ones whose
    # stages overflow turn row 1 into NaN
    def point(beta, p, I0):
        start = {"I0": I0} if system == "si" else {"N": 0.9 + I0}
        return SYSTEMS[system](beta=beta, p=p, q=1.0, S0=0.9, **{rate: 1.0}, **start)

    points = [point(2.0, 1.0, 0.1), point(1e300, 2.0, 1e5)]
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(NumericsError, match="non-finite") as info:
        settle_batch(points, dt=0.01, t_max=50.0)
    payload = info.value.payload
    assert (payload["row"], payload["t"], payload["h"]) == (1, 0.0, 0.01)
    assert np.isfinite(payload["state"][0]).all()
    assert np.isnan(payload["state"][1]).all()


def test_draw_points_fails_when_every_draw_is_rejected():
    with pytest.raises(NumericsError, match="rejected every draw"):
        runner._draw_points({"never": 2}, lambda regime, made: None)


def test_draw_points_fills_each_quota_in_order():
    calls = []

    def draw(regime, made):
        calls.append((regime, made))
        return None if len(calls) % 2 else {"regime": regime}

    points = runner._draw_points({"a": 2, "b": 1}, draw)
    assert [pt["regime"] for pt in points] == ["a", "a", "b"]
    assert calls == [("a", 0), ("a", 0), ("a", 1), ("a", 1), ("b", 0), ("b", 0)]


# ------------------------------------------------------------- spec parsing

@pytest.mark.parametrize("line, message", [
    ("points = abc", "line 3: points must be an integer, got 'abc'"),
    ("seed = 1.5", "line 3: seed must be an integer, got '1.5'"),
    ("points = -5", "line 3: points must be at least 1"),
    ("points = 0", "line 3: points must be at least 1"),
])
def test_parse_sweep_rejects_bad_numbers(line, message):
    with pytest.raises(ConfigError, match=message):
        parse_sweep(f"[sweep]\nkind = ode-si\n{line}\n")


# A quoted value may hold spaces, and any value commas.
QUOTED_SWEEP = """[sweep]
kind = pde
base = thm-2.11-persist
vary.initial.I = "bump(0.5, 0.1, 0.5)" bump(0.5,0.1,0.5) 'bump(0.5;0.1)'
vary.solver.t_end = 2
"""
BUMPS = ("bump(0.5, 0.1, 0.5)", "bump(0.5,0.1,0.5)", "bump(0.5;0.1)")


def test_parse_sweep_splits_vary_values_like_a_shell():
    assert parse_sweep(QUOTED_SWEEP).axes == (("initial.I", BUMPS),
                                              ("solver.t_end", ("2",)))


def test_parse_sweep_refuses_an_unclosed_quote():
    with pytest.raises(ConfigError,
                       match="^line 4: vary.initial.I: No closing quotation"):
        parse_sweep(QUOTED_SWEEP.replace("'bump(0.5;0.1)'", "'bump(0.5;0.1)"))


@pytest.mark.parametrize("quote", ['"', "'"])
def test_a_hash_inside_quotes_is_part_of_the_value(quote):
    spec = parse_sweep(f"[sweep]\nkind = pde\nbase = thm-2.11-persist\n"
                       f"vary.initial.I = {quote}tabulated(a#1.txt){quote} "
                       f"constant(1) # a comment\n")
    assert spec.axes == (("initial.I", ("tabulated(a#1.txt)", "constant(1)")),)


def test_an_unquoted_value_with_spaces_is_refused_with_its_line(tmp_path, capsys):
    spec_file = tmp_path / "bumps.cfg"
    spec_file.write_text("[sweep]\nkind = pde\nbase = thm-2.11-persist\n"
                         "vary.initial.I = bump(0.5, 0.1, 0.5)\n")
    code = cli_main(["sweep", str(spec_file), "--out", str(tmp_path / "sw")])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: line 4: vary.initial.I: the parentheses of 'bump(0.5,' do not "
        "balance; quote a value with spaces\n")
    assert not (tmp_path / "sw").exists()


def test_a_bump_axis_runs_with_its_commas_quoted_in_results_csv(tmp_path):
    csv_path = run_sweep(parse_sweep(QUOTED_SWEEP), tmp_path)
    lines = Path(csv_path).read_text().splitlines()
    # a field is quoted only when it holds a comma or a quote
    assert lines[1:3] == ['"bump(0.5, 0.1, 0.5)",2,Persistent,,',
                          '"bump(0.5,0.1,0.5)",2,Persistent,,']
    assert lines[3].startswith('bump(0.5;0.1),2,,,"ConfigError: bad value for ')
    with open(csv_path, encoding="utf-8", newline="") as fh:
        header, *rows = csv.reader(fh)
    assert header == ["initial.I", "solver.t_end", "outcome", "value", "error"]
    assert tuple(row[0] for row in rows) == BUMPS
    assert [len(row) for row in rows] == [5, 5, 5]
    assert "needs center..., width, amplitude" in rows[2][4]
    assert runner.failed_rows(csv_path) == 1


def test_a_journal_torn_inside_a_quoted_field_is_recomputed(tmp_path):
    spec = parse_sweep(QUOTED_SWEEP)
    fresh = run_sweep(spec, tmp_path / "fresh")
    run_sweep(spec, tmp_path / "torn")
    part = tmp_path / "torn" / "rows.part"
    data = part.read_bytes()
    # killed inside the last row's quoted error text
    part.write_bytes(data[:data.rindex(b"width")])
    resumed = run_sweep(spec, tmp_path / "torn")
    assert Path(resumed).read_bytes() == Path(fresh).read_bytes()
    assert part.read_bytes() == data


def test_parse_sweep_needs_a_kind():
    with pytest.raises(ConfigError, match="sweep file must set kind"):
        parse_sweep("[sweep]\npoints = 5\n")


@pytest.mark.parametrize("kind, line, message", [
    ("ode-si", "base = sis-bistable", "line 3: ode-si sweeps do not read base"),
    ("ode-sis", "vary.model.p = 1 2", "line 3: ode-sis sweeps do not read vary"),
    ("pde", "points = 7", "line 3: pde sweeps do not read points"),
    ("pde", "seed = 3", "line 3: pde sweeps do not read seed"),
    ("pde", "points = 100", "line 3: pde sweeps do not read points"),
    ("pde", "seed = 0", "line 3: pde sweeps do not read seed"),
])
def test_parse_sweep_rejects_keys_the_kind_never_reads(kind, line, message):
    with pytest.raises(ConfigError, match=message):
        parse_sweep(f"[sweep]\n\n{line}\nkind = {kind}\n")


@pytest.mark.parametrize("fields, message", [
    ({"kind": "ode-sir"}, "unknown sweep kind 'ode-sir'"),
    ({"kind": "ode-si", "points": -5}, "points must be at least 1, got -5"),
    ({"kind": "ode-sis", "points": 0}, "points must be at least 1, got 0"),
    ({"kind": "pde"}, "pde sweeps need base"),
    ({"kind": "ode-si", "base": "sis-bistable"}, "ode-si sweeps do not read base"),
    ({"kind": "ode-sis", "axes": (("model.p", ("1",)),)},
     "ode-sis sweeps do not read vary"),
    ({"kind": "pde", "base": "sis-bistable", "seed": 0},
     "pde sweeps do not read seed"),
])
def test_sweep_spec_rejects_what_run_sweep_cannot_run(tmp_path, fields, message):
    with pytest.raises(ConfigError, match=message):
        run_sweep(SweepSpec(**fields), tmp_path / "sw")
    assert not (tmp_path / "sw").exists()


def test_cli_sweep_with_negative_points_writes_nothing(tmp_path, capsys):
    spec_file = tmp_path / "oracle.cfg"
    spec_file.write_text("[sweep]\nkind = ode-si\npoints = -5\n")
    code = cli_main(["sweep", str(spec_file), "--out", str(tmp_path / "sw")])
    assert code == 2
    assert "points must be at least 1" in capsys.readouterr().err
    assert not (tmp_path / "sw").exists()


# ------------------------------------------------------------- pde journal

def _bistable_spec(S, I):
    return SweepSpec(kind="pde", base="sis-bistable", axes=(
        ("initial.S", (S,)), ("initial.I", (I,)), ("solver.t_end", ("2.0",))))


def test_pde_sweep_refuses_the_journal_of_a_changed_spec(tmp_path, capsys):
    old = "[sweep]\nkind = pde\nbase = sis-bistable\nvary.solver.t_end = 2.0\n"
    spec_file = tmp_path / "sweep.cfg"
    out = tmp_path / "same"
    spec_file.write_text(old + "vary.initial.S = constant(0.4)\n"
                               "vary.initial.I = constant(0.6)\n")
    assert cli_main(["sweep", str(spec_file), "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["results.csv", "rows.part"]
    first = (out / "results.csv").read_text()
    assert "constant(0.4),constant(0.6)" in first
    found = json.loads((out / "rows.part").read_text().splitlines()[0])

    spec_file.write_text(old + "vary.initial.S = constant(0.8)\n"
                               "vary.initial.I = constant(0.2)\n")
    capsys.readouterr()
    assert cli_main(["sweep", str(spec_file), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert found["fingerprint"] in err and str(out) in err
    assert runner._sweep_fingerprint(parse_sweep(spec_file.read_text())) in err
    assert (out / "results.csv").read_text() == first


def test_pde_sweep_refuses_a_journal_without_fingerprint(tmp_path):
    (tmp_path / "rows.part").write_text(
        '{"index": 0, "line": "constant(0.4),constant(0.6),2.0,Persistent,,"}\n')
    with pytest.raises(ConfigError, match="fingerprint none"):
        run_sweep(_bistable_spec("constant(0.8)", "constant(0.2)"), tmp_path)


def test_pde_sweep_identical_spec_resumes_byte_identical(tmp_path):
    spec = SweepSpec(kind="pde", base="sis-bistable", axes=(
        ("initial.S", ("constant(0.4)", "constant(0.8)")),
        ("solver.t_end", ("2.0",))))
    fresh = Path(run_sweep(spec, tmp_path / "fresh")).read_bytes()
    run_sweep(spec, tmp_path / "resumed")
    part = tmp_path / "resumed" / "rows.part"
    header, first, _ = part.read_text().splitlines()
    part.write_text(header + "\n" + first + "\n")  # interrupted after row 0
    assert Path(run_sweep(spec, tmp_path / "resumed")).read_bytes() == fresh
    assert Path(run_sweep(spec, tmp_path / "resumed")).read_bytes() == fresh


def test_pde_sweep_rewrites_a_torn_fingerprint_line(tmp_path):
    spec = _bistable_spec("constant(0.4)", "constant(0.6)")
    (tmp_path / "rows.part").write_text('{"fingerp')
    run_sweep(spec, tmp_path)
    first = (tmp_path / "rows.part").read_text().splitlines()[0]
    assert json.loads(first) == {"fingerprint": runner._sweep_fingerprint(spec)}


# ------------------------------------------------------------- docs

def test_readme_command_lines_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```bash", 1)[1]
    lines = [ln for ln in block.split("```", 1)[0].splitlines()
             if ln.startswith("sqip ")]
    assert len(lines) >= 5
    parser = build_parser()
    for line in lines:
        try:
            parser.parse_args(shlex.split(line, comments=True)[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {line}")
