import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sqip
from sqip.cli import main as cli_main
from sqip.config import load_config, parse_config
from sqip.errors import ConfigError
from sqip.grid import Domain, integrate
from sqip.presets import (ODE_PRESETS, PDE_PRESETS, PRESET_NAMES,
                          preset_config, preset_kind)
from sqip.model import validate_assumptions
from sqip.runner import (ODE_SWEEP_HEADER, SweepSpec, ode_sweep_csv,
                         parse_sweep, run_scenario, run_sweep, si_sweep_rows,
                         sis_sweep_rows)
from sqip.solver import SystemState

MINIMAL = """
[model]
p = 1
q = 1

[domain]
L = 1
n = 100
"""


def test_parse_minimal_with_defaults():
    cfg = parse_config(MINIMAL)
    assert cfg.domain == Domain((1.0,), (100,))
    assert cfg.t_end == 50.0            # documented default
    assert cfg.model.d_S == 1.0
    assert cfg.detect.extinct == 1e-4
    assert cfg.solver.dt_max == 0.02
    # defaults table is complete and self-describing
    table = dict(kv.split("=", 1) for kv in cfg.defaults_table())
    assert table["solver.t_end"] == "50.0"
    assert table["model.incidence"] == "power"


def test_misspelled_key_names_line():
    bad = "[model]\np = 1\nds_ = 2.0\n\n[domain]\nL = 1\nn = 100\n"
    with pytest.raises(ConfigError) as err:
        parse_config(bad)
    assert "ds_" in str(err.value)
    assert "line 3" in str(err.value)


def test_unknown_section_rejected():
    with pytest.raises(ConfigError) as err:
        parse_config("[models]\np = 1\n")
    assert "line 1" in str(err.value)


def test_type_mismatch_names_line():
    bad = "[domain]\nL = 1\nn = lots\n"
    with pytest.raises(ConfigError) as err:
        parse_config(bad)
    assert "line 3" in str(err.value)


def test_missing_domain_is_error():
    with pytest.raises(ConfigError) as err:
        parse_config("[model]\np = 1\n")
    assert "domain" in str(err.value)


def test_preset_reference_expands():
    cfg = parse_config('preset = "thm-2.10-ii"\n')
    assert cfg.preset == "thm-2.10-ii"
    assert cfg.model.exponents.p == 0.5
    # file keys override the preset layer
    cfg = parse_config('preset = thm-2.10-ii\n[solver]\nt_end = 7.0\n')
    assert cfg.t_end == 7.0
    assert cfg.model.exponents.p == 0.5


def test_unknown_preset_rejected():
    with pytest.raises(ConfigError):
        parse_config("preset = no-such-thing\n")


def test_every_pde_preset_passes_assumptions():
    for name in PDE_PRESETS:
        cfg = preset_config(name)
        S0, I0 = cfg.initial_arrays()
        report = validate_assumptions(cfg.model, SystemState(S0, I0, 0.0),
                                      cfg.domain)
        assert report.all_pass, (name, report.lines())


def test_preset_catalog_names():
    expected = {"thm-2.10-i", "thm-2.10-ii", "thm-2.11-persist",
                "thm-2.11-periodic", "sis-bistable", "si-finite-extinction",
                "r0-threshold"}
    assert expected == set(PRESET_NAMES)
    assert preset_kind("si-finite-extinction") == "ode"
    assert preset_kind("thm-2.10-i") == "pde"
    assert "si-finite-extinction" in ODE_PRESETS


def test_override_unknown_key_rejected():
    cfg = preset_config("thm-2.11-persist")
    with pytest.raises(ConfigError):
        cfg.with_overrides({"solver.dt_maxx": "10"})
    with pytest.raises(ConfigError):
        cfg.with_overrides({"tend": "10"})


def test_run_scenario_writes_artifacts(tmp_path):
    cfg = preset_config("thm-2.11-persist", {
        "solver.t_end": "2.0", "solver.snapshots": "1.0 2.0"})
    result = run_scenario(cfg, out_dir=tmp_path)
    assert (tmp_path / "diagnostics.csv").exists()
    assert (tmp_path / "summary.txt").exists()
    snaps = sorted(p.name for p in tmp_path.glob("snapshot_*.txt"))
    assert len(snaps) == 2
    csv_text = (tmp_path / "diagnostics.csv").read_text()
    assert csv_text.startswith("t,mass_S,mass_I,")
    summary = (tmp_path / "summary.txt").read_text()
    assert "outcome=" in summary
    assert "regime=H1-ii" in summary
    assert "[defaults]" in summary
    assert "solver.t_end=2.0" in summary
    # spectral block present: conserved-mass linear-incidence case
    assert "lambda0=" in summary and "r0=" in summary
    # snapshot format: header with t, then x S I rows
    snap_text = (tmp_path / snaps[0]).read_text().splitlines()
    assert snap_text[0].startswith("# t = ")
    assert len(snap_text) == 2 + cfg.domain.cells[0]
    assert len(snap_text[2].split()) == 3


def test_run_scenario_byte_identical(tmp_path):
    cfg = preset_config("sis-bistable", {"solver.t_end": "3.0"})
    a = tmp_path / "a"
    b = tmp_path / "b"
    run_scenario(cfg, out_dir=a)
    run_scenario(cfg, out_dir=b)
    assert (a / "diagnostics.csv").read_bytes() == (b / "diagnostics.csv").read_bytes()
    assert (a / "summary.txt").read_bytes() == (b / "summary.txt").read_bytes()


def test_mortality_preset_skips_spectral(tmp_path):
    cfg = preset_config("thm-2.10-i", {"solver.t_end": "2.0"})
    result = run_scenario(cfg, out_dir=tmp_path)
    assert result.spectral is None
    assert "lambda0=" not in result.summary


def test_sweep_spec_parsing():
    spec = parse_sweep("""
[sweep]
kind = pde
base = sis-bistable
vary.initial.S = constant(0.5) constant(0.75)
""")
    assert spec.kind == "pde"
    assert spec.base == "sis-bistable"
    assert spec.axes[0][0] == "initial.S"
    with pytest.raises(ConfigError):
        parse_sweep("[sweep]\nkind = nope\n")
    with pytest.raises(ConfigError):
        parse_sweep("[sweep]\nkind = pde\nbass = x\n")


def test_empty_sweep_header_only(tmp_path):
    spec = SweepSpec(kind="pde", base="sis-bistable", axes=())
    csv_path = run_sweep(spec, tmp_path)
    lines = Path(csv_path).read_text().splitlines()
    assert len(lines) == 1
    assert lines[0].endswith("outcome,value,error")


def test_pde_sweep_rows_and_resume(tmp_path):
    spec = SweepSpec(kind="pde", base="sis-bistable", axes=(
        ("solver.t_end", ("2.0", "3.0")),))
    csv_path = run_sweep(spec, tmp_path)
    lines = Path(csv_path).read_text().splitlines()
    assert len(lines) == 3
    assert lines[0] == "solver.t_end,outcome,value,error"
    # resume: the journal short-circuits recomputation and output is stable
    before = Path(csv_path).read_text()
    run_sweep(spec, tmp_path)
    assert Path(csv_path).read_text() == before


def test_pde_sweep_records_failures_in_row(tmp_path):
    spec = SweepSpec(kind="pde", base="sis-bistable", axes=(
        ("solver.t_end", ("2.0", "-1.0")),))
    csv_path = run_sweep(spec, tmp_path)
    lines = Path(csv_path).read_text().splitlines()
    assert len(lines) == 3
    assert "ConfigError" in lines[2]
    assert lines[1].endswith(",")  # healthy row, empty error column


@pytest.mark.parametrize("cut", [1, 17], ids=["newline-only", "mid-line"])
def test_pde_sweep_resumes_after_torn_journal_line(tmp_path, cut):
    spec = SweepSpec(kind="pde", base="sis-bistable", axes=(
        ("solver.t_end", ("2.0", "2.5", "3.0")),))
    fresh = run_sweep(spec, tmp_path / "fresh")
    run_sweep(spec, tmp_path / "torn")
    part = tmp_path / "torn" / "rows.part"
    data = part.read_bytes()
    part.write_bytes(data[:-cut])  # killed while writing the last row
    resumed = run_sweep(spec, tmp_path / "torn")
    with open(resumed) as got, open(fresh) as want:
        assert got.read() == want.read()
    assert part.read_bytes() == data


def test_pde_sweep_rejects_a_corrupt_journal_line(tmp_path):
    spec = SweepSpec(kind="pde", base="sis-bistable", axes=(
        ("solver.t_end", ("2.0", "3.0")),))
    (tmp_path / "rows.part").write_text(
        '{"index": 0, "line": "2.0,Persistent,,"}\nnot json\n')
    with pytest.raises(ConfigError, match="line 2"):
        run_sweep(spec, tmp_path)


def test_pde_sweep_propagates_programming_errors(tmp_path, monkeypatch):
    from sqip import runner

    def broken(config, out_dir=None):
        raise TypeError("not a scenario failure")

    monkeypatch.setattr(runner, "run_scenario", broken)
    spec = SweepSpec(kind="pde", base="sis-bistable", axes=(
        ("solver.t_end", ("2.0",)),))
    with pytest.raises(TypeError, match="not a scenario failure"):
        run_sweep(spec, tmp_path)


def test_cli_sweep_exits_nonzero_on_failed_row(tmp_path, capsys):
    spec_file = tmp_path / "sweep.cfg"
    spec_file.write_text(
        "[sweep]\nkind = pde\nbase = sis-bistable\n"
        "vary.solver.t_end = 2.0 -1.0\n")
    code = cli_main(["sweep", str(spec_file), "--out", str(tmp_path / "sw")])
    assert code == 1
    assert "1 sweep row(s) failed" in capsys.readouterr().err
    lines = (tmp_path / "sw" / "results.csv").read_text().splitlines()
    assert "ConfigError" in lines[2]


def test_run_sweep_ode_kind(tmp_path):
    spec = SweepSpec(kind="ode-si", points=8, seed=3)
    csv_path = run_sweep(spec, tmp_path)
    lines = Path(csv_path).read_text().splitlines()
    assert lines[0] == ODE_SWEEP_HEADER
    assert len(lines) == 9


def test_ode_sweep_rerun_with_new_seed(tmp_path):
    run_sweep(SweepSpec(kind="ode-si", points=8, seed=3), tmp_path / "used")
    used = run_sweep(SweepSpec(kind="ode-si", points=8, seed=4),
                     tmp_path / "used")
    fresh = run_sweep(SweepSpec(kind="ode-si", points=8, seed=4),
                      tmp_path / "fresh")
    assert Path(used).read_text() == Path(fresh).read_text()
    assert (Path(fresh).read_text()
            == ode_sweep_csv(si_sweep_rows(count=8, seed=4)))


@pytest.mark.parametrize("kind", ["ode-si", "ode-sis"])
def test_ode_sweep_keeps_no_journal(tmp_path, kind):
    run_sweep(SweepSpec(kind=kind, points=8, seed=3), tmp_path)
    assert sorted(os.listdir(tmp_path)) == ["results.csv"]


def test_ode_sweep_csv_schema(tmp_path):
    rows = si_sweep_rows(count=10, seed=1)
    text = ode_sweep_csv(rows)
    lines = text.strip().splitlines()
    assert lines[0] == ODE_SWEEP_HEADER
    assert len(lines) == 11
    assert all(line.endswith(("true", "false")) for line in lines[1:])


def test_ode_sweep_deterministic():
    a = sis_sweep_rows(count=12, seed=5)
    b = sis_sweep_rows(count=12, seed=5)
    assert ode_sweep_csv(a) == ode_sweep_csv(b)


def test_cli_preset_and_r0(tmp_path, capsys):
    out = tmp_path / "run"
    code = cli_main(["preset", "thm-2.11-persist",
                     "--override", "solver.t_end=2.0",
                     "--out", str(out)])
    assert code == 0
    captured = capsys.readouterr().out
    assert "outcome=" in captured
    assert (out / "summary.txt").exists()

    cfg_file = tmp_path / "scenario.cfg"
    cfg_file.write_text("preset = thm-2.11-persist\n")
    code = cli_main(["r0", str(cfg_file)])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert [ln.split("=")[0] for ln in lines] == [
        "lambda0", "rho", "r0", "iterations", "residual"]


def test_cli_ode_classify(capsys):
    code = cli_main(["ode", "classify", "si", "--p", "1", "--q", "0.5",
                     "--beta", "1", "--mu", "1", "--S0", "1", "--I0", "4"])
    assert code == 0
    out = capsys.readouterr().out
    assert "predicted=SHitsZeroFiniteTime" in out
    assert "t_upper=0.6931471806" in out

    code = cli_main(["ode", "classify", "sis", "--p", "2", "--q", "1",
                     "--beta", "1", "--gamma", "0.21", "--N", "1",
                     "--S0", "0.75"])
    assert code == 0
    out = capsys.readouterr().out
    assert "predicted_limit=(1,0)" in out


def test_cli_ode_preset(capsys):
    code = cli_main(["preset", "si-finite-extinction"])
    assert code == 0
    out = capsys.readouterr().out
    assert "predicted=SHitsZeroFiniteTime" in out
    assert "first_clamp_time=" in out


def test_cli_run_config_file(tmp_path, capsys):
    cfg_file = tmp_path / "mini.cfg"
    cfg_file.write_text(MINIMAL + "\n[solver]\nt_end = 1.0\n")
    code = cli_main(["run", str(cfg_file)])
    assert code == 0
    assert "outcome=" in capsys.readouterr().out


def test_cli_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[model]\nwhoops = 1\n[domain]\nL = 1\nn = 64\n")
    code = cli_main(["run", str(bad)])
    assert code == 2
    assert "whoops" in capsys.readouterr().err


def test_cli_sweep(tmp_path, capsys):
    spec_file = tmp_path / "sweep.cfg"
    spec_file.write_text(
        "[sweep]\nkind = pde\nbase = sis-bistable\n"
        "vary.solver.t_end = 2.0\n")
    code = cli_main(["sweep", str(spec_file), "--out", str(tmp_path / "sw")])
    assert code == 0
    assert (tmp_path / "sw" / "results.csv").exists()


def test_tabulated_coefficient_drives_a_run(tmp_path):
    import numpy as np
    from sqip.model import write_coefficient_table
    from sqip.solver import run

    x_nodes = np.linspace(0, 1, 17)
    t_nodes = np.linspace(0, 1, 9)
    table = (2.0 * (1 + 0.25 * np.cos(np.pi * x_nodes)[:, None])
             * (1 + 0.5 * np.cos(2 * np.pi * t_nodes)[None, :]))
    beta_path = tmp_path / "beta.txt"
    write_coefficient_table(beta_path, table, omega=1.0)
    cfg = preset_config("thm-2.11-periodic", {
        "model.beta_table": str(beta_path), "model.beta_t_amp": "0.0",
        "solver.t_end": "4.0", "solver.periodic_snapshots": "3"})
    traj = run(cfg)
    assert traj.assumptions.all_pass  # bounds and periodicity sampled
    mass = traj.mass
    assert abs(mass[-1] - mass[0]) <= 1e-10 * mass[0]


def test_tabulated_initial_data(tmp_path):
    import numpy as np
    from sqip.solver import run

    path = tmp_path / "I0.txt"
    np.savetxt(path, 0.3 + 0.2 * np.cos(np.pi * np.linspace(0, 1, 96)))
    cfg = preset_config("sis-bistable", {
        "initial.I": f"tabulated({path})",
        "initial.S": "constant(0.5)",
        "solver.t_end": "1.0"})
    traj = run(cfg)
    # the cosine integrates to zero over the interval: mass = 0.5 + 0.3
    assert traj.mass[0] == pytest.approx(0.8, abs=1e-3)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("value", [
    "constant(inf)", "constant(nan)", "constant(-inf)",
    "bump(0.5, 0.1, inf)", "bump(0.5, 0.01, inf)", "bump(0.5, 0.1, nan)",
    "tabulated"])
def test_non_finite_initial_data_rejected(tmp_path, value):
    from sqip.solver import run

    if value == "tabulated":
        path = tmp_path / "S0.txt"
        field = np.ones(96)
        field[10] = np.nan
        np.savetxt(path, field)
        value = f"tabulated({path})"
    cfg = preset_config("sis-bistable", {
        "initial.S": value, "solver.t_end": "1.0",
        "solver.allow_degenerate_initial": "true"})
    with pytest.raises(ConfigError, match="NaN or infinite"):
        cfg.initial_S.build(cfg.domain)
    with pytest.raises(ConfigError, match="NaN or infinite"):
        run(cfg)


def test_two_dim_spectral_and_snapshot(tmp_path):
    cfg = preset_config("thm-2.11-persist", two_dim=True, overrides={
        "domain.nx": "20", "domain.ny": "20",
        "solver.t_end": "1.0", "solver.snapshots": "1.0"})
    result = run_scenario(cfg, out_dir=tmp_path)
    assert result.spectral.lambda0 == pytest.approx(-1.0, abs=1e-6)
    # quadrature of the unit density on 400 cells carries one ulp
    assert result.spectral.r0 == pytest.approx(2.0, rel=1e-12)
    snap = (tmp_path / "snapshot_t1.txt").read_text().splitlines()
    assert snap[1] == "# columns: x y S I"
    assert len(snap) == 2 + 20 * 20
    assert len(snap[2].split()) == 4


def test_oracle_sweeps_robust_across_seeds():
    # the acceptance seed is not special: fresh seeds agree too
    for seed in (7, 99):
        rows = si_sweep_rows(count=30, seed=seed) \
            + sis_sweep_rows(count=30, seed=seed + 1)
        assert all(r["agree"] for r in rows)


def test_two_dim_preset_flag():
    cfg = preset_config("thm-2.11-persist", two_dim=True)
    assert cfg.domain.shape == (48, 48)
    S0, I0 = cfg.initial_arrays()
    assert S0.shape == (48, 48)
    assert integrate(cfg.domain, S0 + I0) == pytest.approx(
        cfg.domain.measure, rel=1e-12)


def test_import_leaves_scipy_optimize_unloaded():
    # scipy.optimize adds about a third of a second to ``import sqip``,
    # which every CLI call pays; the R0 root-find is written out instead
    env = dict(os.environ, PYTHONPATH=str(Path(sqip.__file__).parents[1]))
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, sqip; print('scipy.optimize' in sys.modules)"],
        capture_output=True, text=True, check=True, env=env)
    assert out.stdout.strip() == "False"


def test_star_import_resolves_every_export_and_mapped_module():
    # a name dropped from the package but left in ``__all__`` makes
    # ``from sqip import *`` raise; so does a module in README's module
    # map that no longer imports
    readme = Path(__file__).parents[1] / "README.md"
    text = readme.read_text(encoding="utf-8")
    table = text.split("## Module map", 1)[1].split("\n## ", 1)[0]
    modules = sorted(set(re.findall(r"`(sqip\.\w+)`", table)))
    assert len(modules) == 10
    code = ("import importlib\n"
            "from sqip import *\n"
            "import sqip\n"
            "assert all(name in globals() for name in sqip.__all__)\n"
            f"for module in {modules!r}:\n"
            "    importlib.import_module(module)\n")
    env = dict(os.environ, PYTHONPATH=str(Path(sqip.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code],
                         capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
