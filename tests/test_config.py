"""Text front end: one line reader, one unknown-key check, one layering
rule for config, preset, override and sweep text."""

import dataclasses
import re
from pathlib import Path

import numpy as np
import pytest

from sqip.cli import _parse_overrides, main as cli_main
from sqip.config import SCHEMA, _coerce, parse_config, read_lines
from sqip.diagnostics import Tolerances
from sqip.errors import ConfigError
from sqip.grid import Domain
from sqip.model import Incidence, ModelSpec
from sqip.presets import PDE_PRESETS, preset_config
from sqip.runner import parse_sweep
from sqip.solver import SolverSettings

from conftest import write_coefficient_table

LAYER = {"solver.t_end": "3.0", "model.beta": "1.5",
         "initial.I": "constant(0.2)", "detect.window": "0.3"}


def _as_file(pairs: dict[str, str]) -> str:
    return "".join(f"[{key.split('.')[0]}]\n{key.split('.', 1)[1]} = {value}\n"
                   for key, value in pairs.items())


@pytest.mark.parametrize("two_dim", [False, True], ids=["1d", "2d"])
@pytest.mark.parametrize("name", sorted(PDE_PRESETS))
def test_every_layering_resolves_alike(name, two_dim):
    merged = preset_config(name, LAYER, two_dim=two_dim)
    base = preset_config(name, two_dim=two_dim)
    table = merged.defaults_table()
    assert base.with_overrides(LAYER).defaults_table() == table
    assert base.with_overrides({}).defaults_table() == base.defaults_table()
    assert dict(kv.split("=", 1) for kv in table)["solver.t_end"] == "3.0"
    domain = {key: value for key, value in (kv.split("=", 1) for kv in table)
              if key.startswith("domain.")}
    assert parse_config(f"preset = {name}\n" + _as_file({**LAYER, **domain})
                        ).defaults_table() == table


CONFIG = ["[model]", "p = 1", "[domain]", "L = 1", "n = 10"]
SWEEP = ["[sweep]", "kind = pde", "base = sis-bistable"]


@pytest.mark.parametrize("bad, line", [
    ("[model", 3),              # bad section header
    ("[nosuch]", 3),            # unknown section
    ("p 1", 3),                 # no '='
    ("= 1", 3),                 # empty key
    ("ds_ = 2", 3),             # unknown key
    ("p = 1", 1),               # key before any section
])
@pytest.mark.parametrize("good, parse", [(CONFIG, parse_config),
                                         (SWEEP, parse_sweep)],
                         ids=["config", "sweep"])
def test_malformed_line_names_its_line(good, parse, bad, line):
    text = "\n".join(good[:line - 1] + [bad] + good[line - 1:]) + "\n"
    with pytest.raises(ConfigError) as err:
        parse(text)
    assert err.value.line == line, str(err.value)


def test_override_items_are_read_as_config_lines(capsys):
    code = cli_main(["preset", "thm-2.11-persist", "--override",
                     "solver.t_end=1", "--override", "solver.dt_max"])
    assert code == 2
    assert "line 2" in capsys.readouterr().err
    assert list(read_lines("a = 1 # note\n\nb=2", ())) == [
        (None, "a", "1", 1), (None, "b", "2", 3)]


@pytest.mark.parametrize("key, value, variant", [
    ("model.k", "5", "power"), ("model.k", "5", "saturated"),
    ("model.ell", "3", "power"), ("model.ell", "3", "binomial"),
    ("model.p", "0.5", "binomial"), ("model.q", "2", "binomial")])
def test_unread_incidence_parameter_is_refused(key, value, variant):
    with pytest.raises(ConfigError, match=re.escape(key)):
        preset_config("thm-2.11-persist",
                      {key: value, "model.incidence": variant})
    name = key.split(".")[1]
    text = (f"preset = thm-2.11-persist\n[model]\nincidence = {variant}\n"
            f"{name} = {value}\n")
    with pytest.raises(ConfigError, match=re.escape(key)) as err:
        parse_config(text)
    assert err.value.line == 4


@pytest.mark.parametrize("pairs", [
    {"model.k": "5", "model.incidence": "binomial"},
    {"model.ell": "3", "model.incidence": "saturated"},
    {"model.ell": "3", "model.incidence": "media"},
    {"model.k": "1.0", "model.ell": "0"},
    {"model.p": "1.0", "model.incidence": "binomial"}])
def test_read_or_default_incidence_parameter_is_accepted(pairs):
    preset_config("thm-2.11-persist", pairs)


@pytest.mark.parametrize("key, value, message", [
    ("detect.window", "-0.1", "detect.window must lie in (0, 1]"),
    ("detect.window", "0", "detect.window must lie in (0, 1]"),
    ("detect.window", "1.5", "detect.window must lie in (0, 1]"),
    ("detect.window", "nan", "detect.window must lie in (0, 1]"),
    ("detect.min_window", "0", "detect.min_window must be at least 1"),
    ("solver.max_steps", "0", "solver.max_steps must be at least 1"),
    ("solver.t_end", "0", "solver.t_end must be positive"),
    ("solver.cadence", "0", "cadence must be positive"),
    ("solver.snapshots", "99", "snapshot time 99.0 outside [0, t_end]"),
    ("solver.snapshots", "-1", "snapshot time -1.0 outside [0, t_end]")])
def test_out_of_range_value_is_refused_where_it_is_built(key, value, message):
    with pytest.raises(ConfigError, match=re.escape(message)):
        preset_config("thm-2.11-persist", {key: value})


@pytest.mark.parametrize("text, key, line", [
    ("[solver]\nmax_steps = 0", "solver.max_steps", 5),
    ("[solver]\ndt_min = 1", "solver.dt_min", 5),
    ("[solver]\nt_end = 0", "solver.t_end", 5),
    ("[detect]\nwindow = 2", "detect.window", 5),
    ("[model]\ndS = 0", "model.dS", 5),
    ("[model]\np = 0", "model.p", 5),
    ("[model]\nincidence = binomial\nk = -1", "model.k", 6),
    ("[model]\nbeta_t_amp = 1.5\nomega = 1", "model.beta_t_amp", 5),
    ("[model]\nbeta_t_amp = 0.5", "model.beta_t_amp", 5),
    ("[model]\nbeta = -1", "model.beta", 5),
    ("[model]\ns = -1", "model.s", 5),
    ("[model]\nr = nan", "model.r", 5),
    ("[model]\nincidence = bogus", "model.incidence", 5)],
    ids=["max-steps", "dt-min", "t-end", "window", "dS", "p", "binomial-k",
         "amplitude", "no-period", "negative-beta", "s", "r-nan", "incidence"])
def test_a_refused_value_names_its_key_and_line(text, key, line):
    # the code that builds the value refuses it; the reader adds the line
    with pytest.raises(ConfigError) as err:
        parse_config(f"[domain]\nL = 1\nn = 16\n{text}\n")
    assert (err.value.key, err.value.line) == (key, line)
    assert str(err.value).startswith(f"line {line}: {key}")


@pytest.mark.parametrize("domain, bump, same_or_refused", [
    ("L = 2 1\nn = 8 8", "bump(auto, 0.3, 0.05, 1.0)", "bump(1.0, 0.3, 0.05, 1.0)"),
    ("L = 2 1\nn = 8 8", "bump(0.3, auto, 1.0)", "bump(0.3, 0.5, 0.1, 1.0)"),
    ("L = 1\nn = 8", "bump(0.2, 0.7, 0.05, 1.0)", "2 centre coordinates for a 1D grid"),
    ("L = 1\nn = 8", "bump(0.2, 0, 1.0)", "width must be positive or auto, got 0.0"),
    ("L = 1\nn = 8", "bump(0.2, -0.1, 1.0)", "width must be positive or auto, got -0.1")],
    ids=["auto-x", "auto-y-and-width", "extra-centre", "zero-width", "negative-width"])
def test_each_bump_argument_is_used_on_its_axis_or_refused(domain, bump,
                                                          same_or_refused):
    def build(value):
        cfg = parse_config(f"[domain]\n{domain}\n[initial]\nI = {value}\n")
        return cfg.initial_I.build(cfg.domain)

    if same_or_refused.startswith("bump("):
        assert np.array_equal(build(bump), build(same_or_refused))
        return
    with pytest.raises(ConfigError, match=re.escape(same_or_refused)) as err:
        build(bump)
    assert (err.value.key, err.value.line) == ("initial.I", 5)
    assert str(err.value).startswith("line 5: ") and "initial.I" in str(err.value)


@pytest.mark.parametrize("read, text", [
    (parse_config, "[domain]\nL = 1\nn = 16\nn = 8\n"),
    (parse_sweep, "[sweep]\nkind = ode-si\npoints = 5\npoints = 7\n"),
    (lambda text: _parse_overrides(text.splitlines()),
     "model.beta=2\nsolver.dt_max=0.01\nsolver.t_end=1\nsolver.t_end=2")],
    ids=["config", "sweep", "override"])
def test_a_duplicate_key_is_refused_with_both_lines(read, text):
    with pytest.raises(ConfigError, match="duplicate key .*, first set on line 3") as err:
        read(text)
    assert err.value.line == 4


# Dataclass defaults that SCHEMA states again as default strings.
TWICE_STATED = [(Incidence, name, f"model.{name}") for name in ("q", "p", "k", "ell")]
TWICE_STATED += [(ModelSpec, name, f"model.{name}") for name in ("s", "r")]
TWICE_STATED += [(SolverSettings, name, f"solver.{name}")
                 for name in ("dt_init", "dt_min", "dt_max", "max_steps")]
TWICE_STATED += [(Tolerances, name, f"detect.{key}") for name, key in (
    ("extinct", "tol_extinct"), ("flat", "tol_flat"), ("persist", "tol_persist"),
    ("periodic", "tol_periodic"), ("window_fraction", "window"),
    ("min_window", "min_window"))]


@pytest.mark.parametrize("cls, name, full", TWICE_STATED,
                         ids=[full for _, _, full in TWICE_STATED])
def test_schema_defaults_equal_the_dataclass_defaults(cls, name, full):
    # Incidence refuses an unread parameter that differs from its default,
    # so a drift here would change which config values are refused.
    section, key = full.split(".")
    tag, default = SCHEMA[section][key]
    field = next(f for f in dataclasses.fields(cls) if f.name == name)
    assert _coerce(tag, default, full, None) == field.default


@pytest.mark.parametrize("command", ["r0", "run"])
@pytest.mark.parametrize("line", ["cadence = 0", "snapshots = 99"])
def test_cli_refuses_a_bad_schedule_before_any_work(tmp_path, capsys,
                                                    command, line):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"preset = thm-2.11-persist\n[solver]\n{line}\n")
    assert cli_main([command, str(cfg)]) == 2
    assert "error:" in capsys.readouterr().err


def _readme_ini_blocks() -> list[str]:
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    return re.findall(r"```ini\n(.*?)```", readme, re.S)


def test_readme_config_block_parses_and_lists_every_key():
    block, = [b for b in _readme_ini_blocks() if "[sweep]" not in b]
    parse_config(block)
    uncommented = re.sub(r"(?m)^# ?", "", block)
    listed = {f"{section}.{key}"
              for section, key, _, _ in read_lines(uncommented, SCHEMA)
              if section}
    every = {f"{section}.{key}" for section in SCHEMA for key in SCHEMA[section]}
    assert every - listed == set()


def test_readme_sweep_blocks_parse():
    blocks = [b for b in _readme_ini_blocks() if "[sweep]" in b]
    assert len(blocks) >= 2
    for block in blocks:
        parse_sweep(block)


def test_an_ode_preset_is_refused_as_a_config_layer():
    with pytest.raises(ConfigError) as err:
        parse_config("preset = si-finite-extinction\n")
    message = str(err.value)
    assert "'si-finite-extinction' is not a PDE preset" in message
    assert message.endswith(", ".join(sorted(PDE_PRESETS)))


@pytest.mark.parametrize("command", ["r0", "run"])
@pytest.mark.parametrize("model, message", [
    ("dS = nan", "diffusivities must be finite and positive"),
    ("dI = inf", "diffusivities must be finite and positive"),
    ("beta = nan", "need 0 <= lower <= upper < inf"),
    ("beta_table = table.txt", "need 0 <= lower <= upper < inf"),
    ("omega = nan", "line 5: model.omega must be finite and positive"),
    ("omega = inf\nbeta_t_amp = 0.5",
     "line 5: model.omega must be finite and positive")],
    ids=["dS-nan", "dI-inf", "beta-nan", "table-nan", "omega-nan",
         "omega-inf-modulated"])
def test_cli_refuses_a_non_finite_model_input(tmp_path, capsys, monkeypatch,
                                              command, model, message):
    # refused while the config is read, before any step or period map
    monkeypatch.chdir(tmp_path)
    (tmp_path / "table.txt").write_text("0 2 1\n1.0\nnan\n")
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"[domain]\nL = 1.0\nn = 16\n[model]\n{model}\n")
    args = [command, str(cfg)] + (["--out", "out"] if command == "run" else [])
    assert cli_main(args) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_a_non_finite_domain_length_is_refused(value):
    with pytest.raises(ConfigError, match="finite and positive"):
        parse_config(f"[domain]\nL = {value}\nn = 16\n")
    with pytest.raises(ConfigError, match="finite and positive"):
        parse_config(f"[domain]\nL = 1.0 {value}\nn = 8 8\n")


@pytest.mark.parametrize("L, n, lengths, cells", [
    ("2.0", "16", (2.0,), (16,)),
    ("2.0 0.5", "16 8", (2.0, 0.5), (16, 8))], ids=["interval", "rectangle"])
def test_domain_keys_take_one_value_per_axis(L, n, lengths, cells):
    cfg = parse_config(f"[domain]\nL = {L}\nn = {n}\n")
    assert cfg.domain == Domain(lengths, cells)


@pytest.mark.parametrize("domain", [
    "L = 1 1\nn = 48", "L = 1", "n = 48", "L = 1 1 1\nn = 8 8 8",
    "L = nan 1\nn = 8 8", "Lx = 1\nLy = 1\nnx = 8\nny = 8"],
    ids=["count-mismatch", "no-n", "no-L", "three-axes", "nan-length",
         "per-axis-keys"])
def test_a_bad_domain_is_refused(domain):
    with pytest.raises(ConfigError):
        parse_config(f"[domain]\n{domain}\n")


@pytest.mark.parametrize("text, line", [
    ("[domain]\nL = 1 1\nn = 48\n", 2),
    ("[domain]\nL = 1 1 1\nn = 4 4 4\n", 2),
    ("[domain]\nL = nan\nn = 16\n", 2),
    ("preset = thm-2.11-persist\n[domain]\nn = 2\n", 3)],
    ids=["count-mismatch", "three-axes", "nan-length", "too-few-cells"])
def test_a_domain_that_does_not_fit_names_its_keys_and_line(text, line):
    with pytest.raises(ConfigError, match="domain.L and domain.n") as err:
        parse_config(text)
    assert err.value.line == line


def test_omega_must_match_a_tabulated_period(tmp_path):
    # beta = 2 (1 + 0.5 sin(pi t)) has period 2, and its table says so
    t_nodes = np.linspace(0.0, 2.0, 33)
    table = np.tile(2.0 * (1 + 0.5 * np.sin(np.pi * t_nodes)), (2, 1))
    path = tmp_path / "beta.txt"
    write_coefficient_table(path, table, omega=2.0)
    text = (f"[domain]\nL = 1\nn = 16\n[model]\nbeta_table = {path}\n"
            "omega = {}\n")
    with pytest.raises(ConfigError, match=re.escape(
            "model.omega = 1.0 is not the period of the coefficients (2.0)")
            ) as err:
        parse_config(text.format("1.0"))
    assert err.value.line == 6
    for omega in ("2", "none"):
        assert parse_config(text.format(omega)).model.beta.period == 2.0


def test_omega_without_a_time_varying_coefficient_is_refused():
    with pytest.raises(ConfigError, match="none varies in time") as err:
        parse_config("[domain]\nL = 1\nn = 16\n[model]\nomega = 1\n")
    assert err.value.line == 5


def test_coefficient_tables_with_different_periods_are_refused(tmp_path, capsys):
    for name, period in (("beta", 1.0), ("gamma", 2.0)):
        t_nodes = np.linspace(0.0, period, 17)
        table = np.tile(1 + 0.5 * np.sin(2 * np.pi * t_nodes / period), (2, 1))
        write_coefficient_table(tmp_path / f"{name}.txt", table, omega=period)
    cfg = tmp_path / "two-tables.cfg"
    cfg.write_text(f"preset = thm-2.11-periodic\n[model]\nbeta_t_amp = 0\n"
                   f"omega = none\nbeta_table = {tmp_path / 'beta.txt'}\n"
                   f"gamma_table = {tmp_path / 'gamma.txt'}\n")
    assert cli_main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert "coefficient periods [1.0, 2.0] differ" in capsys.readouterr().err


def test_the_two_dim_variant_is_two_domain_pairs():
    cfg = preset_config("sis-bistable", two_dim=True)
    table = cfg.defaults_table()
    assert [kv for kv in table if kv.startswith("domain.")] == [
        "domain.L=1.0 1.0", "domain.n=48 48"]
    finer = cfg.with_overrides({"domain.n": "24 24"})
    assert finer.domain == Domain((1.0, 1.0), (24, 24))
