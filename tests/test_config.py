"""Text front end: one line reader, one unknown-key check, one layering
rule for config, preset, override and sweep text."""

import re
from pathlib import Path

import pytest

from sqip.cli import main as cli_main
from sqip.config import SCHEMA, parse_config, read_lines
from sqip.errors import ConfigError
from sqip.presets import PDE_PRESETS, preset_config
from sqip.runner import parse_sweep

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
    if not two_dim:  # a file cannot drop the preset's L and n
        assert parse_config(f"preset = {name}\n" + _as_file(LAYER)
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
    ("model.ell", "3", "power"), ("model.ell", "3", "binomial")])
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
    {"model.k": "1.0", "model.ell": "0"}])
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
    ("omega = nan", "model.omega must be finite and positive"),
    ("omega = inf\nbeta_t_amp = 0.5", "period must be finite and positive")],
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
        parse_config(f"[domain]\nLx = 1.0\nLy = {value}\nnx = 8\nny = 8\n")
