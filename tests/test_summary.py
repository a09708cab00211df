"""The formatted outputs end to end: ``summary.txt`` and ``sqip r0``."""

from pathlib import Path

from sqip.cli import main as cli_main

GOLDEN = Path(__file__).resolve().parent / "golden"


def test_summary_and_r0_stdout_are_golden(tmp_path, capsys):
    out = tmp_path / "run"
    assert cli_main(["preset", "thm-2.11-persist", "--override", "solver.t_end=2",
                     "--out", str(out)]) == 0
    golden = (GOLDEN / "thm-2.11-persist-t2.summary.txt").read_text(encoding="utf-8")
    assert (out / "summary.txt").read_text(encoding="utf-8") == golden
    assert capsys.readouterr().out == golden

    cfg_file = tmp_path / "scenario.cfg"
    cfg_file.write_text("preset = thm-2.11-persist\n")
    assert cli_main(["r0", str(cfg_file)]) == 0
    assert capsys.readouterr().out == (
        GOLDEN / "thm-2.11-persist.r0.txt").read_text(encoding="utf-8")
