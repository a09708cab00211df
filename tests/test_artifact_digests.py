"""The text diff that ``tools/artifact_digests.py`` prints per DIFF line."""

import importlib
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"


@pytest.fixture
def digests(monkeypatch):
    monkeypatch.syspath_prepend(str(TOOLS))
    return importlib.import_module("artifact_digests")


def _write(root: Path, name: str, text: str) -> None:
    path = root / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def test_one_changed_line_of_a_file_and_of_stdout(digests, tmp_path):
    base, head = tmp_path / "out-base", tmp_path / "out-head"
    _write(base, "run/summary.txt", "a=1\nb=2\nc=3\n")
    _write(head, "run/summary.txt", "a=1\nb=5\nc=3\n")
    _write(base, "run/stdout", "wrote <out>\n")
    _write(head, "run/stdout", "wrote <out> twice\n")
    lines = digests.text_diff("run/summary.txt", base, head)
    assert lines[:2] == ["--- base/run/summary.txt", "+++ head/run/summary.txt"]
    assert [line for line in lines[3:] if line[0] in "+-"] == ["-b=2", "+b=5"]
    lines = digests.text_diff("run/stdout", base, head)
    assert lines[-2:] == ["-wrote <out>", "+wrote <out> twice"]


def test_a_long_diff_is_cut(digests, tmp_path):
    base, head = tmp_path / "out-base", tmp_path / "out-head"
    _write(base, "run/rows.csv", "".join(f"{k}\n" for k in range(100)))
    _write(head, "run/rows.csv", "".join(f"{-k}\n" for k in range(1, 101)))
    lines = digests.text_diff("run/rows.csv", base, head)
    assert len(lines) == digests.DIFF_LINES + 1
    assert lines[-1].startswith("... ") and lines[-1].endswith(" more diff lines")


def test_a_missing_side_is_empty_and_bytes_get_no_diff(digests, tmp_path):
    base, head = tmp_path / "out-base", tmp_path / "out-head"
    _write(head, "run/new.txt", "x\n")
    assert digests.text_diff("run/new.txt", base, head)[-1] == "+x"
    for root in (base, head):
        (root / "run").mkdir(parents=True, exist_ok=True)
        (root / "run" / "blob").write_bytes(b"\xff\xfe")
    assert digests.text_diff("run/blob", base, head) == [
        "  run/blob: not UTF-8 text, no diff"]
