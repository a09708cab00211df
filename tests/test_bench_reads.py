"""What the benchmark reads of a spectral result must stay a field of it."""

import ast
import dataclasses
from pathlib import Path

from sqip.spectral import SpectralResult

WORKER = Path(__file__).resolve().parent.parent / "bench" / "worker.py"


def _result_reads() -> set[str]:
    """Every ``result.<attr>`` read in ``SpectralItem.run`` of the bench worker."""
    tree = ast.parse(WORKER.read_text(encoding="utf-8"))
    item = next(node for node in tree.body
                if isinstance(node, ast.ClassDef) and node.name == "SpectralItem")
    run = next(node for node in item.body
               if isinstance(node, ast.FunctionDef) and node.name == "run")
    return {node.attr for node in ast.walk(run)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "result" and isinstance(node.ctx, ast.Load)}


def test_every_spectral_result_read_of_the_bench_is_a_field():
    reads = _result_reads()
    assert reads, "SpectralItem.run reads no result field: the walk lost it"
    fields = {f.name for f in dataclasses.fields(SpectralResult)}
    assert reads <= fields, sorted(reads - fields)
