"""The benchmark's tracing hooks still find what they wrap.

``bench/spans.py`` wraps public sqip functions by name and reads some of
their arguments by name; a target that a refactor renamed or whose
argument it dropped would turn the dependent per-layer metrics absent
instead of failing. This resolves every hook the way the tracer does,
without installing any.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


HOOKS = _load_spans().HOOKS


@pytest.mark.parametrize("span_name,target,counter", HOOKS,
                         ids=[target for _, target, _ in HOOKS])
def test_hook_target_resolves(span_name, target, counter):
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    for part in path.split("."):
        owner = getattr(owner, part)
    assert callable(owner), span_name
    if counter is not None:
        assert callable(counter(owner))
