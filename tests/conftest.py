import pytest

from sqip.model import CoefficientField


@pytest.fixture
def coeff_calls(monkeypatch):
    """Times t of every CoefficientField evaluation made during the test."""
    calls = []
    original = CoefficientField.__call__

    def counted(self, x, t):
        calls.append(t)
        return original(self, x, t)

    monkeypatch.setattr(CoefficientField, "__call__", counted)
    return calls
