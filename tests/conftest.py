import numpy as np
import pytest

from sqip.model import CoefficientField


def write_coefficient_table(path, table: np.ndarray, omega: float | None) -> None:
    """Inverse of :func:`sqip.model.read_coefficient_table`."""
    table = np.asarray(table, dtype=float)
    n_x, n_t = table.shape
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{omega if omega else 0.0:.17g} {n_x} {n_t}\n")
        for row in table:
            fh.write(" ".join(f"{v:.17g}" for v in row) + "\n")


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
