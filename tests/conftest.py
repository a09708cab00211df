import math

import numpy as np
import pytest

from sqip.grid import DiffusionSolver
from sqip.model import CoefficientField


def solved_eigenvalue(domain, c: float = 1e-2) -> float:
    """Smallest positive eigenvalue of A = -Laplacian, read off one
    diffusion solve per axis.

    cos(pi x / L) along an axis, constant along the other, is an exact
    eigenvector of (I + c*A) at the cell centres, with (I + c*A) f =
    (1 + c*lam) f; so lam = (<f, f> / <f, solve(c, f)> - 1) / c.
    """
    solver = DiffusionSolver(domain)
    coords = np.meshgrid(*domain.cell_centers(), indexing="ij")
    lams = []
    for x, length in zip(coords, domain.lengths):
        f = np.cos(math.pi * x / length)
        lams.append((np.vdot(f, f) / np.vdot(f, solver.solve(c, f)) - 1.0) / c)
    return float(min(lams))


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
