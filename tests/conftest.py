import dataclasses
import functools
import math

import numpy as np
import pytest

from sqip.diagnostics import classify_longtime
from sqip.grid import DiffusionSolver
from sqip.model import CoefficientField
from sqip.presets import preset_config
from sqip.runner import summarize
from sqip.solver import run


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


@functools.cache
def _short_run():
    config = preset_config("thm-2.11-persist", {"solver.t_end": "0.5"})
    traj = run(config)
    return config, traj, classify_longtime(traj, config.detect, omega=config.omega)


def summary_block(header: str, assumptions=None, spectral=None) -> list[str]:
    """The lines under ``header`` in the ``runner.summarize`` text of a
    short thm-2.11-persist run, its assumption checks replaced by
    ``assumptions`` when given and with the spectral result ``spectral``."""
    config, traj, outcome = _short_run()
    if assumptions is not None:
        traj = dataclasses.replace(traj, assumptions=assumptions)
    lines = summarize(config, traj, outcome, spectral).splitlines()
    start = lines.index(header) + 1
    end = next((i for i in range(start, len(lines)) if lines[i].startswith("[")),
               len(lines))
    return lines[start:end]


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
