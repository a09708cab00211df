"""Cell-centered finite-volume grids with zero-flux boundaries.

The spatial operator is the standard second-order Laplacian stencil with
mirror ghost cells. Its only representation is the banded stiffness
matrix A = -Laplacian of one axis, which the diffusion solves factor
(a sum of two axis operators in 2D). A has exactly zero row and column
sums, so discrete integration of any Laplacian image vanishes
identically, which is the backbone of every mass-control check in this
package.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError, NumericsError

MIN_CELLS = 4


@dataclass(frozen=True)
class Domain:
    """Interval or rectangle on a tensor-product cell-centered grid.

    Axis k is [0, lengths[k]] split into cells[k] equal cells, with the
    unknowns at the cell centers; fields have the shape ``cells``, whose
    counts are stored as ``int``.
    """

    lengths: tuple[float, ...]
    cells: tuple[int, ...]

    def __post_init__(self):
        if len(self.lengths) != len(self.cells):
            raise ConfigError(f"{len(self.lengths)} lengths for "
                              f"{len(self.cells)} cell counts")
        if not 1 <= len(self.cells) <= 2:
            raise ConfigError(f"domain needs 1 or 2 axes, got {len(self.cells)}")
        try:
            object.__setattr__(self, "cells", tuple(map(operator.index, self.cells)))
        except TypeError:
            raise ConfigError(f"cell counts must be integers, got {self.cells}",
                              key="cells") from None
        for length, n in zip(self.lengths, self.cells):
            if not 0 < length < math.inf:
                raise ConfigError(
                    f"domain length must be finite and positive, got {length}",
                    key="lengths")
            if n < MIN_CELLS:
                raise ConfigError(f"need at least {MIN_CELLS} cells per axis, got {n}",
                                  key="cells")
            h = length / n  # _stiffness_banded's diagonal is 2.0 * (1/(h*h))
            if not (h * h > 0 and 2.0 * (1.0 / (h * h)) < math.inf):
                raise ConfigError(f"cell width {h:.3g} makes 2/h^2 infinite",
                                  key="lengths")

    @property
    def spacing(self) -> tuple[float, ...]:
        return tuple(length / n for length, n in zip(self.lengths, self.cells))

    @property
    def measure(self) -> float:
        return math.prod(self.lengths)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.cells

    def cell_centers(self) -> tuple[np.ndarray, ...]:
        """The cell centers of each axis, one 1D array per axis."""
        return tuple((np.arange(n) + 0.5) * h
                     for n, h in zip(self.cells, self.spacing))

    def x_coordinate(self) -> np.ndarray:
        """x-coordinate broadcast over the field layout: (n,) or (nx, 1)."""
        return np.meshgrid(*self.cell_centers(), indexing="ij", sparse=True)[0]


def integrate(domain: Domain, values: np.ndarray) -> float:
    """Midpoint-rule quadrature; exact for fields linear in each coordinate."""
    values = np.asarray(values, dtype=float)
    if values.shape != domain.shape:
        raise DomainError(
            f"field shape {values.shape} does not match grid {domain.shape}"
        )
    total = values.sum()
    for h in domain.spacing:
        total = total * h
    return float(total)


def _stiffness_banded(n: int, h: float) -> np.ndarray:
    """Upper banded form of A = -Laplacian for one axis (SPD up to kernel)."""
    inv_h2 = 1.0 / (h * h)
    ab = np.zeros((2, n))
    ab[0, 1:] = -inv_h2
    ab[1, :] = 2.0 * inv_h2
    ab[1, 0] = inv_h2
    ab[1, -1] = inv_h2
    return ab


# LAPACK's banded Cholesky factorization and solve, bound by the first
# factorization. As module globals, not attributes, they keep the
# spectral benchmark about 1.5% faster.
dpbtrf = dpbtrs = None


def cholesky_banded(ab: np.ndarray) -> np.ndarray:
    """Upper Cholesky factor of a banded SPD matrix in upper banded form:
    one LAPACK ``dpbtrf`` call, which does not check for finite values.
    scipy.linalg takes about a third of a second to import, so the first
    call loads it, and ``dpbtrs`` with it, not the package: the ODE oracle
    never pays for it. Every solve factors before it solves."""
    global dpbtrf, dpbtrs
    if dpbtrf is None:
        from scipy.linalg.lapack import dpbtrf, dpbtrs
    factor, info = dpbtrf(ab)
    if info != 0:
        raise NumericsError(f"dpbtrf failed with info {info}", info=info)
    return factor


class DiffusionSolver:
    """Backward-Euler diffusion solve on a grid.

    Each axis solve is one LAPACK ``dpbtrs`` call on a ``dpbtrf`` Cholesky
    factor of (I + c*A) for that axis, kept for the last two values of
    ``c`` factored. 1D solves are exact banded solves. 2D uses the factored
    alternating-direction form (I + c*Ax)(I + c*Ay), which is first-order
    consistent with the unsplit step and conserves the discrete integral
    exactly, factor by factor. LAPACK (scipy.linalg) is loaded by the
    first factorization.
    """

    def __init__(self, domain: Domain):
        self._stiffness = [_stiffness_banded(n, h)
                           for n, h in zip(domain.cells, domain.spacing)]
        self._factors: dict[float, list[tuple[np.ndarray, bool]]] = {}

    def _axis_factors(self, c: float) -> list[tuple[np.ndarray, bool]]:
        """Per axis: the factor of (I + c*A) and whether the solve along
        it goes through the transpose (axis 1 of a 2D field)."""
        if not 0 <= c < math.inf:  # (I + c*A) is SPD for every such c
            raise DomainError(f"diffusion solve needs a finite c >= 0, got {c}")
        # Two sets serve the S and I solves of a step; when the reaction
        # cap sets dt, c changes almost every step. The oldest set goes.
        if len(self._factors) >= 2:
            del self._factors[next(iter(self._factors))]
        factors = []
        for axis, stiffness in enumerate(self._stiffness):
            ab = c * stiffness
            ab[1, :] += 1.0
            factors.append((cholesky_banded(ab), axis > 0))
        self._factors[c] = factors
        return factors

    def solve(self, c: float, rhs: np.ndarray) -> np.ndarray:
        """Solve (I + c*A) x = rhs on the grid, axis 0 first in 2D.

        Always returns a new array; ``rhs`` is left unchanged. The rhs is
        not checked for finite values: a NaN or infinity passes through
        into the result, and callers that need finite output check it
        there (:meth:`sqip.solver.Stepper.step` does).
        """
        out = rhs
        for factor, swap in self._factors.get(c) or self._axis_factors(c):
            out, info = dpbtrs(factor, out.T if swap else out)
            if info != 0:
                raise NumericsError(f"dpbtrs rejected argument {-info}", info=info)
            if swap:
                out = out.T
        return out

    def propagate(self, c: float, phi: np.ndarray, rows) -> np.ndarray:
        """On a 1D grid: for each multiplier g of ``rows`` in turn,
        phi <- (I + c*A)^-1 (phi * g); the bits of :meth:`solve` after each
        multiply. The factor and ``dpbtrs`` are bound once per call, so a
        step is one multiply and one LAPACK call. ``phi`` is left
        unchanged.
        """
        [(factor, _)] = self._factors.get(c) or self._axis_factors(c)
        solve = dpbtrs
        out = phi
        for g in rows:
            out, info = solve(factor, out * g)
            if info != 0:
                raise NumericsError(f"dpbtrs rejected argument {-info}", info=info)
        return out
