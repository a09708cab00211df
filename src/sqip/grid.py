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
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cholesky_banded
from scipy.linalg.lapack import dpbtrs

from .errors import ConfigError, DomainError, NumericsError

MIN_CELLS = 4


@dataclass(frozen=True)
class Domain:
    """Interval or rectangle on a tensor-product cell-centered grid.

    Axis k is [0, lengths[k]] split into cells[k] equal cells, with the
    unknowns at the cell centers; fields have the shape ``cells``.
    """

    lengths: tuple[float, ...]
    cells: tuple[int, ...]

    def __post_init__(self):
        if len(self.lengths) != len(self.cells):
            raise ConfigError(f"{len(self.lengths)} lengths for "
                              f"{len(self.cells)} cell counts")
        if not 1 <= len(self.cells) <= 2:
            raise ConfigError(f"domain needs 1 or 2 axes, got {len(self.cells)}")
        for length, n in zip(self.lengths, self.cells):
            if not 0 < length < math.inf:
                raise ConfigError(
                    f"domain length must be finite and positive, got {length}")
            if n < MIN_CELLS:
                raise ConfigError(f"need at least {MIN_CELLS} cells per axis, got {n}")

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


class AxisSolver:
    """Cached Cholesky solve of (I + c*A) along one axis, A = -Laplacian.

    Each solve is one LAPACK ``dpbtrs`` call on the cached factor. The
    right-hand side is not checked for finite values: a NaN or infinity
    passes through into the result, and callers that need finite output
    check it there (:meth:`sqip.solver.Stepper.step` does).
    """

    def __init__(self, n: int, h: float):
        self._ab = _stiffness_banded(n, h)
        self._factors: dict[float, np.ndarray] = {}

    def _factor(self, c: float) -> np.ndarray:
        factor = self._factors.get(c)
        if factor is None:
            ab = c * self._ab
            ab[1, :] += 1.0
            factor = cholesky_banded(ab)
            self._factors[c] = factor
        return factor

    def solve(self, c: float, rhs: np.ndarray, axis: int = 0) -> np.ndarray:
        """Solve (I + c*A) x = rhs along the given axis of a 1D or 2D rhs.

        Always returns a new array; ``rhs`` is left unchanged.
        """
        if c == 0.0:
            return rhs.copy()
        factor = self._factor(c)
        # Axis 1 exists only in 2D, where the transpose is the swap of axes.
        out, info = dpbtrs(factor, rhs if axis == 0 else rhs.T)
        if axis != 0:
            out = out.T
        if info != 0:
            raise NumericsError(f"dpbtrs rejected argument {-info}", info=info)
        return out


class DiffusionSolver:
    """Backward-Euler diffusion solve on a grid.

    1D solves are exact banded Cholesky solves. 2D uses the factored
    alternating-direction form (I + c*Ax)(I + c*Ay), which is first-order
    consistent with the unsplit step and conserves the discrete integral
    exactly, factor by factor.
    """

    def __init__(self, domain: Domain):
        self.domain = domain
        self._axes = [AxisSolver(n, h)
                      for n, h in zip(domain.cells, domain.spacing)]

    def solve(self, c: float, rhs: np.ndarray) -> np.ndarray:
        """Solve (I + c*A) x = rhs on the grid, axis 0 first in 2D.

        Like :meth:`AxisSolver.solve`, this does not check for finite
        values; a non-finite rhs gives a non-finite result.
        """
        out = rhs
        for axis, solver in enumerate(self._axes):
            out = solver.solve(c, out, axis=axis)
        return out


def _axis_poincare(n: int, length: float) -> float:
    """Smallest positive eigenvalue of A on one axis of n cells.

    The cell-centred Neumann stencil has the eigenvalues
    (4/h^2) sin^2(k pi h / (2L)), k = 0..n-1, with cos(k pi x / L)
    sampled at the cell centres as eigenvectors; k = 1 is the one here.
    """
    h = length / n
    return 4.0 / (h * h) * math.sin(math.pi * h / (2.0 * length)) ** 2


def poincare_constant(domain: Domain) -> float:
    """Smallest positive eigenvalue of -Laplacian with zero-flux boundaries.

    This is the constant in the mean-zero Poincare inequality on the grid.
    On a rectangle the spectrum is the sum of the per-axis spectra, so the
    smallest positive value is the minimum of the axis values. The
    value is the exact eigenvalue of the discrete operator, which tends to
    the continuum value (pi/L)^2 at second order in h.
    """
    if min(domain.cells) < 8:
        raise ConfigError("Poincare constant needs at least 8 cells per axis")
    return min(_axis_poincare(n, length)
               for n, length in zip(domain.cells, domain.lengths))
