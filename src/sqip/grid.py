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
class Domain1D:
    """Interval [0, L] split into n equal cells, unknowns at cell centers."""

    length: float
    n: int

    def __post_init__(self):
        if self.length <= 0:
            raise ConfigError(f"domain length must be positive, got {self.length}")
        if self.n < MIN_CELLS:
            raise ConfigError(f"need at least {MIN_CELLS} cells, got {self.n}")

    @property
    def h(self) -> float:
        return self.length / self.n

    @property
    def measure(self) -> float:
        return self.length

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.n,)

    def cell_centers(self) -> np.ndarray:
        return (np.arange(self.n) + 0.5) * self.h

    def x_coordinate(self) -> np.ndarray:
        """Coordinate array used by coefficient evaluators (1D: the centers)."""
        return self.cell_centers()


@dataclass(frozen=True)
class Domain2D:
    """Rectangle [0, Lx] x [0, Ly] on a tensor-product cell-centered grid."""

    length_x: float
    length_y: float
    nx: int
    ny: int

    def __post_init__(self):
        if self.length_x <= 0 or self.length_y <= 0:
            raise ConfigError("domain lengths must be positive")
        if self.nx < MIN_CELLS or self.ny < MIN_CELLS:
            raise ConfigError(f"need at least {MIN_CELLS} cells per direction")

    @property
    def hx(self) -> float:
        return self.length_x / self.nx

    @property
    def hy(self) -> float:
        return self.length_y / self.ny

    @property
    def measure(self) -> float:
        return self.length_x * self.length_y

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.nx, self.ny)

    def cell_centers(self) -> tuple[np.ndarray, np.ndarray]:
        x = (np.arange(self.nx) + 0.5) * self.hx
        y = (np.arange(self.ny) + 0.5) * self.hy
        return x, y

    def x_coordinate(self) -> np.ndarray:
        """x-coordinate broadcast over the (nx, ny) field layout."""
        x, _ = self.cell_centers()
        return x[:, None]


Domain = Domain1D | Domain2D


def integrate(domain: Domain, values: np.ndarray) -> float:
    """Midpoint-rule quadrature; exact for fields linear in each coordinate."""
    values = np.asarray(values, dtype=float)
    if values.shape != domain.shape:
        raise DomainError(
            f"field shape {values.shape} does not match grid {domain.shape}"
        )
    if isinstance(domain, Domain1D):
        return float(values.sum() * domain.h)
    return float(values.sum() * domain.hx * domain.hy)


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
        if isinstance(domain, Domain1D):
            self._axes = [AxisSolver(domain.n, domain.h)]
        else:
            self._axes = [AxisSolver(domain.nx, domain.hx),
                          AxisSolver(domain.ny, domain.hy)]

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
    smallest positive value is the minimum of the two axis values. The
    value is the exact eigenvalue of the discrete operator, which tends to
    the continuum value (pi/L)^2 at second order in h.
    """
    if isinstance(domain, Domain1D):
        if domain.n < 8:
            raise ConfigError("Poincare constant needs at least 8 cells")
        return _axis_poincare(domain.n, domain.length)
    if domain.nx < 8 or domain.ny < 8:
        raise ConfigError("Poincare constant needs at least 8 cells per axis")
    return min(_axis_poincare(domain.nx, domain.length_x),
               _axis_poincare(domain.ny, domain.length_y))
