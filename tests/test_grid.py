import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import cho_solve_banded, cholesky_banded

from sqip import grid
from sqip.errors import ConfigError, DomainError, NumericsError
from sqip.grid import DiffusionSolver, Domain, _stiffness_banded, integrate

from conftest import solved_eigenvalue

# Property tests draw a fixed sequence of examples, so reruns match.
PROPERTY = settings(max_examples=40, deadline=None, derandomize=True)


def stiffness_dense(n, h):
    """Dense A = -Laplacian of one axis, from the banded form the
    diffusion solves factor."""
    ab = _stiffness_banded(n, h)
    return np.diag(ab[1]) + np.diag(ab[0, 1:], 1) + np.diag(ab[0, 1:], -1)


def laplacian_dense(dom):
    """Dense Laplacian -A of the grid: in 2D the Kronecker sum of the two
    axis operators, acting on C-order flattened (nx, ny) fields."""
    if len(dom.cells) == 1:
        return -stiffness_dense(dom.cells[0], dom.spacing[0])
    (nx, ny), (hx, hy) = dom.cells, dom.spacing
    ax = stiffness_dense(nx, hx)
    ay = stiffness_dense(ny, hy)
    return -(np.kron(ax, np.eye(ny)) + np.kron(np.eye(nx), ay))


def test_constant_field_in_kernel():
    dom = Domain((3.0,), (50,))
    lap = laplacian_dense(dom)
    assert np.abs(lap.sum(axis=1)).max() == 0.0
    out = lap @ np.full(50, 3.7)
    assert np.abs(out).max() <= 1e-13 * 3.7 * np.abs(lap).max()


def test_cosine_is_discrete_eigenfunction():
    # cos(pi x / L) at cell centers is an exact eigenvector of the mirrored
    # stencil, with the eigenvalue -lam read off the diffusion solve; that
    # approaches -(pi/L)^2 at second order.
    dom = Domain((1.0,), (200,))
    lap = laplacian_dense(dom)
    (x,), (length,), (h,) = dom.cell_centers(), dom.lengths, dom.spacing
    f = np.cos(math.pi * x / length)
    assert np.abs(lap @ f + solved_eigenvalue(dom) * f).max() < 1e-8
    residual = np.abs(lap @ f + (math.pi / length) ** 2 * f).max()
    # O(h^2) constant is pi^4/12 ~ 8.1
    assert residual < 10.0 * h**2
    assert residual > 0  # not exactly the continuum value


def test_dense_matrix_symmetric_zero_row_sums():
    dom = Domain((2.0,), (12,))
    A = laplacian_dense(dom)
    assert np.abs(A - A.T).max() == 0.0
    assert np.abs(A.sum(axis=1)).max() == 0.0
    assert np.abs(A.sum(axis=0)).max() == 0.0
    assert np.linalg.eigvalsh(A).max() < 1e-12


def test_2d_dense_symmetric_nonpositive():
    dom = Domain((1.0, 2.0), (5, 4))
    A = laplacian_dense(dom)
    scale = np.abs(A).max()
    assert np.abs(A - A.T).max() == 0.0
    assert np.abs(A.sum(axis=1)).max() < 1e-14 * scale
    assert np.abs(A.sum(axis=0)).max() < 1e-14 * scale
    assert np.linalg.eigvalsh(A).max() < 1e-12 * scale


@PROPERTY
@given(n=st.integers(4, 300), h=st.floats(1e-3, 10.0))
def test_stiffness_rows_and_columns_sum_to_zero(n, h):
    A = stiffness_dense(n, h)
    assert np.array_equal(A, A.T)
    assert not A.sum(axis=1).any()
    assert not A.sum(axis=0).any()


@PROPERTY
@given(dims=st.sampled_from([(7,), (64,), (200,), (6, 9), (24, 24)]),
       length=st.floats(0.5, 4.0), stiffness=st.floats(1e-4, 2e3),
       seed=st.integers(0, 2**32 - 1))
def test_diffusion_solve_keeps_the_integral(dims, length, stiffness, seed):
    # c is drawn as stiffness * h^2: the solve's rounding grows with
    # c / h^2, which stays below 500 in the presets (dt <= 0.05, d = 1,
    # L = 1, n <= 128); the bound holds to about 1e4.
    dom = Domain((length, 2.0)[:len(dims)], dims)
    h = min(dom.spacing)
    c = stiffness * h * h
    rhs = np.random.default_rng(seed).uniform(0.0, 1.0, dom.shape)
    out = DiffusionSolver(dom).solve(c, rhs)
    mass = integrate(dom, rhs)
    assert abs(integrate(dom, out) - mass) <= 1e-12 * mass


def test_integrate_constant_exact():
    dom = Domain((2.0,), (37,))
    assert integrate(dom, np.ones(37)) == pytest.approx(2.0, abs=1e-14)
    assert integrate(dom, np.zeros(37)) == 0.0


def test_integrate_linear_exact():
    # midpoint rule integrates linears exactly on a uniform grid
    dom = Domain((1.0,), (100,))
    (x,) = dom.cell_centers()
    assert abs(integrate(dom, x) - 0.5) < 1e-12


def test_integrate_2d():
    dom = Domain((2.0, 3.0), (8, 16))
    assert integrate(dom, np.ones(dom.shape)) == pytest.approx(6.0, abs=1e-12)


def test_integrate_shape_mismatch():
    with pytest.raises(DomainError):
        integrate(Domain((1.0,), (10,)), np.ones(11))


def test_divergence_theorem_random_fields():
    # the discrete integral of a Laplacian image vanishes: the backbone of
    # every mass-control check
    rng = np.random.default_rng(42)
    dom1 = Domain((1.7,), (33,))
    lap1 = laplacian_dense(dom1)
    for _ in range(20):
        f = lap1 @ rng.uniform(-5, 5, dom1.shape)
        scale = max(np.abs(f).max(), 1.0)
        assert abs(integrate(dom1, f)) < 1e-11 * scale
    dom2 = Domain((2.0, 1.5), (16, 12))
    lap2 = laplacian_dense(dom2)
    for _ in range(10):
        f = (lap2 @ rng.uniform(0, 3, dom2.shape).ravel()).reshape(dom2.shape)
        scale = max(np.abs(f).max(), 1.0)
        assert abs(integrate(dom2, f)) < 1e-11 * scale


def test_small_grid_rejected():
    with pytest.raises(ConfigError):
        Domain((1.0,), (3,))
    with pytest.raises(ConfigError):
        Domain((1.0, 1.0), (3, 8))


@pytest.mark.parametrize("lengths, cells", [
    ((1.0,), (8, 8)), ((1.0, 1.0), (8,)), ((), ()),
    ((1.0,) * 3, (8,) * 3), ((math.nan,), (8,)), ((1.0, math.inf), (8, 8)),
    ((0.0,), (8,)), ((-1.0, 1.0), (8, 8)), ((1.0, 1e-300), (8, 96))],
    ids=["mismatch-1", "mismatch-2", "no-axis", "three-axes", "nan", "inf",
         "zero", "negative", "stiffness-overflow"])
def test_bad_domain_rejected(lengths, cells):
    with pytest.raises(ConfigError):
        Domain(lengths, cells)


@pytest.mark.parametrize("cells", [(4.5,), (8.0,), ("8",), (8, 4.5)],
                         ids=["fraction", "whole-float", "text", "second-axis"])
def test_domain_refuses_a_cell_count_that_is_not_an_integer(cells):
    with pytest.raises(ConfigError, match="cell counts must be integers") as exc:
        Domain((1.0,) * len(cells), cells)
    assert exc.value.key == "cells"


@pytest.mark.parametrize("h", [1e-302, 1e-160, 1.05e-154],
                         ids=["square-is-zero", "square-is-subnormal", "just-over"])
def test_a_width_whose_stiffness_overflows_is_refused_by_length(h):
    with pytest.raises(ConfigError, match=r"makes 2/h\^2 infinite") as exc:
        Domain((8 * h,), (8,))
    assert exc.value.key == "lengths"


def test_the_narrowest_width_with_a_finite_stiffness_is_kept():
    h = math.sqrt(2.0 / sys.float_info.max)
    while not 2.0 * (1.0 / (h * h)) < math.inf:
        h = math.nextafter(h, math.inf)
    dom = Domain((8 * h,), (8,))
    assert dom.spacing == (h,) and np.isfinite(_stiffness_banded(8, h)).all()
    with pytest.raises(ConfigError):
        Domain((8 * math.nextafter(h, 0.0),), (8,))


def test_domain_stores_integer_cell_counts():
    dom = Domain((1.0, 2.0), (np.int64(8), 6))
    assert dom.cells == (8, 6) and all(type(n) is int for n in dom.cells)
    assert len(dom.cell_centers()[0]) == 8


def test_domain_geometry_per_axis():
    dom = Domain((2.0, 3.0), (4, 6))
    assert dom.shape == (4, 6)
    assert dom.spacing == (0.5, 0.5)
    assert dom.measure == 6.0
    x, y = dom.cell_centers()
    assert np.array_equal(x, [0.25, 0.75, 1.25, 1.75])
    assert np.array_equal(y, (np.arange(6) + 0.5) * 0.5)
    assert np.array_equal(dom.x_coordinate(), x[:, None])
    line = Domain((2.0,), (4,))
    assert line.spacing == (0.5,) and line.measure == 2.0
    assert np.array_equal(line.x_coordinate(), x)


def test_poincare_interval_pi():
    # analytic smallest positive eigenvalue (pi/L)^2 = 1 on [0, pi]
    lam = solved_eigenvalue(Domain((math.pi,), (400,)))
    assert abs(lam - 1.0) < 1e-4


def test_poincare_unit_interval():
    lam = solved_eigenvalue(Domain((1.0,), (400,)))
    assert abs(lam - math.pi**2) < 1e-2


def test_poincare_square():
    lam = solved_eigenvalue(Domain((math.pi, math.pi), (200, 200)))
    assert abs(lam - 1.0) < 1e-3


def test_poincare_refinement_order():
    errs = [abs(solved_eigenvalue(Domain((1.0,), (n,))) - math.pi**2)
            for n in (100, 200, 400)]
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert all(o >= 1.9 for o in orders)
    assert errs[2] < errs[1] < errs[0]


def test_poincare_resolution_override():
    coarse = solved_eigenvalue(Domain((1.0,), (16,)))
    fine = solved_eigenvalue(Domain((1.0,), (256,)))
    assert abs(fine - math.pi**2) < abs(coarse - math.pi**2)


def test_the_factor_cache_keeps_the_last_two_values_factored(monkeypatch):
    # A run whose dt the reaction cap sets changes c almost every step:
    # the cache must not grow with the steps, while the S and I solves of
    # a step, two alternating values of c, factor each value once.
    factored = []
    original = DiffusionSolver._axis_factors

    def counted(self, c):
        factored.append(c)
        return original(self, c)

    monkeypatch.setattr(DiffusionSolver, "_axis_factors", counted)
    dom = Domain((1.0,), (16,))
    solver = DiffusionSolver(dom)
    f = np.random.default_rng(5).uniform(0.1, 2.0, dom.shape)
    for k in range(1, 201):
        solver.solve(k * 1e-3, f)
    assert len(solver._factors) <= 2
    factored.clear()
    for c in [0.5, 0.7] * 50:
        out = solver.solve(c, f)
    assert factored == [0.5, 0.7]
    assert np.array_equal(out, DiffusionSolver(dom).solve(0.7, f))
    # oldest out: 0.5, factored before 0.7, goes to make room for 0.9
    factored.clear()
    for c in (0.5, 0.9, 0.7, 0.9):
        solver.solve(c, f)
    assert factored == [0.9]


def test_backward_euler_solve_conserves_integral():
    dom = Domain((1.0,), (64,))
    solver = DiffusionSolver(dom)
    rng = np.random.default_rng(3)
    f = rng.uniform(0.1, 2.0, dom.shape)
    out = solver.solve(0.37, f)
    assert abs(integrate(dom, out) - integrate(dom, f)) < 1e-12
    # preserves floors (inverse of an M-matrix)
    assert out.min() >= f.min() - 1e-12


def test_backward_euler_2d_conserves_integral():
    dom = Domain((1.0, 1.0), (12, 10))
    solver = DiffusionSolver(dom)
    rng = np.random.default_rng(4)
    f = rng.uniform(0.0, 1.0, dom.shape)
    out = solver.solve(0.05, f)
    assert abs(integrate(dom, out) - integrate(dom, f)) < 1e-12


@pytest.mark.parametrize("c", [math.nan, math.inf, -1e-3])
def test_a_diffusion_solve_refuses_a_bad_coefficient(c):
    # dpbtrf factors a NaN or infinite matrix without complaint
    solver = DiffusionSolver(Domain((1.0,), (16,)))
    with pytest.raises(DomainError, match="finite c >= 0"):
        solver.solve(c, np.ones(16))


@pytest.mark.parametrize("n", (48, 96, 128))
def test_the_banded_factor_is_scipys(n):
    ab = 0.37 * _stiffness_banded(n, 1.0 / n)
    ab[1, :] += 1.0
    assert np.array_equal(grid.cholesky_banded(ab), cholesky_banded(ab))


def test_an_indefinite_matrix_is_not_factored():
    with pytest.raises(NumericsError, match="dpbtrf failed with info 1"):
        grid.cholesky_banded(np.array([[0.0, 0.0], [-1.0, 1.0]]))


def _reference_axis_solve(n, h, c, rhs, axis):
    """(I + c*A) x = rhs along one axis through scipy's checked wrapper."""
    ab = c * _stiffness_banded(n, h)
    ab[1, :] += 1.0
    factor = cholesky_banded(ab)
    moved = np.moveaxis(rhs, axis, 0)
    out = cho_solve_banded((factor, False), moved.reshape(n, -1))
    return np.moveaxis(out.reshape(moved.shape), 0, axis)


SOLVE_COEFFS = (1e-5, 0.003, 0.37, 12.0)


@pytest.mark.parametrize("n", (96, 128))
@pytest.mark.parametrize("c", SOLVE_COEFFS)
def test_axis_solve_bitwise_matches_reference_1d(n, c):
    dom = Domain((1.7,), (n,))
    rhs = np.random.default_rng(n).uniform(-1.0, 3.0, dom.shape)
    kept = rhs.copy()
    (h,) = dom.spacing
    want = _reference_axis_solve(n, h, c, rhs, 0)
    assert np.array_equal(DiffusionSolver(dom).solve(c, rhs), want)
    assert np.array_equal(rhs, kept)


@pytest.mark.parametrize("c", SOLVE_COEFFS)
def test_axis_solve_bitwise_matches_reference_2d(c):
    dom = Domain((1.0, 2.5), (48, 48))
    rhs = np.random.default_rng(48).uniform(-1.0, 3.0, dom.shape)
    kept = rhs.copy()
    hx, hy = dom.spacing
    along_x = _reference_axis_solve(48, hx, c, rhs, 0)
    adi = _reference_axis_solve(48, hy, c, along_x, 1)
    assert np.array_equal(DiffusionSolver(dom).solve(c, rhs), adi)
    assert np.array_equal(rhs, kept)


@pytest.mark.parametrize("dom", (Domain((1.0,), (16,)), Domain((1.0, 1.0), (8, 6))))
def test_zero_coefficient_solve_returns_fresh_copy(dom):
    rhs = np.random.default_rng(5).uniform(0.0, 1.0, dom.shape)
    out = DiffusionSolver(dom).solve(0.0, rhs)
    assert np.array_equal(out, rhs)
    assert not np.shares_memory(out, rhs)
