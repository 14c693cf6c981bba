import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.fft import dstn, idstn

import quasivar.grid
from quasivar import (FieldPair, Grid, GridFunction, dump_field, ell_norm,
                      integrate, norm_Linf, norm_Lp, norm_W, pair_norm_W,
                      power_map)
from quasivar.grid import sine_product

from util import assemble_jacobian, kron_stiffness


def _random_field(grid: Grid, seed: int) -> GridFunction:
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal(grid.node_shape)
    vals[grid.boundary_mask()] = 0.0
    return GridFunction(grid, vals)


class TestGrid:
    def test_mesh_width(self):
        g = Grid(2, 65)
        assert g.h == 1.0 / 64
        assert g.cell_volume == g.h ** 2
        assert g.num_cells == 64 ** 2

    @pytest.mark.parametrize("dimension", [1, 2])
    def test_boundary_mask_is_cached_and_read_only(self, dimension):
        # GridFunction and scatter read it on every call: one array per
        # grid, which no caller may change
        g = Grid(dimension, 5)
        mask = g.boundary_mask()
        assert g.boundary_mask() is mask
        assert not mask.flags.writeable
        with pytest.raises(ValueError):
            mask[0] = False
        inner = np.zeros(g.node_shape, dtype=bool)
        inner[(slice(1, -1),) * dimension] = True
        assert np.array_equal(mask, ~inner)

    def test_rejects_bad_dimension(self):
        with pytest.raises(ValueError):
            Grid(3, 9)

    @pytest.mark.parametrize("call, message", [
        (lambda g: integrate(np.ones(3), g), "expected 64 element values"),
        (lambda g: GridFunction(g, np.zeros(9)), "values shape"),
        (lambda g: norm_Lp(GridFunction.zero(g), 0.5), "requires p >= 1"),
        (lambda g: power_map(GridFunction.zero(g), -1.0), "requires s >= 0"),
        (lambda g: sine_product(g, 1), "one wavenumber per axis")],
        ids=["integrate", "GridFunction", "norm_Lp", "power_map",
             "sine_product"])
    def test_rejects_bad_argument(self, call, message):
        with pytest.raises(ValueError, match=message):
            call(Grid(2, 9))

    def test_integrate_constant_exact(self):
        g = Grid(2, 17)
        assert integrate(lambda c: np.ones(len(c)), g) == pytest.approx(1.0, abs=1e-14)

    def test_integrate_smooth(self):
        g = Grid(1, 1025)
        val = integrate(lambda c: np.sin(np.pi * c[:, 0]), g)
        assert val == pytest.approx(2.0 / np.pi, rel=1e-5)

    def test_laplacian_solve_matches_analytic(self):
        # -y'' = pi^2 sin(pi x) has solution sin(pi x); the stiffness
        # applied to the interpolant must invert consistently
        g = Grid(1, 257)
        x = g.node_coords()[:, 0]
        target = np.sin(np.pi * x)
        load = g.scatter(np.pi ** 2 * np.sin(np.pi * g.centers[:, 0]),
                         np.zeros((g.num_cells, 1)))
        sol = g.laplacian_solve(load)
        assert np.max(np.abs(sol - target)) < 5e-4

    @pytest.mark.parametrize("dimension, n", [
        pytest.param(d, n, id=f"{d}" if n == 17 else f"{d}-{n}")
        for n in (17, 3, 65) for d in (1, 2)])
    def test_laplacian_solve_inverts_stiffness(self, dimension, n):
        # the polish mixes K with K^-1 F; both must use the interior order
        # of values[~boundary_mask()].  n = 3 has one interior node, so the
        # sine transform runs on length-1 input.
        g = Grid(dimension, n)
        interior = ~g.boundary_mask()
        K = assemble_jacobian(g, g.element_stiffness, sparse=True)
        assert abs(K - K.T).max() == 0.0
        load = _random_field(g, 5).values
        sol = g.laplacian_solve(load)
        assert np.allclose(K @ sol[interior], load[interior], rtol=0,
                           atol=1e-12)

    @pytest.mark.parametrize("dimension", [1, 2])
    def test_zero_load_skips_the_solve(self, dimension, monkeypatch):
        # the idle component's load at a semitrivial point is exactly zero;
        # its solution is zero without a sine transform.  A nonzero load
        # takes two: the forward and the inverse transform
        g = Grid(dimension, 17)
        g.laplacian_solve(_random_field(g, 5).values)
        calls = []
        dst1 = quasivar.grid._dst1
        monkeypatch.setattr(quasivar.grid, "_dst1", lambda x, *args: (
            calls.append(x) or dst1(x, *args)))
        sol = g.laplacian_solve(g.zeros())
        assert not calls
        assert sol.shape == g.node_shape and not np.any(sol)
        assert np.any(g.laplacian_solve(_random_field(g, 6).values))
        assert len(calls) == 2

    @pytest.mark.parametrize("dimension, n", [
        pytest.param(d, n, id=f"{d}-{n}")
        for d in (1, 2) for n in (3, 4, 12, 17, 33, 65, 129, 257)
        + ((1025, 2732) if d == 1 else ())])
    def test_laplacian_solve_matches_scipy_dst(self, dimension, n):
        # reference: scipy.fft's type-I DST and its inverse.  Every bit
        # must match: axis 0 first, and the inverse's one factor
        # 1/prod(2(n-1)) in the first pass.  In 2D a factor 1/(2(n-1)) per
        # axis rounds the same only when 2(n-1) is a power of two; here
        # n = 12 shows it.  At n = 2732, 1/5462 rounded straight to double
        # is not pocketfft's factor, rounded from long double
        g = Grid(dimension, n)
        load = _random_field(g, n).values
        inner = (slice(1, -1),) * dimension
        ref = g.zeros()
        ref[inner] = idstn(dstn(load[inner], type=1)
                           / g.laplacian_eigenvalues(), type=1)
        assert g.laplacian_solve(load).tobytes() == ref.tobytes()

    @pytest.mark.xfail(strict=True, reason=(
        "known defect: each pass swaps the last axis with axis -dimension, "
        "so in 3D the middle axis is never transformed and the axes come "
        "back reversed"))
    def test_dst1_matches_scipy_in_three_dimensions(self):
        x = np.random.default_rng(0).standard_normal((5, 6, 7))
        out = quasivar.grid._dst1(x, 3)
        assert out.shape == x.shape
        assert out.tobytes() == dstn(x, type=1).tobytes()

    @pytest.mark.parametrize("dimension, n", [
        pytest.param(d, n, id=f"{d}" if n == 17 else f"{d}-{n}")
        for n in (17, 12) for d in (1, 2)])
    def test_element_gradients_match_stacked_form(self, dimension, n):
        # reference: each component as its own array, then np.stack; the
        # arithmetic is the same, so the result must be bitwise equal.
        # At n = 17, h is a power of two and a regrouped quotient rounds
        # the same; n = 12 makes h = 1/11, where it would not.
        g = Grid(dimension, n)
        vals = np.random.default_rng(7).standard_normal((3, 2) + g.node_shape)
        h = g.h
        if dimension == 1:
            comps = [(vals[..., 1:] - vals[..., :-1]) / h]
        else:
            comps = [(vals[..., 1:, :-1] + vals[..., 1:, 1:]
                      - vals[..., :-1, :-1] - vals[..., :-1, 1:]) / (2 * h),
                     (vals[..., :-1, 1:] + vals[..., 1:, 1:]
                      - vals[..., :-1, :-1] - vals[..., 1:, :-1]) / (2 * h)]
        ref = np.stack(comps, axis=-1)
        got = g.element_gradients(vals)
        assert got.shape == ref.shape and got.dtype == ref.dtype
        assert got.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("dimension", [1, 2])
    def test_midpoint_values_and_scatter_match_stencils(self, dimension):
        # reference: the explicit 1D and 2D stencils, corners in the order
        # (0,0), (1,0), (0,1), (1,1); the arithmetic is the same, so the
        # results must be bitwise equal.  n = 12 makes h = 1/11, so a
        # reordered product would round differently.
        g = Grid(dimension, 12)
        rng = np.random.default_rng(8)
        vals = rng.standard_normal((3, 2) + g.node_shape)
        cells = (g.n - 1,) * dimension
        dens = rng.standard_normal(cells)
        gvec = rng.standard_normal(cells + (dimension,))
        vol, h = g.cell_volume, g.h
        if dimension == 1:
            mid = 0.5 * (vals[..., :-1] + vals[..., 1:])
        else:
            mid = 0.25 * (vals[..., :-1, :-1] + vals[..., 1:, :-1]
                          + vals[..., :-1, 1:] + vals[..., 1:, 1:])

        def stencil_scatter(density, gradvec):
            out = g.zeros()
            if dimension == 1:
                t = 0.5 * vol * density
                out[:-1] += t
                out[1:] += t
                gx = gradvec[..., 0] * vol / h
                out[:-1] -= gx
                out[1:] += gx
            else:
                t = 0.25 * vol * density
                out[:-1, :-1] += t
                out[1:, :-1] += t
                out[:-1, 1:] += t
                out[1:, 1:] += t
                gx = gradvec[..., 0] * vol / (2 * h)
                gy = gradvec[..., 1] * vol / (2 * h)
                out[:-1, :-1] += -gx - gy
                out[1:, :-1] += gx - gy
                out[:-1, 1:] += -gx + gy
                out[1:, 1:] += gx + gy
            out[g.boundary_mask()] = 0.0
            return out

        got = g.midpoint_values(vals)
        assert got.shape == mid.shape and got.dtype == mid.dtype
        assert got.tobytes() == mid.tobytes()
        ref = stencil_scatter(dens, gvec)
        assert g.scatter(dens, gvec).tobytes() == ref.tobytes()

    @pytest.mark.parametrize("dimension", [1, 2])
    @pytest.mark.parametrize("n", [3, 4, 17, 65, 257])
    def test_stiffness_matches_kron_assembly(self, dimension, n):
        # reference: the stencil K of kron_stiffness.  The element
        # stiffness summed over the cells must match it: the sorted CSC
        # arrays are compared byte for byte; a dense comparison needs
        # 31 GB at 2D n = 257.
        ref = kron_stiffness(dimension, n)
        g = Grid(dimension, n)
        K = assemble_jacobian(g, g.element_stiffness, sparse=True)
        assert K.format == "csc" and K.has_sorted_indices
        for name in ("indptr", "indices", "data"):
            a, b = getattr(K, name), getattr(ref, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name

    @pytest.mark.parametrize("dimension, n", [
        pytest.param(d, n, id=f"{d}" if n == 17 else f"{d}-{n}")
        for n in (17, 12) for d in (1, 2)])
    def test_element_operators_match_element_maps(self, dimension, n):
        # the element-local map of jacobian_pattern: B applied to each
        # cell's corner values (boundary corners read as 0), on the dyadic
        # n = 17 and the non-dyadic n = 12
        g = Grid(dimension, n)
        f = _random_field(g, 3)
        interior = ~g.boundary_mask()
        B, corners = g.jacobian_pattern()
        m = int(interior.sum())
        assert corners.shape == (g.num_cells, 2 ** dimension)
        assert np.array_equal(np.unique(corners), np.arange(-1, m))
        cells = g.num_cells
        x = np.append(f.values[interior], 0.0)  # index -1 reads the 0
        Ex = (x[corners] @ B.T).T
        assert np.allclose(Ex[0], g.midpoint_values(f.values).ravel(),
                           rtol=0, atol=1e-13)
        grads = g.element_gradients(f.values).reshape(cells, dimension)
        assert np.allclose(Ex[1:], grads.T, rtol=0, atol=1e-12)
        # the transpose is scatter's adjoint, weighted by the cell volume
        rng = np.random.default_rng(4)
        dens = rng.standard_normal(cells)
        gvec = rng.standard_normal((cells, dimension))
        shape = (g.n - 1,) * dimension
        loads = g.scatter(dens.reshape(shape), gvec.reshape(shape + (dimension,)))
        local = np.column_stack([dens, gvec]) @ B * g.cell_volume
        ET = np.bincount(corners.ravel() + 1, weights=local.ravel(),
                         minlength=m + 1)[1:]
        assert np.allclose(ET, loads[interior], rtol=0, atol=1e-13)


def _mixed_stack(grid: Grid, shape: tuple, seed: int) -> np.ndarray:
    """Random rows with rows of +0.0 and of -0.0 among them, for the
    stacked operators; a row holds ``shape`` values."""
    rows = np.random.default_rng(seed).standard_normal((6,) + shape)
    rows[1] = 0.0
    rows[4] = -0.0
    return rows.reshape((2, 3) + shape)


STACK_GRIDS = [pytest.param(d, n, id=f"{d}-{n}")
               for d in (1, 2) for n in (3, 17, 33, 65)]


class TestStackedOperators:
    """scatter and laplacian_solve on stacks, bitwise per field."""

    @pytest.mark.parametrize("dimension, n", STACK_GRIDS)
    def test_scatter_matches_per_field_calls(self, dimension, n):
        g = Grid(dimension, n)
        cells = (n - 1,) * dimension
        dens = _mixed_stack(g, cells, n)
        gvec = _mixed_stack(g, cells + (dimension,), n + 1)
        got = g.scatter(dens, gvec)
        assert got.shape == (2, 3) + g.node_shape
        for i in np.ndindex(2, 3):
            assert got[i].tobytes() == g.scatter(dens[i], gvec[i]).tobytes()
        # zero rows of either sign come back +0.0
        zero = g.scatter(dens * 0.0, -0.0 * gvec)
        assert not np.any(zero) and not np.any(np.signbit(zero))

    @pytest.mark.parametrize("dimension, n", STACK_GRIDS)
    def test_laplacian_solve_matches_per_field_calls(self, dimension, n,
                                                     monkeypatch):
        g = Grid(dimension, n)
        loads = _mixed_stack(g, g.node_shape, n)
        loads[..., g.boundary_mask()] = 0.0
        calls = []
        dst1 = quasivar.grid._dst1
        monkeypatch.setattr(quasivar.grid, "_dst1", lambda x, *args: (
            calls.append(x.shape) or dst1(x, *args)))
        got = g.laplacian_solve(loads)
        # the four nonzero rows take one forward and one inverse transform
        assert calls == [(4,) + (n - 2,) * dimension] * 2
        assert got.shape == loads.shape
        for i in np.ndindex(2, 3):
            assert got[i].tobytes() == g.laplacian_solve(loads[i]).tobytes()
        for i in ((0, 1), (1, 1)):
            assert not np.any(got[i]) and not np.any(np.signbit(got[i]))
        calls.clear()
        zero = g.laplacian_solve(np.stack([g.zeros(), -g.zeros()]))
        assert not calls
        assert zero.shape == (2,) + g.node_shape
        assert not np.any(zero) and not np.any(np.signbit(zero))

    @pytest.mark.parametrize("dimension", [1, 2])
    def test_empty_stacks(self, dimension):
        g = Grid(dimension, 17)
        cells = (16,) * dimension
        assert g.laplacian_solve(np.zeros((0, 2) + g.node_shape)).shape == (
            (0, 2) + g.node_shape)
        assert g.scatter(np.zeros((0,) + cells),
                         np.zeros((0,) + cells + (dimension,))).shape == (
            (0,) + g.node_shape)


class TestGridFunction:
    def test_rejects_nonzero_boundary(self):
        g = Grid(1, 9)
        with pytest.raises(ValueError):
            GridFunction(g, np.ones(9))

    def test_from_callable_zeroes_boundary(self):
        g = Grid(2, 9)
        gf = GridFunction.from_callable(g, lambda x, y: np.ones_like(x))
        assert np.all(gf.values[g.boundary_mask()] == 0.0)

    def test_pair_requires_shared_grid(self):
        with pytest.raises(ValueError):
            FieldPair(GridFunction.zero(Grid(1, 9)), GridFunction.zero(Grid(1, 17)))

    def test_pair_accepts_equal_grids(self):
        # grids of one size are one grid: Grid is immutable
        u = GridFunction.from_callable(Grid(2, 9), lambda x, y: x * (1 - x))
        fp = FieldPair(u, GridFunction.zero(Grid(2, 9)))
        assert fp.grid is u.grid
        assert np.array_equal((fp + fp).u.values, 2.0 * u.values)


class TestNorms:
    def test_zero_field_all_norms_zero(self):
        g = Grid(2, 9)
        z = GridFunction.zero(g)
        assert norm_W(z, 2) == 0.0
        assert norm_Lp(z, 2) == 0.0
        assert norm_Linf(z) == 0.0

    def test_sine_gradient_norm(self):
        g = Grid(1, 1025)
        gf = GridFunction.from_callable(g, lambda x: np.sin(np.pi * x))
        assert norm_W(gf, 2) == pytest.approx(np.pi / np.sqrt(2), abs=1e-3)

    def test_linf_is_max_abs(self):
        g = Grid(1, 4)
        gf = GridFunction(g, np.array([0.0, 0.3, -0.9, 0.0]))
        assert norm_Linf(gf) == 0.9

    def test_rejects_p_below_one(self):
        g = Grid(1, 9)
        with pytest.raises(ValueError):
            norm_W(GridFunction.zero(g), 0.5)

    @given(seed=st.integers(0, 10 ** 6), c=st.floats(-8.0, 8.0))
    @settings(max_examples=40, deadline=None)
    def test_absolute_homogeneity(self, seed, c):
        g = Grid(2, 9)
        gf = _random_field(g, seed)
        assert norm_W(c * gf, 1.7) == pytest.approx(abs(c) * norm_W(gf, 1.7),
                                                    rel=1e-12, abs=1e-12)


class TestPowerMapTruncate:
    def test_power_map_s0_identity(self):
        g = Grid(1, 17)
        gf = _random_field(g, 3)
        assert np.array_equal(power_map(gf, 0.0).values, gf.values)

    def test_power_map_value(self):
        g = Grid(1, 4)
        gf = GridFunction(g, np.array([0.0, -2.0, 1.0, 0.0]))
        assert power_map(gf, 1.0).values[1] == -4.0


class TestEllNorm:
    def test_s_zero_equals_w_norm(self, decoupled_cfg):
        g = Grid(2, 17)
        fp = FieldPair(_random_field(g, 1), _random_field(g, 2))
        assert ell_norm(fp, decoupled_cfg) == pair_norm_W(fp, 2, 2)

    def test_zero_pair(self, coupled_cfg):
        g = Grid(2, 9)
        assert ell_norm(FieldPair.zero(g), coupled_cfg) == 0.0

    @given(seed=st.integers(0, 10 ** 6))
    @settings(max_examples=30, deadline=None)
    def test_dominates_w_norm(self, seed, coupled_cfg):
        g = Grid(2, 9)
        fp = FieldPair(_random_field(g, seed), _random_field(g, seed + 1))
        assert ell_norm(fp, coupled_cfg) >= pair_norm_W(
            fp, coupled_cfg.p1, coupled_cfg.p2) - 1e-14


class TestGradientIdentity:
    """Chain-rule identity for the power map under quadrature."""

    @staticmethod
    def _sides(n: int, s: float, p: float) -> tuple[float, float]:
        g = Grid(2, n)
        gf = GridFunction.from_callable(
            g, lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y))
        lhs = integrate(np.sum(g.element_gradients(power_map(gf, s).values)
                               ** 2, axis=-1) ** (p / 2), g)
        m = np.abs(g.midpoint_values(gf.values))
        grad_p = np.sum(g.element_gradients(gf.values) ** 2, axis=-1) ** (p / 2)
        rhs = (s + 1.0) ** p * integrate(m ** (s * p) * grad_p, g)
        return lhs, rhs

    @pytest.mark.parametrize("s", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_agreement_and_refinement(self, s, p):
        l1, r1 = self._sides(129, s, p)
        l2, r2 = self._sides(257, s, p)
        d1 = abs(l1 - r1) / abs(r1)
        d2 = abs(l2 - r2) / abs(r2)
        assert d1 < 0.05
        assert d2 < d1
        assert math.log2(d1 / d2) > 0.8  # at least first-order decrease


class TestDump:
    def test_format_round_trip(self):
        g = Grid(1, 3)
        gf = GridFunction(g, np.array([0.0, 0.12345678901234567, 0.0]))
        lines = dump_field(gf).strip().split("\n")
        assert len(lines) == 3
        x, val = lines[1].split()
        assert float(x) == 0.5
        assert float(val) == gf.values[1]  # 17 significant digits round-trip
