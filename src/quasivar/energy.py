"""Discrete energy functional, its closed form along rays, its weak
differential and its Jacobian.

The energy of a field pair is

    J(u, v) = int A(u, grad u) + int B(v, grad v) - int G(u, v)

evaluated by midpoint quadrature: field values interpolated to element
centers, gradients element-constant.  The weak differential is realized
as a pair of nodal load vectors; its Riesz representative in the
W^{1,2}-inner product (one Laplacian solve per component) provides the
preconditioned residual norm used as a dual-norm surrogate.
"""

from __future__ import annotations

import numpy as np

from .grid import FieldPair, Grid, GridFunction
from .model import ModelFunctions


class NonFiniteEnergyError(ArithmeticError):
    """An energy integrand overflowed to a non-finite value."""


def element_data(grid: Grid, u: np.ndarray, v: np.ndarray):
    """Midpoint values and element gradients (um, ug, vm, vg) of a pair.

    ``u`` and ``v`` are nodal values, node axes last; leading axes index
    a stack of pairs.
    """
    return (grid.midpoint_values(u), grid.element_gradients(u),
            grid.midpoint_values(v), grid.element_gradients(v))


def energy_terms(fp: FieldPair, mf: ModelFunctions) -> tuple[float, float, float]:
    """Quadrature values of (int A, int B, int G); raises on overflow."""
    grid = fp.grid
    um, ug, vm, vg = element_data(grid, fp.u.values, fp.v.values)
    with np.errstate(over="raise"):
        try:
            int_A = float(grid.cell_integrals(mf.A_eval(um, ug)))
            int_B = float(grid.cell_integrals(mf.B_eval(vm, vg)))
            int_G = float(grid.cell_integrals(mf.G_eval(um, vm)))
        except FloatingPointError as exc:
            raise NonFiniteEnergyError("energy integrand overflow") from exc
    for val in (int_A, int_B, int_G):
        if not np.isfinite(val):
            raise NonFiniteEnergyError("non-finite energy term")
    return int_A, int_B, int_G


def j_value(fp: FieldPair, mf: ModelFunctions) -> float:
    """Fast path: the scalar energy J(u, v)."""
    a, b, g = energy_terms(fp, mf)
    return a + b - g


def ray_energies(grid: Grid, data: tuple[np.ndarray, ...],
                 mf: ModelFunctions) -> tuple[np.ndarray, np.ndarray]:
    """Exponents e and coefficients c of J along the rays through pairs.

    ``data`` is the ``element_data`` of stacked pairs (u, v).  Under the
    midpoint quadrature of ``j_value``, J(tau (u, v)) = sum_k c[..., k]
    tau^e_k for tau >= 0, with the seven terms of
    ``ModelFunctions.ray_densities``; evaluate it with ``ray_energy``.
    Raises NonFiniteEnergyError on overflow, as ``j_value`` does.
    """
    with np.errstate(over="raise"):
        try:
            exponents, densities = mf.ray_densities(*data)
            coeffs = np.stack([grid.cell_integrals(d) for d in densities],
                              axis=-1)
        except FloatingPointError as exc:
            raise NonFiniteEnergyError("energy integrand overflow") from exc
    if not np.all(np.isfinite(coeffs)):
        raise NonFiniteEnergyError("non-finite energy term")
    return np.asarray(exponents, dtype=float), coeffs


def ray_energy(ray: tuple[np.ndarray, np.ndarray], tau) -> np.ndarray:
    """J at the scales ``tau`` along the rays of ``ray_energies``.

    ``tau`` broadcasts against the leading axes of the coefficients.
    Terms whose coefficient is zero on every ray are skipped, so only
    the terms present can overflow; an overflow raises
    NonFiniteEnergyError.
    """
    exponents, coeffs = ray
    live = np.any(coeffs != 0.0, axis=tuple(range(coeffs.ndim - 1)))
    with np.errstate(over="raise"):
        try:
            scaled = np.asarray(tau, dtype=float)[..., None] ** exponents[live]
            out = np.sum(coeffs[..., live] * scaled, axis=-1)
        except FloatingPointError as exc:
            raise NonFiniteEnergyError("energy overflow along the ray") from exc
    if not np.all(np.isfinite(out)):
        raise NonFiniteEnergyError("non-finite energy along the ray")
    return out


def stacked_loads(grid: Grid, u: np.ndarray, v: np.ndarray,
                  mf: ModelFunctions) -> tuple[np.ndarray, np.ndarray]:
    """Nodal load vectors (F_u, F_v) of the weak differential of pairs.

    F_u[i] = int a(u, grad u).grad phi_i + (A_t(u, grad u) - G_u(u, v)) phi_i
    and symmetrically for F_v, so dJ(fp)[(w, z)] = F_u.w + F_v.z exactly
    for nodal directions.  ``u`` and ``v`` are nodal values, node axes
    last; leading axes index a stack of pairs.  Every step is elementwise
    or sums within one pair, so each pair's loads are bitwise its own.
    """
    um, ug, vm, vg = element_data(grid, u, v)
    fu = grid.scatter(mf.At_eval(um, ug) - mf.Gu_eval(um, vm), mf.a_eval(um, ug))
    fv = grid.scatter(mf.Bt_eval(vm, vg) - mf.Gv_eval(um, vm), mf.b_eval(vm, vg))
    return fu, fv


def dJ_loads(fp: FieldPair, mf: ModelFunctions) -> tuple[np.ndarray, np.ndarray]:
    """``stacked_loads`` of the one pair fp."""
    return stacked_loads(fp.grid, fp.u.values, fp.v.values, mf)


def stacked_jacobians(grid: Grid, u: np.ndarray, v: np.ndarray,
                      mf: ModelFunctions,
                      idle: list[int | None]) -> list[np.ndarray]:
    """Element Jacobians of the interior loads (F_u, F_v) of S pairs.

    ``u`` and ``v`` hold the nodal values of the pairs, shape (S, *nodes).
    The per-cell Hessian H, over (value, gradient) of u then of v, has
    entries A_tt - G_uu (value, value), the mixed derivative (value,
    gradient and gradient, value) and the xi-Jacobian of a (gradient,
    gradient); the v-block likewise from B, and -G_uv couples the two
    values.  Pair s gets vol (B2^T H) B2 per cell, two matmuls, shape
    (num_cells, 2c, 2c) with c = 2^dim corners, u corners first, then v;
    B2 = blockdiag(B, B) with B the corner map of
    ``Grid.jacobian_pattern``, corners in the order the grid's stencils
    add them, (0,0), (1,0), (0,1), (1,1) in 2D.  Summing the entries over
    the interior numbers of the corners (dropping boundary corners) gives
    the exact 2m x 2m Jacobian, u unknowns before v.  When ``idle[s]``
    names a component (0 for u, 1 for v) whose load the caller found
    exactly zero and every midpoint G_uv of pair s is exactly zero, its
    Jacobian is block diagonal and only the other component's Hessian H_c
    is formed: vol (B^T H_c) B, shape (num_cells, c, c), bitwise the
    matching block of the pair's.  Each pair chooses alone; pairs that
    choose alike share one Hessian stack, each with its own Jacobian array.
    """
    dim, cells, k = grid.dimension, grid.num_cells, grid.dimension + 1
    um, ug, vm, vg = element_data(grid, u, v)
    g_uu, g_uv, g_vv = (g.reshape(len(u), -1) for g in mf.G_hessian(um, vm))
    blocks = [c if c is not None and not np.any(g_uv[s]) else None
              for s, c in enumerate(idle)]
    out = [None] * len(u)
    for block in dict.fromkeys(blocks):
        rows = [s for s, c in enumerate(blocks) if c == block]
        parts = [(1, um, ug, g_uu), (2, vm, vg, g_vv)]
        if block is not None:
            del parts[block]
        B = np.kron(np.eye(len(parts)), grid.jacobian_pattern()[0])
        lead = (len(rows), cells)
        H = np.zeros(lead + (len(B), len(B)))
        for o, (comp, t, xi, g_tt) in zip(range(0, 2 * k, k), parts):
            tt, t_xi, xi_xi = mf.coef_hessian(t[rows], xi[rows], comp)
            grad = slice(o + 1, o + k)
            H[..., o, o] = tt.reshape(lead) - g_tt[rows]
            H[..., o, grad] = H[..., grad, o] = t_xi.reshape(lead + (dim,))
            H[..., grad, grad] = xi_xi.reshape(lead + (dim, dim))
        if block is None:
            H[..., 0, k] = H[..., k, 0] = -g_uv[rows]
        for s, h in zip(rows, H):
            out[s] = (B.T @ h) @ B
            out[s] *= grid.cell_volume
    return out


def dJ_apply(fp: FieldPair, direction: FieldPair, mf: ModelFunctions) -> float:
    """Gateaux differential of J at fp along a nodal direction pair."""
    if direction.grid.node_shape != fp.grid.node_shape:
        raise ValueError("direction must live on a grid of the same size")
    fu, fv = dJ_loads(fp, mf)
    return float(np.sum(fu * direction.u.values) + np.sum(fv * direction.v.values))


def gradient_representative(fp: FieldPair, mf: ModelFunctions,
                            ) -> tuple[FieldPair, float]:
    """Riesz representative of dJ(fp) in the discrete H^1_0 inner product.

    Returns (r, residual) where r solves K r = dJ per component and
    residual = sqrt(dJ(fp)[r]) is the preconditioned dual-norm surrogate.
    """
    grid = fp.grid
    fu, fv = dJ_loads(fp, mf)
    ru, rv = grid.laplacian_solve(np.array([fu, fv]))
    sq = float(np.sum(fu * ru) + np.sum(fv * rv))
    rep = FieldPair(GridFunction(grid, ru), GridFunction(grid, rv))
    return rep, np.sqrt(max(sq, 0.0))


def residual_norm(fp: FieldPair, mf: ModelFunctions) -> float:
    """Preconditioned dual norm of dJ(fp)."""
    return gradient_representative(fp, mf)[1]
