"""Shared test helpers: random admissible configuration sampling,
Jacobian assembly and the one-pair Jacobian and polish."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import scipy.sparse as sp

from quasivar import ExponentConfig, check_model_hypotheses
from quasivar.energy import stacked_jacobians
from quasivar.mpsolver import _polish_stack


def random_admissible_configs(count: int, seed: int = 0,
                              max_draws: int = 200_000) -> list[ExponentConfig]:
    """Draw admissible configurations by guided sampling plus rejection.

    Draws are shaped to satisfy the exponent chain by construction
    (q in (p(s+1), p*(s+1)), theta = 1/q rounded up, p < N) and then
    filtered through the full hypothesis checker, so every returned
    config is certified admissible rather than assumed so.
    """
    rng = np.random.default_rng(seed)
    out: list[ExponentConfig] = []
    N = 2
    for _ in range(max_draws):
        if len(out) >= count:
            break
        p = rng.uniform(1.2, 1.9, 2)          # p < N keeps p* finite
        s = rng.uniform(1.0 / p + 0.05, 2.0)  # makes 1 + p < p(s+1)
        pstar = N * p / (N - p)
        lo, hi = p * (s + 1.0), pstar * (s + 1.0)
        q = rng.uniform(lo + 0.05 * (hi - lo), hi - 0.05 * (hi - lo))
        theta = 1.0 / q
        # 1/q rounds below the exact 1/q in about half of the draws, which
        # breaks the chain 1/theta <= q; one ulp up restores it
        low = [Fraction(1) / Fraction(t) > Fraction(x) for t, x in zip(theta, q)]
        theta = np.where(low, np.nextafter(theta, np.inf), theta)
        coupled = rng.random() < 0.5
        if coupled:
            gamma = rng.uniform(0.7 * q, 0.98 * q)
            c_star = float(rng.uniform(0.1, 2.0))
        else:
            gamma = np.minimum(2.0, 0.9 * q)
            c_star = 0.0
        cfg = ExponentConfig(N=N, p1=float(p[0]), p2=float(p[1]),
                             s1=float(s[0]), s2=float(s[1]),
                             q1=float(q[0]), q2=float(q[1]),
                             gamma1=float(gamma[0]), gamma2=float(gamma[1]),
                             theta1=float(theta[0]), theta2=float(theta[1]),
                             c_star=c_star)
        try:
            report = check_model_hypotheses(cfg)
        except ValueError:
            continue
        if report.admissible:
            out.append(cfg)
    if len(out) < count:
        raise RuntimeError(f"only {len(out)} admissible configs in "
                           f"{max_draws} draws")
    return out


def pair_jacobian(fp, mf, idle: int | None = None) -> np.ndarray:
    """``stacked_jacobians`` of the one pair fp."""
    return stacked_jacobians(fp.grid, fp.u.values[None], fp.v.values[None],
                             mf, [idle])[0]


def polish_pair(fp, mf, tol: float, max_iter: int):
    """``_polish_stack`` of the one pair fp."""
    return _polish_stack([fp], mf, tol, max_iter)[0]


def assemble_jacobian(grid, jac: np.ndarray, sparse: bool = False):
    """The global matrix summed from one matrix per cell.

    ``jac`` holds one component's (c, c) block per cell, c = 2^dim
    corners in the order of ``jacobian_pattern``, or the pair's (2c, 2c)
    matrix, u corners before v, as ``pair_jacobian`` returns; a single
    matrix, such as ``Grid.element_stiffness``, serves every cell.  Its
    entries are summed in cell order, as ``np.add.at`` sums them, over
    the interior numbers of the corners, and boundary corners dropped.
    Returns the m x m or 2m x 2m matrix (u unknowns before v), dense or,
    when ``sparse``, a CSC matrix of its nonzeros built without a dense
    array.
    """
    _, corners = grid.jacobian_pattern()
    size = (grid.n - 2) ** grid.dimension
    if jac.shape[-1] == 2 * corners.shape[1]:
        corners = np.hstack([corners,
                             np.where(corners < 0, -1, corners + size)])
        size *= 2
    rows, cols = np.broadcast_arrays(corners[:, :, None], corners[:, None, :])
    kept = (rows >= 0) & (cols >= 0)
    # column-major keys: the sorted unique keys are in CSC order
    keys, where = np.unique(cols[kept] * size + rows[kept],
                            return_inverse=True)
    data = np.bincount(where, weights=np.broadcast_to(jac, rows.shape)[kept])
    cols, rows = np.divmod(keys, size)
    if not sparse:
        out = np.zeros((size, size))
        out[rows, cols] = data
        return out
    nz = data != 0
    indptr = np.searchsorted(cols[nz], np.arange(size + 1))
    return sp.csc_matrix((data[nz], rows[nz], indptr), shape=(size, size))


def kron_stiffness(dimension: int, n: int) -> sp.csc_matrix:
    """Dirichlet stiffness K of ``Grid(dimension, n)`` from its stencil.

    The 3-point stencil 2/h, -1/h in 1D and, in 2D, the assembled 9-point
    stencil with center 8/3 and all eight neighbors -1/3 as Kronecker
    products, with sorted indices.
    """
    m, h = n - 2, 1.0 / (n - 1)
    if dimension == 1:
        off = np.full(m - 1, -1.0 / h)
        ref = sp.diags([off, np.full(m, 2.0 / h), off], [-1, 0, 1],
                       format="csc")
    else:
        eye = sp.identity(m, format="csc")
        t_main = sp.diags([np.full(m - 1, 1.0), np.full(m, 0.0),
                           np.full(m - 1, 1.0)], [-1, 0, 1], format="csc")
        ref = (sp.kron(eye, eye) * (8.0 / 3.0)
               - sp.kron(eye, t_main) / 3.0
               - sp.kron(t_main, eye) / 3.0
               - sp.kron(t_main, t_main) / 3.0).tocsc()
    ref.sort_indices()
    return ref
