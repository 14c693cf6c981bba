"""Shared test helpers: random admissible configuration sampling and
Jacobian assembly."""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from quasivar import ExponentConfig, check_model_hypotheses


def random_admissible_configs(count: int, seed: int = 0,
                              max_draws: int = 200_000) -> list[ExponentConfig]:
    """Draw admissible configurations by guided sampling plus rejection.

    Draws are shaped to satisfy the exponent chain by construction
    (q in (p(s+1), p*(s+1)), theta = 1/q, p < N) and then filtered
    through the full hypothesis checker, so every returned config is
    certified admissible rather than assumed so.
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


def assemble_jacobian(grid, jac: np.ndarray, sparse: bool = False):
    """The 2m x 2m Jacobian, u unknowns before v, from element Jacobians.

    ``jac`` holds one (2c, 2c) matrix per cell, u corners before v, as
    ``dJ_jacobian`` returns; its entries are summed by ``np.add.at`` over
    the interior numbers of the corners, and boundary corners dropped.
    Returns a dense array, or a CSC matrix of its nonzeros when
    ``sparse``.
    """
    _, corners = grid.jacobian_pattern()
    m = (grid.n - 2) ** grid.dimension
    dofs = np.hstack([corners, np.where(corners < 0, -1, corners + m)])
    rows, cols = np.broadcast_arrays(dofs[:, :, None], dofs[:, None, :])
    kept = (rows >= 0) & (cols >= 0)
    out = np.zeros((2 * m, 2 * m))
    np.add.at(out, (rows[kept], cols[kept]), jac[kept])
    return sp.csc_matrix(out) if sparse else out
