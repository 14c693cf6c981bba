"""First Dirichlet eigenpair of the p-Laplacian by Rayleigh-quotient descent.

The Rayleigh quotient  int |grad y|^p / int |y|^p  is minimized by
Sobolev-gradient descent with a monotone backtracking line search,
started from the positive product-of-sines bubble so the iteration stays
in the positive cone toward the simple first eigenvalue.  For p = 2 the
bubble is already an exact discrete eigenvector (the stiffness and the
midpoint mass are both diagonal in the sine basis), so the descent stops
after one iteration with lambda1 = (4N/h^2) tan^2(pi h/2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import (Grid, GridFunction, integrate, magnitude_power, norm_Lp,
                   sine_product, squared_magnitude)
from .model import ModelFunctions, _pow, _xi_pow

# the descent stops at a drop of the quotient <= _TOL max(1, |q|)
_TOL = 1e-10
_MAX_ITER = 100_000


@dataclass
class EigenPair:
    lambda1: float
    phi1: GridFunction
    p: float
    iterations: int
    residual: float
    converged: bool = True


def rayleigh_quotient(y: GridFunction, p: float) -> float:
    """Quadrature ratio int |grad y|^p / int |y|^p."""
    grid = y.grid
    g = grid.element_gradients(y.values)
    num = integrate(magnitude_power(g, p), grid)
    m = grid.midpoint_values(y.values)
    den = integrate(np.abs(m) ** p, grid)
    if den == 0.0:
        raise ValueError("rayleigh_quotient of the zero field")
    return num / den


def _normalize(y: GridFunction, p: float) -> GridFunction:
    nrm = norm_Lp(y, p)
    if nrm == 0.0:
        raise ValueError("cannot normalize the zero field")
    return y * (1.0 / nrm)


def first_eigenpair(p: float, grid: Grid,
                    epsilon_reg: float = ModelFunctions.epsilon_reg,
                    ) -> EigenPair:
    """First eigenvalue and positive normalized eigenfunction of -Delta_p."""
    if p <= 1:
        raise ValueError("first_eigenpair requires p > 1")
    y = _normalize(sine_product(grid, *(1,) * grid.dimension), p)
    q = rayleigh_quotient(y, p)
    converged = True
    alpha = 1.0
    for it in range(1, _MAX_ITER + 1):
        # Sobolev gradient of the quotient at |y|_p = 1:
        # dR[d] = p int |grad y|^{p-2} grad y . grad d - q p int |y|^{p-2} y d
        g = grid.element_gradients(y.values)
        coef = _xi_pow(squared_magnitude(g), p, 2.0, epsilon_reg)
        m = grid.midpoint_values(y.values)
        load = grid.scatter(-q * p * _pow(m, p - 2.0) * m,
                            p * coef[..., None] * g)
        r = grid.laplacian_solve(load)
        step = alpha
        while step > 1e-18:
            trial = _normalize(GridFunction(grid, y.values - step * r), p)
            q_trial = rayleigh_quotient(trial, p)
            if q_trial < q:
                break
            step *= 0.5
        else:  # no step lowers the quotient
            break
        drop = q - q_trial
        y, q = trial, q_trial
        alpha = min(step * 2.0, 1e6)
        if drop <= _TOL * max(1.0, abs(q)):
            break
    else:
        converged = False

    # sign-fix positive and renormalize
    interior = ~grid.boundary_mask()
    if np.sum(y.values[interior]) < 0:
        y = -y
    y = _normalize(y, p)
    lam = rayleigh_quotient(y, p)
    return EigenPair(lambda1=lam, phi1=y, p=p, iterations=it,
                     residual=abs(lam - q), converged=converged)
