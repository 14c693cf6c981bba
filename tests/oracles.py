"""Independent numerical oracles used only by the test suite.

The main oracle is a shooting method for the two-point boundary value
problem -u'' = u^3, u(0) = u(1) = 0, whose positive solution is found by
root-finding on the terminal value as a function of the initial slope.
The decoupled p=2, s=0, q=4 energy has Euler-Lagrange equation
-2u'' = u^3, whose positive solution is exactly sqrt(2) times the
-u'' = u^3 solution (substitute u = c w and match coefficients), so the
oracle also serves the solver tests through that exact scaling.

Sign-changing k-bump solutions follow from the odd scaling family
u_k(x) = k * u_1(k x mod 1 with alternating signs), which solves the same
equation by homogeneity.
"""

from __future__ import annotations

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

MODEL_SCALE = np.sqrt(2.0)  # maps -u''=u^3 solutions to -2u''=u^3 solutions


def _shoot(slope: float, x_end: float = 1.0):
    return solve_ivp(lambda x, y: [y[1], -y[0] ** 3], (0.0, x_end),
                     [0.0, slope], rtol=1e-12, atol=1e-13,
                     dense_output=True)


def _first_zero(slope: float) -> float:
    """Location of the first positive zero of the shot trajectory."""
    event = lambda x, y: y[0]
    event.terminal = True
    event.direction = -1.0
    sol = solve_ivp(lambda x, y: [y[1], -y[0] ** 3], (1e-12, 10.0),
                    [1e-12 * slope, slope], rtol=1e-12, atol=1e-13,
                    events=event)
    if sol.t_events[0].size == 0:
        return np.inf
    return float(sol.t_events[0][0])


def shooting_ground_state(x: np.ndarray) -> np.ndarray:
    """Positive solution of -u'' = u^3, u(0)=u(1)=0, sampled at x.

    The first zero of the trajectory is strictly decreasing in the
    initial slope (by the scaling family u_k(x) = k u_1(k x)), so the
    matching slope is a bracketed root of first_zero(slope) - 1.
    """
    slope = brentq(lambda s: _first_zero(s) - 1.0, 0.5, 500.0, xtol=1e-12)
    return _shoot(slope).sol(np.asarray(x))[0]


def shooting_k_bump(x: np.ndarray, k: int) -> np.ndarray:
    """Sign-changing k-bump solution of -u'' = u^3 via the scaling family."""
    x = np.asarray(x)
    xk = (x * k) % 1.0
    bump_index = np.floor(np.clip(x, 0.0, 1.0 - 1e-15) * k).astype(int)
    signs = np.where(bump_index % 2 == 0, 1.0, -1.0)
    return k * signs * shooting_ground_state(xk)


def model_ground_state(x: np.ndarray) -> np.ndarray:
    """Positive solution of -2u'' = u^3 (the p=2, s=0, q=4 model equation)."""
    return MODEL_SCALE * shooting_ground_state(x)


def model_k_bump(x: np.ndarray, k: int) -> np.ndarray:
    return MODEL_SCALE * shooting_k_bump(x, k)


def model_level(k: int = 1, n: int = 20001) -> float:
    """Energy level int |u'|^2 - int u^4/4 of the k-bump model solution."""
    x = np.linspace(0.0, 1.0, n)
    u = model_k_bump(x, k)
    du = np.gradient(u, x)
    return float(np.trapezoid(du ** 2 - u ** 4 / 4.0, x))


def power_law_root(b1: float, e1: float, b2: float, e2: float,
                   r0: float) -> float:
    """The tau > 0 with b1 tau^e1 + b2 tau^e2 = r0, for b1 + b2 > 0.

    A bracketed root of the increasing sum of the nonzero terms: each
    term alone reaches r0 at its own crossing, so at twice the smaller
    crossing the sum is at least 2 r0.
    """
    terms = [(b, e) for b, e in ((b1, e1), (b2, e2)) if b > 0.0]
    hi = 2.0 * min((r0 / b) ** (1.0 / e) for b, e in terms)
    return brentq(lambda t: sum(b * t ** e for b, e in terms) - r0, 0.0, hi,
                  xtol=np.finfo(float).tiny, rtol=4.0 * np.finfo(float).eps)
