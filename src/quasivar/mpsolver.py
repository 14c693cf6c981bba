"""Mountain-pass geometry certification and critical-point search.

The search takes the energy maximum of the straight path from the origin
to a negative-energy endpoint, a ridge point of the mountain-pass
geometry, and refines it with a banded-LU Newton polish, damped
toward the Sobolev gradient step (Levenberg-Marquardt), to the nearby
critical point.  When that fails at a ridge point with both components
nonzero, its semitrivial projections (u, 0) and (0, v) are polished
instead.  Multiplicity is approximated heuristically by multi-start over
sign-structured seeds plus deduplication up to sign; this does not
certify min-max levels.
"""

from __future__ import annotations

import contextlib
import functools
import math
from dataclasses import dataclass, replace
from typing import ClassVar

import numpy as np

from .energy import (element_data, j_value, ray_energies, ray_energy,
                     residual_norm, stacked_jacobians, stacked_loads)
from .exponents import ExponentConfig
from .grid import (FieldPair, Grid, GridFunction, ell_coefficients, ell_norm,
                   norm_Linf, pair_norm_W, ray_coefficients, sine_mode_fields,
                   sine_modes, sine_product)
from .model import ModelFunctions


@dataclass
class SolverParams:
    tol: float = 1e-6
    max_iters: int = 10_000
    path_points: int = 33
    nontrivial_floor: float = 1e-3
    # multiplicity_search drops a candidate this W-close to a kept one
    dedup_tol: ClassVar[float] = 1e-2

    def __post_init__(self):
        for name, low in (("max_iters", 0), ("path_points", 3)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be at least {low}")
        for name in ("tol", "nontrivial_floor"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


# nodes per block of certify samples, which bounds the memory of the
# batched ray coefficients (3 samples on the 2D n=65 grid, 15 on n=33);
# 2^14 ran faster than 2^15 in alternated benchmark runs
_CERTIFY_BLOCK_NODES = 2 ** 14

# margin of certify's float32 screen, relative to a ray's term scale
# sum_k |c_k| tau^e_k: over 250 times the largest float32 error measured
_SCREEN_RTOL = 1e-4

# the endpoint scaling: the level J must fall below, the most doublings of
# tau tried for it, the steps of the bisection back toward the crossing,
# and the levels of them that one closed-form evaluation of the
# 2^levels - 1 reachable midpoints decides
_ENDPOINT_TARGET = -1.0
_MAX_DOUBLINGS = 60
_BISECTION_STEPS = 30
_BISECTION_LEVELS = 5

# largest difference allowed between j_value and J in closed form along a
# ray, relative to the sum of the magnitudes of the ray's seven terms
_RAY_RTOL = 1e-10


@dataclass
class GeometryCertificate:
    r0: float
    rho0: float
    endpoint: FieldPair | None
    endpoint_level: float
    samples: int
    min_sample: FieldPair | None
    validated: bool


@dataclass
class CriticalPointCandidate:
    fields: FieldPair
    level: float
    residual: float
    nontriviality: float
    linf_u: float
    linf_v: float
    iterations: int
    converged: bool
    collapsed: bool = False
    provenance: str = ""


@dataclass
class VerificationRecord:
    level: float
    residual: float
    cerami_residual: float
    nontriviality: float
    linf_u: float
    linf_v: float
    trivial: bool
    semitrivial: bool
    positive_level: bool


def _model(cfg: ExponentConfig, mf) -> ModelFunctions:
    """``mf``, or ``ModelFunctions(cfg)`` when it is None.  Raises
    ValueError when mf has a ``cfg`` other than cfg, whose energy it is."""
    if getattr(mf, "cfg", cfg) != cfg:
        raise ValueError("the evaluator bundle was built for another config")
    return ModelFunctions(cfg) if mf is None else mf


def _measured(fp: FieldPair, cfg: ExponentConfig, mf) -> dict:
    """The level, W-norm and sup norms of fp, keyed by the field names of
    ``CriticalPointCandidate`` and ``VerificationRecord``."""
    return {"level": j_value(fp, mf),
            "nontriviality": pair_norm_W(fp, cfg.p1, cfg.p2),
            "linf_u": norm_Linf(fp.u), "linf_v": norm_Linf(fp.v)}


def _checked_level(fp: FieldPair, ray: tuple[np.ndarray, np.ndarray],
                   tau: float, mf: ModelFunctions) -> float:
    """j_value of fp = tau w, checked against J in closed form on the ray.

    ``ray`` holds the ``ray_energies`` of the one ray through w.  The
    closed form comes from ``mf.ray_densities`` and j_value from
    A_eval/B_eval/G_eval; a bundle whose two disagree would pick the
    wrong sample, endpoint and ridge point without notice, so a
    difference beyond ``_RAY_RTOL`` of the summed magnitudes of the terms
    raises ValueError.
    """
    level = j_value(fp, mf)
    exponents, coeffs = ray
    closed = float(ray_energy(ray, tau))
    scale = float(ray_energy((exponents, np.abs(coeffs)), tau))
    if not abs(level - closed) <= _RAY_RTOL * scale:
        raise ValueError(
            f"ray_densities gives J = {closed!r} where A_eval, B_eval and "
            f"G_eval give {level!r}: the evaluator bundle is inconsistent")
    return level


def _scale_until_negative(field0: FieldPair, mf: ModelFunctions,
                          ) -> tuple[FieldPair, float] | None:
    """The scaling field0 * tau with J < -1, and its level, or None.

    tau doubles from 1, at most 60 times, until J(tau field0) < -1, then
    30 bisection steps move it back toward the crossing.  J along the ray
    is the closed form of ``ray_energies``, built once, so no field is scaled
    until the end.  One ``ray_energy`` call decides five bisection
    levels: it takes the sorted table lo + (hi - lo) j / 32, j = 1..31,
    of the midpoints they can reach, and a binary search walks it.  The
    doubling ends on a power of two T, and lo and hi stay multiples of
    T 2^-31 in [T/2, T], so every entry is exact, the nested midpoint
    0.5 (lo + hi) of the step-by-step loop, and the walk ends on that
    loop's tau.  No entry exceeds T, and every term of J is a power of
    tau, so none can overflow.  The level returned is the ``j_value`` of
    the endpoint, checked against that closed form (``_checked_level``).
    Returns None when no doubling reaches the target; raises
    NonFiniteEnergyError when the energy overflows.
    """
    grid = field0.grid
    ray = ray_energies(grid, element_data(grid, field0.u.values,
                                          field0.v.values), mf)
    tau = 1.0
    for _ in range(_MAX_DOUBLINGS):
        if ray_energy(ray, tau) < _ENDPOINT_TARGET:
            break
        tau *= 2.0
    else:
        return None
    # bisect back toward the crossing so the endpoint is only moderately
    # below the target; a wildly overshot endpoint stretches the search
    # path and starves it of resolution near the ridge
    lo, hi = tau / 2.0, tau
    width = 2 ** _BISECTION_LEVELS
    for _ in range(_BISECTION_STEPS // _BISECTION_LEVELS):
        # entries 0 and width are lo and hi themselves, exactly
        table = lo + (hi - lo) / width * np.arange(width + 1)
        below = ray_energy(ray, table[1:-1]) < _ENDPOINT_TARGET
        a, b = 0, width
        while b - a > 1:
            mid = (a + b) // 2
            a, b = (a, mid) if below[mid - 1] else (mid, b)
        lo, hi = float(table[a]), float(table[b])
    endpoint = field0 * hi
    return endpoint, _checked_level(endpoint, ray, hi, mf)


def _with_endpoint(cert: GeometryCertificate, start: FieldPair,
                   cfg: ExponentConfig, mf: ModelFunctions,
                   ) -> GeometryCertificate:
    """The certificate with its endpoint on the ray through ``start``.

    The endpoint is the scaling of ``start`` from ``_scale_until_negative``
    (J < -1).  The certificate validates when 0 < rho0 < inf and the
    endpoint has negative energy outside the sphere ell = r0.  When no
    scaling reaches negative energy the endpoint is None and the
    certificate is not validated.
    """
    scaled = _scale_until_negative(start, mf)
    if scaled is None:
        return replace(cert, endpoint=None, endpoint_level=math.nan,
                       validated=False)
    endpoint, level = scaled
    validated = (0.0 < cert.rho0 < math.inf and level < 0.0
                 and ell_norm(endpoint, cfg) > cert.r0)
    return replace(cert, endpoint=endpoint, endpoint_level=level,
                   validated=validated)


def _ell_scales(a, b1, b2, cfg: ExponentConfig, r0: float) -> np.ndarray:
    """The scales tau with ell(tau w) = r0, from the coefficients of the
    rays w (``ell_coefficients``).

    Both branches of the fibering map increase in tau, so the scale is
    the smaller of their crossings of r0: r0/a, and the root of the
    power-law branch b1 tau^e1 + b2 tau^e2, e_i = s_i + 1.  That root is
    in closed form when s1 = s2.  Otherwise the rays of a block take
    Newton's method together, on the convex increasing
    g(y) = log(d1 e^(e1 y) + d2 e^(e2 y)) in y = log(tau/tau0), with tau0
    the smaller single-term crossing and d_i = b_i tau0^e_i / r0: its
    first step lands at or right of the root, the later ones descend onto
    it, and they stop when rounding halts the descent.  Measured from
    tau0, |y| <= log 2 keeps full relative precision where log tau would
    not.  Where tau0^e_i overflows (b_i zero or subnormal), d_i is
    (tau0/c_i)^e_i, with c_i the crossing, so a zero b gives a zero term.
    Raises ValueError unless 0 < r0 < inf.
    """
    if not 0 < r0 < math.inf:
        raise ValueError("r0 must be positive and finite")
    e1, e2 = cfg.s1 + 1.0, cfg.s2 + 1.0
    if e1 == e2:
        return np.minimum(r0 / a, (r0 / (b1 + b2)) ** (1.0 / e1))
    with np.errstate(all="ignore"):
        c1 = np.divide(r0, b1) ** (1.0 / e1)
        c2 = np.divide(r0, b2) ** (1.0 / e2)
        tau0 = np.minimum(c1, c2)
        d1, d2 = [np.where(np.isinf(tau0 ** e), (tau0 / c) ** e,
                           b / r0 * tau0 ** e)
                  for b, c, e in ((b1, c1, e1), (b2, c2, e2))]

    def newton(y):
        t1, t2 = d1 * np.exp(e1 * y), d2 * np.exp(e2 * y)
        return y - np.log(t1 + t2) * (t1 + t2) / (e1 * t1 + e2 * t2)

    y = newton(0.0)
    while np.any((new := newton(y)) < y):
        y = np.minimum(y, new)
    return np.minimum(r0 / a, tau0 * np.exp(y))


def scale_to_ell(fp: FieldPair, cfg: ExponentConfig, r0: float) -> FieldPair:
    """Rescale a nonzero pair so its ell-norm equals r0.

    Along the ray tau -> tau w the ell-norm is the fibering map
    max(tau a, tau^(s1+1) b1 + tau^(s2+1) b2), with the coefficients of
    ``ray_coefficients``; the scale is that of ``_ell_scales``.
    """
    with np.errstate(over="ignore"):
        a, b1, b2 = ray_coefficients(fp, cfg)
    if not (0.0 < a < math.inf and 0.0 < b1 + b2 < math.inf):
        # the norms under- or overflowed at this amplitude (or the pair is
        # zero); read the coefficients off the pair scaled to peak 1
        peak = max(norm_Linf(fp.u), norm_Linf(fp.v))
        if peak == 0.0:
            raise ValueError("cannot rescale the zero pair")
        fp = fp * (1.0 / peak)
        a, b1, b2 = ray_coefficients(fp, cfg)
    return fp * float(_ell_scales(a, b1, b2, cfg, r0))


def _certify_block(grid: Grid, coeffs: np.ndarray, modes: np.ndarray,
                   cfg: ExponentConfig, r0: float, mf: ModelFunctions):
    """The fields, scales tau to the sphere, rays (``ray_energies``) and
    levels there of a block of certify samples, in the dtype of
    ``coeffs`` and ``modes``; tau, which r0 can put out of float32's
    range, and the levels are float64 in either."""
    fields = sine_mode_fields(grid, coeffs, modes)
    u, v = fields[:, 0], fields[:, 1]
    data = element_data(grid, u, v)
    tau = _ell_scales(*np.asarray(ell_coefficients(
        grid, u, v, data[1], data[3], cfg), dtype=float), cfg, r0)
    ray = ray_energies(grid, data, mf)
    return fields, tau, ray, ray_energy(ray, tau)


def _screen_candidates(levels: np.ndarray, margins: np.ndarray) -> np.ndarray:
    """Indices, ascending, of the samples i with levels_i - margins_i <=
    min_j (levels_j + margins_j): those whose exact level, within
    ``margins`` of ``levels``, can be least.  Non-finite ones all stay."""
    upper, lower = levels + margins, levels - margins
    bound = np.min(upper, where=np.isfinite(upper), initial=math.inf)
    return np.flatnonzero(~np.isfinite(lower) | (lower <= bound))


def certify_geometry(cfg: ExponentConfig, grid: Grid, r0: float,
                     n_samples: int = 256, seed: int = 0,
                     mf: ModelFunctions | None = None) -> GeometryCertificate:
    """Sampled mountain-pass geometry check on the ell-sphere of radius r0.

    Samples seeded random Fourier-mode pairs rescaled to ell = r0 and
    records the minimum energy rho0.  The samples are built in blocks of
    about 2^14 grid nodes: per block, the ell-norm and energy coefficients
    of every sample's ray (``ell_coefficients``, ``ray_energies``, which
    share one ``element_data``) give its scale to the sphere and its
    energy there in closed form.  A float32 screen does this for every
    sample, and only the samples that can still be least within its
    margin (``_screen_candidates``) are evaluated again in float64, so
    the least is bitwise the float64-only loop's.  Only it becomes a
    field pair, and rho0 is its ``j_value``, checked against the closed
    form (``_checked_level``).  The endpoint is the product-of-sines
    bubble (u, 0) of ``_structured_start`` scaled until J < -1: the
    superlinear G makes J negative far out on every ray, so any ray
    serves and no eigenpair is needed.  The certificate validates when
    rho0 is finite and positive and that endpoint lies beyond the sphere
    with negative energy.  A non-positive rho0 returns a non-validated
    certificate rather than raising: the geometry may genuinely fail at
    that radius.
    """
    if n_samples < 1:
        raise ValueError("certification needs at least one sample")
    mf = _model(cfg, mf)
    rng = np.random.default_rng(seed)
    modes = sine_modes(grid, 4)
    # one draw in the order of n_samples random_field_pair calls
    coeffs = rng.standard_normal((n_samples, 2)
                                 + (modes.shape[0],) * grid.dimension)
    block = max(1, _CERTIFY_BLOCK_NODES // grid.n ** grid.dimension)
    screen, margins = np.full((2, n_samples), math.nan)
    coeffs32, modes32 = coeffs.astype(np.float32), modes.astype(np.float32)
    # float32: twice the samples per block in the same bytes (more ran
    # slower); a block that overflows or makes a nan stays nan, all kept
    for start in range(0, n_samples, 2 * block):
        part = slice(start, start + 2 * block)
        with contextlib.suppress(ArithmeticError), np.errstate(
                over="raise", divide="raise", invalid="raise"):
            tau, (exponents, c), levels = _certify_block(
                grid, coeffs32[part], modes32, cfg, r0, mf)[1:]
            scale = ray_energy((exponents, np.abs(c)), tau)
            screen[part], margins[part] = levels, _SCREEN_RTOL * scale
    keep = _screen_candidates(screen, margins)
    best_level = math.inf
    for start in range(0, keep.size, block):
        fields, tau, (exponents, ray_coeffs), levels = _certify_block(
            grid, coeffs[keep[start:start + block]], modes, cfg, r0, mf)
        k = int(np.argmin(levels))
        if levels[k] < best_level:
            best_level, best = levels[k], fields[k] * tau[k]
            best_ray, best_tau = (exponents, ray_coeffs[k]), tau[k]
    min_sample = FieldPair(GridFunction(grid, best[0]),
                           GridFunction(grid, best[1]))
    rho0 = _checked_level(min_sample, best_ray, best_tau, mf)
    cert = GeometryCertificate(r0=r0, rho0=rho0,
                               endpoint=None, endpoint_level=math.nan,
                               samples=n_samples, min_sample=min_sample,
                               validated=False)
    return _with_endpoint(cert, _structured_start(grid, 0), cfg, mf)


# Levenberg-Marquardt damping of the polish, in units of the stiffness K
_LM_MU_MIN = 1e-3
_LM_MU_MAX = 1e8

# the polish gives up when an accepted step leaves F^T K^-1 F above
# _STALL_RATIO of its value _STALL_STEPS accepted steps earlier
_STALL_STEPS = 10
_STALL_RATIO = 0.5


@functools.lru_cache(maxsize=2)
def _band_layout(dimension: int, n: int,
                 k: int) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
    """LAPACK band layout of the Newton matrix of k components on a grid.

    The unknowns are the k components' m interior values of
    ``Grid(dimension, n)``, interleaved: component j of node i at k i + j
    (u_i at 2i, v_i at 2i + 1 for k = 2).  A cell's first and last corner
    are r = n - 1 interior numbers apart in 2D, 1 in 1D, so kl = ku =
    k r + k - 1.  Entry (i, j) sits at ab[2 kl + i - j, j] of the
    Fortran-ordered band array; its first kl rows hold the pivoting fill.
    Returns (kl, slots, k_slots, k_data): slots holds the flat position
    in ab of each raveled (cell, i, j) entry of the kc x kc element
    matrices, ab.size for a boundary corner, and k_slots the distinct
    positions of the nonzero entries k_data of blockdiag(K, ..., K), the
    grid's ``element_stiffness`` kron I_k summed over those element slots.
    Built once per grid size and k; the arrays are read-only.
    """
    grid = Grid(dimension, n)
    _, corners = grid.jacobian_pattern()
    kl = k * sum((n - 2) ** a for a in range(dimension)) + k - 1
    # boundary corners stay negative: k (-1) + j < 0
    corners = np.hstack([k * corners + j for j in range(k)])
    element = np.kron(np.eye(k), grid.element_stiffness)
    ldab = 3 * kl + 1
    size = ldab * k * (n - 2) ** dimension
    r, c = np.broadcast_arrays(corners[:, :, None], corners[:, None, :])
    slots = np.where((r >= 0) & (c >= 0), 2 * kl + r - c + c * ldab,
                     size).ravel()
    weights = np.broadcast_to(element, r.shape).ravel()
    band = np.bincount(slots, weights=weights, minlength=size + 1)[:-1]
    k_slots = np.flatnonzero(band)
    k_data = band[k_slots]
    for a in (slots, k_slots, k_data):
        a.flags.writeable = False
    return kl, slots, k_slots, k_data


def dgbsv(kl: int, ku: int, ab: np.ndarray, b: np.ndarray, **kwargs):
    """LAPACK's banded LU solve, imported from scipy at the first call.

    Only the polish factors a matrix, so ``import quasivar`` and the runs
    that never polish load no part of scipy.
    """
    from scipy.linalg.lapack import dgbsv as lapack_dgbsv
    return lapack_dgbsv(kl, ku, ab, b, **kwargs)


def _lm_step(jac: np.ndarray, f: np.ndarray, mu: float,
             grid: Grid) -> np.ndarray | None:
    """Solve (J + mu blockdiag(K, K)) dx = -f by banded LU.

    The unknowns are the m interior values of u, then of v.  ``jac``
    holds ``stacked_jacobians``' kc x kc element Jacobians of k components.
    k = 2 is the full system; k = 1 (an idle component, whose load must
    be exactly zero) its block-diagonal case, whose idle step is exactly
    0: u moves when v's load is exactly zero, else v.  J is summed from
    ``jac`` straight into the band storage of ``_band_layout``, moving
    components interleaved, by one ``np.bincount`` in raveled (cell, i,
    j) order, and mu K is then added at its distinct slots.  Returns None
    on an exactly singular factor.
    """
    k = jac.shape[1] // 2 ** grid.dimension
    loads = f.reshape(2, -1)
    first = int(k == 1 and np.any(loads[1]))
    moving = slice(first, first + k)
    kl, slots, k_slots, k_data = _band_layout(grid.dimension, grid.n, k)
    rhs = -loads[moving].T.ravel()
    size = (3 * kl + 1) * rhs.size
    ab = np.bincount(slots, weights=jac.ravel(), minlength=size + 1)[:-1]
    if mu:
        ab[k_slots] += mu * k_data
    _, _, x, info = dgbsv(kl, kl, ab.reshape(rhs.size, -1).T, rhs,
                          overwrite_ab=True)
    if info > 0:
        return None
    dx = np.zeros_like(loads)
    dx[moving] = x.reshape(-1, k).T
    return dx.ravel()


def _stacked_states(grid: Grid, values: np.ndarray,
                    mf: ModelFunctions) -> list[tuple | None]:
    """Per pair of ``values`` (S, 2, *nodes): its interior loads F,
    max|K^-1 F| and F^T K^-1 F, summed over its own rows, so bitwise as
    alone; None where not finite.  A stack whose loads raise is evaluated
    again pair by pair, so an overflowing pair fails alone."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            loads = np.array(stacked_loads(grid, values[:, 0], values[:, 1],
                                           mf)).swapaxes(0, 1)
    except ArithmeticError:
        return ([None] if len(values) == 1 else
                [_stacked_states(grid, x[None], mf)[0] for x in values])
    finite = np.isfinite(loads).reshape(len(loads), -1).all(axis=1)
    loads = loads[finite]
    sol = grid.laplacian_solve(loads)
    nodes = tuple(range(2, sol.ndim))
    res = np.abs(sol).max(axis=(1,) + nodes)
    sums = (loads * sol).sum(axis=nodes)
    # each pair's F is its own array (ravel copies the strided rows)
    f = (x.ravel() for x in loads[(...,) + (slice(1, -1),) * grid.dimension])
    states = iter(zip(f, res.tolist(), (a + b for a, b in sums.tolist())))
    return [next(states) if ok else None for ok in finite]


@dataclass
class _LMState:
    """A pair's polish: iterate x (2, *nodes), its loads f, max|K^-1 F|,
    the F^T K^-1 F of the start and of each accepted iterate (x's last),
    mu and Jacobian."""

    x: np.ndarray
    f: np.ndarray
    res: float
    energies: list[float]
    mu: float = 0.0
    jac: np.ndarray | None = None


def _polish_stack(pairs: list[FieldPair], mf: ModelFunctions, tol: float,
                  max_iter: int) -> list[tuple[FieldPair, float] | None]:
    """Newton refinement of approximate critical points by banded LU.

    Each step solves (J + mu blockdiag(K, K)) dx = -F for the interior
    loads F = (F_u, F_v), with the exact Jacobian J summed from the
    element Jacobians of ``stacked_jacobians`` and the Dirichlet
    stiffness K summed from ``Grid.element_stiffness``, by the banded LU
    of ``_lm_step``:
    Levenberg-Marquardt damping toward the Sobolev gradient step -K^-1 F.
    On a semitrivial point, (u, 0) or (0, v), of a model whose u-v
    coupling vanishes there, the idle component's load is exactly zero
    and so is every midpoint G_uv, so only the moving component's element
    Hessians are formed and ``_lm_step`` assembles and factors only its
    block; the idle component's step is exactly zero and the iterates
    stay semitrivial.  A step is accepted when the energy norm
    F^T K^-1 F of the residual (the square of ``residual_norm``)
    decreases.  mu starts at 0, a plain Newton step; a rejected step (no
    decrease, non-finite trial loads or a singular factor) sets
    mu <- max(4 mu, 1e-3) and solves again, and an accepted one quarters
    mu, down to 0 below 1e-3.  Stops when the max-norm of K^-1 F is
    <= tol * 1e-2.

    The pairs advance in lock step, one try each per round: one
    ``_stacked_states`` call evaluates every trial of a round, and one
    ``stacked_jacobians`` call the Jacobians of the pairs that accepted a
    step; each factors alone.  Every stacked piece is bitwise the pair's
    own, so each result is that of the pair polished alone.

    Returns, per pair, the refined pair and its ``residual_norm``,
    sqrt(F^T K^-1 F) of its accepted loads, or None when the loads at the
    start are not finite, mu passes 1e8, an accepted step leaves
    F^T K^-1 F above half its value 10 accepted steps earlier (a
    stagnating iteration), or max_iter steps do not converge.  Whether a
    point is kept (level, nontriviality) is left to the caller.
    """
    if not pairs:
        return []
    grid = pairs[0].grid
    # the interior nodes, in the order of the loads F (faster than a mask)
    inner = (...,) + (slice(1, -1),) * grid.dimension
    fatol = tol * 1e-2
    out: list[tuple[FieldPair, float] | None] = [None] * len(pairs)
    evaluated = np.array([(fp.u.values, fp.v.values) for fp in pairs])
    live = {s: _LMState(x, *state[:2], [state[2]]) for s, (x, state) in
            enumerate(zip(evaluated, _stacked_states(grid, evaluated, mf)))
            if state is not None}
    while live:
        fresh = {s: p for s, p in live.items() if p.jac is None}
        for s, p in list(fresh.items()):
            if p.res <= fatol:
                out[s] = (FieldPair(*(GridFunction(grid, c) for c in p.x)),
                          np.sqrt(max(p.energies[-1], 0.0)))
            # the start's energy, then one per Jacobian taken
            if p.res <= fatol or len(p.energies) > max_iter:
                del live[s], fresh[s]
        if fresh:
            x = np.array([p.x for p in fresh.values()])
            idle = [1 if not np.any(fv) else 0 if not np.any(fu) else None
                    for fu, fv in (p.f.reshape(2, -1) for p in fresh.values())]
            for p, jac in zip(fresh.values(), stacked_jacobians(
                    grid, x[:, 0], x[:, 1], mf, idle)):
                p.jac = jac
        # a step that is None (an exactly singular factor) is rejected
        steps = {s: dx for s, p in live.items()
                 if (dx := _lm_step(p.jac, p.f, p.mu, grid)) is not None}
        states = {}
        if steps:
            evaluated = np.array([live[s].x for s in steps])
            evaluated[inner] += np.array(list(steps.values())).reshape(
                evaluated[inner].shape)
            states = dict(zip(steps, zip(evaluated, _stacked_states(
                grid, evaluated, mf))))
        for s, p in list(live.items()):
            trial, state = states.get(s, (None, None))
            if state is None or not state[2] < p.energies[-1]:
                p.mu = max(4.0 * p.mu, _LM_MU_MIN)
                if p.mu > _LM_MU_MAX:
                    del live[s]
                continue
            p.x, (p.f, p.res, energy), p.jac = trial, state, None
            p.energies.append(energy)
            if (p.res > fatol and len(p.energies) > _STALL_STEPS
                    and energy > _STALL_RATIO
                    * p.energies[-1 - _STALL_STEPS]):
                del live[s]
            p.mu = p.mu / 4.0 if p.mu / 4.0 >= _LM_MU_MIN else 0.0
    return out


def _ridge_point(endpoint: FieldPair, points: int,
                 mf: ModelFunctions) -> FieldPair:
    """``mountain_pass_search``'s ridge point on the path to endpoint."""
    grid, taus = endpoint.grid, [k / (points - 1) for k in range(points)]
    ray = ray_energies(grid, element_data(grid, endpoint.u.values,
                                          endpoint.v.values), mf)
    return endpoint * taus[int(np.argmax(ray_energy(ray, np.array(taus))))]


def _search_starts(cfg: ExponentConfig,
                   certificates: list[GeometryCertificate],
                   params: SolverParams, mf: ModelFunctions,
                   provenances: list[str]) -> list[CriticalPointCandidate]:
    """Each certificate's ``mountain_pass_search`` candidate; each of its
    three attempt rounds is one ``_polish_stack`` over the starts not kept."""
    ridges = [_ridge_point(cert.endpoint, params.path_points, mf)
              for cert in certificates]
    vector = [bool(r.u.values.any() and r.v.values.any()) for r in ridges]
    attempts = [("", lambda r: r),
                (" (u, 0)", lambda r: FieldPair(r.u, GridFunction.zero(r.grid))),
                (" (0, v)", lambda r: FieldPair(GridFunction.zero(r.grid), r.v))]
    out: list[CriticalPointCandidate | None] = [None] * len(ridges)
    for it, (label, project) in enumerate(attempts, start=1):
        todo = [s for s in range(len(ridges))
                if out[s] is None and (it == 1 or vector[s])]
        polished = _polish_stack([project(ridges[s]) for s in todo], mf,
                                 params.tol, params.max_iters)
        for s, result in zip(todo, polished):
            if result is None:
                continue
            refined, residual = result
            measured = _measured(refined, cfg, mf)
            floor = 0.5 * max(certificates[s].rho0, 0.0)
            if (residual <= params.tol and measured["level"] >= floor
                    and measured["nontriviality"] >= params.nontrivial_floor):
                out[s] = CriticalPointCandidate(
                    fields=refined, residual=residual, iterations=it,
                    converged=True, provenance=provenances[s] + label,
                    **measured)
    for s, ridge in enumerate(ridges):
        if out[s] is None:
            measured = _measured(ridge, cfg, mf)
            out[s] = CriticalPointCandidate(
                fields=ridge, residual=residual_norm(ridge, mf),
                iterations=3 if vector[s] else 1, converged=False,
                collapsed=measured["nontriviality"] < params.nontrivial_floor,
                provenance=provenances[s], **measured)
    return out


def mountain_pass_search(cfg: ExponentConfig, grid: Grid,
                         certificate: GeometryCertificate,
                         params: SolverParams | None = None,
                         mf: ModelFunctions | None = None,
                         ) -> CriticalPointCandidate:
    """Polish the ridge point of the path from the origin to the endpoint.

    The ridge point is the energy maximum (ties broken at the lowest
    index) of the ``path_points`` points tau e, tau = k / (path_points -
    1), of the straight path to the certificate endpoint e; their levels
    come from the closed form of J along that ray (``ray_energies``).
    ``_polish_stack`` refines it with at most ``max_iters`` Newton
    steps, and a result is kept when its residual is <= tol, its level is
    at least half of max(rho0, 0) (a min-max level dominates rho0) and its
    W-norm is at least ``nontrivial_floor``.  When that fails and both
    components of the ridge point are nonzero, its semitrivial projections
    (u, 0) and then (0, v) are polished in turn, and the one kept is named
    in the provenance.  ``iterations`` counts the polish attempts.  When
    no attempt is kept the ridge point itself is returned, unconverged.
    The search runs on the endpoint's own grid; raises ValueError when
    grid is not of its size.
    """
    params = params or SolverParams()
    mf = _model(cfg, mf)
    if not certificate.validated:
        raise ValueError("mountain_pass_search requires a validated certificate")
    if grid.node_shape != certificate.endpoint.grid.node_shape:
        raise ValueError("the certificate lives on a grid of another size")
    return _search_starts(cfg, [certificate], params, mf,
                          ["mountain_pass"])[0]


def _structured_start(grid: Grid, index: int) -> FieldPair:
    """Sign-structured start (u, 0) with u a sine mode; index 0 is the
    positive product-of-sines bubble."""
    if grid.dimension == 1:
        u = sine_product(grid, index + 1)
    else:
        modes = [(1, 1), (2, 1), (1, 2), (2, 2), (3, 1), (1, 3), (3, 3)]
        u = sine_product(grid, *modes[index % len(modes)])
    return FieldPair(u, GridFunction.zero(grid))


def multiplicity_search(cfg: ExponentConfig, grid: Grid, count: int,
                        seeds: list[int] | None = None,
                        params: SolverParams | None = None,
                        mf: ModelFunctions | None = None,
                        r0: float = 0.1, n_geo_samples: int = 64,
                        ) -> list[CriticalPointCandidate]:
    """Multi-start mountain-pass search with deduplication up to sign.

    Certifies the geometry once (sampling seed ``seeds[0]``), then
    searches from ``count`` starts, their polishes in lock step
    (``_search_starts``), start m from the ray through the sine mode
    ``_structured_start(grid, m)``, with its endpoint and validation set
    by the same rule as ``certify_geometry`` (start 0 is the certify
    endpoint's ray, so it reuses that certificate).  Drops starts that do
    not validate, non-converged or collapsed runs, and candidates equal to
    a kept one (in start order) up to the dedup tolerance or a global sign
    flip, and returns the survivors sorted by level.  May return fewer than
    ``count`` candidates.  The seeds only label the provenance past
    ``seeds[0]``.  Raises ValueError when count < 1.
    """
    params = params or SolverParams()
    mf = _model(cfg, mf)
    if count < 1:
        raise ValueError("count must be at least 1")
    seeds = seeds if seeds is not None else list(range(count))
    if not seeds:
        raise ValueError("seeds must not be empty")
    base_cert = certify_geometry(cfg, grid, r0, n_samples=n_geo_samples,
                                 seed=seeds[0], mf=mf)
    certs, labels = [], []
    for m in range(count):
        cert = (base_cert if m == 0 else
                _with_endpoint(base_cert, _structured_start(grid, m), cfg, mf))
        if cert.validated:
            certs.append(cert)
            labels.append(f"multi_start[{m}] seed={seeds[m % len(seeds)]}")
    results: list[CriticalPointCandidate] = []
    for cand in _search_starts(cfg, certs, params, mf, labels):
        # a collapsed candidate is never converged
        if not cand.converged:
            continue
        a = cand.fields
        if not any(pair_norm_W(a - kept.fields, cfg.p1, cfg.p2)
                   < params.dedup_tol
                   or pair_norm_W(a + kept.fields, cfg.p1, cfg.p2)
                   < params.dedup_tol for kept in results):
            results.append(cand)
    results.sort(key=lambda c: c.level)
    return results


def verify_candidate(cand: CriticalPointCandidate, cfg: ExponentConfig,
                     grid: Grid, mf: ModelFunctions | None = None,
                     params: SolverParams | None = None,
                     ) -> VerificationRecord:
    """Independent re-evaluation of a candidate's certificates.

    Recomputes level, residual, nontriviality and sup-norm bounds, and
    reports the Cerami-weighted residual  residual * (1 + |fields|_X)
    with the X-norm surrogate  |u|_W1 + |v|_W2 + |u|_inf + |v|_inf.
    ``semitrivial`` is true when exactly one component is identically
    zero: a solution of one scalar equation, not a vector solution, and
    ``trivial`` when the W-norm is below ``params.nontrivial_floor``.
    Raises ValueError when grid is not the size of the candidate's own.
    """
    mf = _model(cfg, mf)
    params = params or SolverParams()
    if grid.node_shape != cand.fields.grid.node_shape:
        raise ValueError("the candidate lives on a grid of another size")
    measured = _measured(cand.fields, cfg, mf)
    res = residual_norm(cand.fields, mf)
    x_norm = measured["nontriviality"] + measured["linf_u"] + measured["linf_v"]
    return VerificationRecord(
        residual=res, cerami_residual=res * (1.0 + x_norm),
        trivial=bool(measured["nontriviality"] < params.nontrivial_floor),
        semitrivial=(measured["linf_u"] == 0.0) != (measured["linf_v"] == 0.0),
        positive_level=bool(measured["level"] > 0.0), **measured)
