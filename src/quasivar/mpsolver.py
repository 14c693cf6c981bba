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

import functools
import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg.lapack import dgbsv

from .energy import (dJ_jacobian, dJ_loads, element_data, j_value,
                     ray_energies, ray_energy, residual_norm)
from .exponents import ExponentConfig
from .grid import (FieldPair, Grid, GridFunction, ell_coefficients, ell_norm,
                   norm_Linf, pair_norm_W, ray_coefficients, sine_mode_fields,
                   sine_modes, sine_product)
from .model import ModelFunctions


class NoNegativeEnergyError(RuntimeError):
    """No scaling of the trial field reached negative energy."""


@dataclass
class SolverParams:
    tol: float = 1e-6
    max_iters: int = 10_000
    path_points: int = 33
    nontrivial_floor: float = 1e-3
    dedup_tol: float = 1e-2


# nodes per block of certify samples, which bounds the memory of the
# batched ray coefficients (7 samples on the 2D n=65 grid)
_CERTIFY_BLOCK_NODES = 2 ** 15

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
                          target: float = -1.0, max_doublings: int = 60,
                          ) -> tuple[FieldPair, float]:
    """The scaling field0 * tau with J < target, and its level.

    tau doubles from 1 until J(tau field0) < target, then 30 bisection
    steps move it back toward the crossing.  J along the ray is the
    closed form of ``ray_energies``, built once, so no field is scaled
    until the end; the level returned is the ``j_value`` of the endpoint,
    checked against that closed form (``_checked_level``).  Raises
    NoNegativeEnergyError when no doubling reaches the target, and
    NonFiniteEnergyError when the energy overflows.
    """
    grid = field0.grid
    ray = ray_energies(grid, element_data(grid, field0.u.values,
                                          field0.v.values), mf)
    tau = 1.0
    found = None
    for _ in range(max_doublings):
        if ray_energy(ray, tau) < target:
            found = tau
            break
        tau *= 2.0
    if found is None:
        raise NoNegativeEnergyError(
            "no negative-energy endpoint found: geometry violated or grid too coarse")
    # bisect back toward the crossing so the endpoint is only moderately
    # below the target; a wildly overshot endpoint stretches the search
    # path and starves it of resolution near the ridge
    lo, hi = found / 2.0, found
    for _ in range(30):
        mid = 0.5 * (lo + hi)
        if ray_energy(ray, mid) < target:
            hi = mid
        else:
            lo = mid
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
    try:
        endpoint, level = _scale_until_negative(start, mf)
    except NoNegativeEnergyError:
        return replace(cert, endpoint=None, endpoint_level=math.nan,
                       validated=False)
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
    """
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


def certify_geometry(cfg: ExponentConfig, grid: Grid, r0: float,
                     n_samples: int = 256, seed: int = 0,
                     mf: ModelFunctions | None = None) -> GeometryCertificate:
    """Sampled mountain-pass geometry check on the ell-sphere of radius r0.

    Samples seeded random Fourier-mode pairs rescaled to ell = r0 and
    records the minimum energy rho0.  The samples are built in blocks of
    about 2^15 grid nodes: per block, the ell-norm and energy coefficients
    of every sample's ray (``ell_coefficients``, ``ray_energies``, which
    share one ``element_data``) give its scale to the sphere and its
    energy there in closed form.  Only the minimizing sample becomes a
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
    if r0 <= 0:
        raise ValueError("r0 must be positive")
    if n_samples < 1:
        raise ValueError("certification needs at least one sample")
    mf = mf or ModelFunctions(cfg)
    rng = np.random.default_rng(seed)
    modes = sine_modes(grid, 4)
    # one draw in the order of n_samples random_field_pair calls
    coeffs = rng.standard_normal((n_samples, 2)
                                 + (modes.shape[0],) * grid.dimension)
    block = max(1, _CERTIFY_BLOCK_NODES // grid.n ** grid.dimension)
    best_level = math.inf
    for start in range(0, n_samples, block):
        fields = sine_mode_fields(grid, coeffs[start:start + block], modes)
        u, v = fields[:, 0], fields[:, 1]
        data = element_data(grid, u, v)
        tau = _ell_scales(*ell_coefficients(grid, u, v, data[1], data[3], cfg),
                          cfg, r0)
        exponents, ray_coeffs = ray_energies(grid, data, mf)
        levels = ray_energy((exponents, ray_coeffs), tau)
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
                 k: int) -> tuple[int, np.ndarray, np.ndarray]:
    """LAPACK band layout of the Newton matrix of k components on a grid.

    The unknowns are the k components' m interior values of
    ``Grid(dimension, n)``, interleaved: component j of node i at k i + j
    (u_i at 2i, v_i at 2i + 1 for k = 2).  A cell's first and last corner
    are r = n - 1 interior numbers apart in 2D, 1 in 1D, so kl = ku =
    k r + k - 1.  Entry (i, j) sits at ab[2 kl + i - j, j] of the
    Fortran-ordered band array; its first kl rows hold the pivoting fill.
    Returns (kl, slots, k_data): slots holds the flat position in ab of
    each raveled (cell, i, j) entry of the kc x kc element matrices,
    ab.size for a boundary corner, followed by the positions of the
    nonzero entries k_data of blockdiag(K, ..., K), the grid's
    ``element_stiffness`` kron I_k summed over those element slots.
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
    slots = np.concatenate([slots, k_slots])
    slots.flags.writeable = k_data.flags.writeable = False
    return kl, slots, k_data


def _lm_step(jac: np.ndarray, f: np.ndarray, mu: float,
             grid: Grid) -> np.ndarray:
    """Solve (J + mu blockdiag(K, K)) dx = -f by banded LU.

    The unknowns are the m interior values of u, then of v.  ``jac``
    holds ``dJ_jacobian``'s kc x kc element Jacobians of k components.
    k = 2 is the full system; k = 1 (an idle component, whose load must
    be exactly zero) its block-diagonal case, whose idle step is exactly
    0: u moves when v's load is exactly zero, else v.  J is summed from
    ``jac`` straight into the band storage of ``_band_layout``, moving
    components interleaved, in raveled (cell, i, j) order, and the
    entries of mu K are added after them.  Raises RuntimeError on an
    exactly singular factor.
    """
    k = jac.shape[1] // 2 ** grid.dimension
    loads = f.reshape(2, -1)
    first = int(k == 1 and np.any(loads[1]))
    moving = slice(first, first + k)
    kl, slots, k_data = _band_layout(grid.dimension, grid.n, k)
    rhs = -loads[moving].T.ravel()
    weights = jac.ravel()
    if mu:
        weights = np.concatenate([weights, mu * k_data])
    size = (3 * kl + 1) * rhs.size
    ab = np.bincount(slots[:weights.size], weights=weights,
                     minlength=size + 1)[:-1]
    _, _, x, info = dgbsv(kl, kl, ab.reshape(rhs.size, -1).T, rhs,
                          overwrite_ab=True)
    if info > 0:
        raise RuntimeError("exactly singular factor")
    dx = np.zeros_like(loads)
    dx[moving] = x.reshape(-1, k).T
    return dx.ravel()


def _polish_candidate(fp: FieldPair, mf: ModelFunctions, tol: float,
                      max_iter: int = 200) -> FieldPair | None:
    """Newton refinement of an approximate critical point by banded LU.

    Each step solves (J + mu blockdiag(K, K)) dx = -F for the interior
    loads F = (F_u, F_v), with the exact Jacobian J summed from the
    element Jacobians of ``dJ_jacobian`` and the Dirichlet stiffness K
    summed from ``Grid.element_stiffness``, by the banded LU of
    ``_lm_step``:
    Levenberg-Marquardt damping toward the Sobolev gradient step -K^-1 F.
    On a semitrivial point, (u, 0) or (0, v), of a model whose u-v
    coupling vanishes there, the idle component's load is exactly zero
    and so is every midpoint G_uv, so ``dJ_jacobian`` forms only the
    moving component's element Hessians and ``_lm_step`` assembles and
    factors only its block; the idle component's step is exactly zero
    and the iterates stay semitrivial.  A step is accepted when the
    energy norm F^T K^-1 F of the residual (the square of
    ``residual_norm``) decreases.  mu starts at 0, a plain Newton step; a
    rejected step (no decrease, non-finite trial loads or a singular
    factor) sets mu <- max(4 mu, 1e-3) and solves again, and an accepted
    one quarters mu, down to 0 below 1e-3.  Stops when the max-norm of K^-1 F is <= tol * 1e-2.
    Returns the refined pair, or None when the loads at the start are not
    finite, mu passes 1e8, an accepted step leaves F^T K^-1 F above half
    its value 10 accepted steps earlier (a stagnating iteration), or
    max_iter steps do not converge.  Whether the point is kept (level,
    nontriviality) is left to the caller.
    """
    grid = fp.grid
    interior = ~grid.boundary_mask()

    def loads(x: np.ndarray) -> tuple | None:
        """The pair with interior values x, its interior loads F,
        max|K^-1 F| and F^T K^-1 F; None if not finite."""
        u, v = grid.zeros(), grid.zeros()
        u[interior], v[interior] = x.reshape(2, -1)
        pair = FieldPair(GridFunction(grid, u), GridFunction(grid, v))
        try:
            with np.errstate(over="raise", invalid="raise"):
                fu, fv = dJ_loads(pair, mf)
        except ArithmeticError:
            return None
        if not (np.all(np.isfinite(fu)) and np.all(np.isfinite(fv))):
            return None
        ru, rv = grid.laplacian_solve(fu), grid.laplacian_solve(fv)
        res = max(np.max(np.abs(ru)), np.max(np.abs(rv)))
        energy = float(np.sum(fu * ru) + np.sum(fv * rv))
        return (pair, np.concatenate([fu[interior], fv[interior]]),
                float(res), energy)

    x = np.concatenate([fp.u.values[interior], fp.v.values[interior]])
    state = loads(x)
    if state is None:
        return None
    fp, f, res, energy = state
    fatol = tol * 1e-2
    mu = 0.0
    energies = [energy]
    for _ in range(max_iter):
        if res <= fatol:
            break
        fu, fv = f.reshape(2, -1)
        idle = 1 if not np.any(fv) else 0 if not np.any(fu) else None
        jac = dJ_jacobian(fp, mf, idle)
        while True:
            try:
                dx = _lm_step(jac, f, mu, grid)
            except RuntimeError:  # exactly singular factor
                state = None
            else:
                state = loads(x + dx)
            if state is not None and state[3] < energy:
                break
            mu = max(4.0 * mu, _LM_MU_MIN)
            if mu > _LM_MU_MAX:
                return None
        x = x + dx
        fp, f, res, energy = state
        energies.append(energy)
        if (res > fatol and len(energies) > _STALL_STEPS
                and energy > _STALL_RATIO * energies[-1 - _STALL_STEPS]):
            return None
        mu = mu / 4.0 if mu / 4.0 >= _LM_MU_MIN else 0.0
    return fp if res <= fatol else None


def _pair_dist_W(a: FieldPair, b: FieldPair, cfg: ExponentConfig) -> float:
    return pair_norm_W(a - b, cfg.p1, cfg.p2)


def mountain_pass_search(cfg: ExponentConfig, grid: Grid,
                         certificate: GeometryCertificate,
                         params: SolverParams | None = None,
                         mf: ModelFunctions | None = None,
                         provenance: str = "mountain_pass",
                         ) -> CriticalPointCandidate:
    """Polish the ridge point of the path from the origin to the endpoint.

    The ridge point is the energy maximum (ties broken at the lowest
    index) of the ``path_points`` points tau e, tau = k / (path_points -
    1), of the straight path to the certificate endpoint e; their levels
    come from the closed form of J along that ray (``ray_energies``).
    ``_polish_candidate`` refines it with at most ``max_iters`` Newton
    steps, and a result is kept when its residual is <= tol, its level is
    at least half of max(rho0, 0) (a min-max level dominates rho0) and its
    W-norm is at least ``nontrivial_floor``.  When that fails and both
    components of the ridge point are nonzero, its semitrivial projections
    (u, 0) and then (0, v) are polished in turn, and the one kept is named
    in the provenance.  ``iterations`` counts the polish attempts.  When
    no attempt is kept the ridge point itself is returned, unconverged.
    """
    params = params or SolverParams()
    mf = mf or ModelFunctions(cfg)
    if not certificate.validated:
        raise ValueError("mountain_pass_search requires a validated certificate")
    if params.path_points < 3:
        raise ValueError("path_points must be at least 3")
    endpoint = certificate.endpoint
    npts = params.path_points
    taus = [k / (npts - 1) for k in range(npts)]
    ray = ray_energies(grid, element_data(grid, endpoint.u.values,
                                          endpoint.v.values), mf)
    ridge = endpoint * taus[int(np.argmax(ray_energy(ray, np.array(taus))))]
    attempts = [(ridge, "")]
    if np.any(ridge.u.values) and np.any(ridge.v.values):
        zero = GridFunction.zero(grid)
        attempts += [(FieldPair(ridge.u, zero), " (u, 0)"),
                     (FieldPair(zero, ridge.v), " (0, v)")]
    level_floor = 0.5 * max(certificate.rho0, 0.0)
    for it, (start, label) in enumerate(attempts, start=1):
        refined = _polish_candidate(start, mf, params.tol, params.max_iters)
        if refined is None:
            continue
        residual = residual_norm(refined, mf)
        level = j_value(refined, mf)
        nontrivial = pair_norm_W(refined, cfg.p1, cfg.p2)
        if (residual <= params.tol and level >= level_floor
                and nontrivial >= params.nontrivial_floor):
            return CriticalPointCandidate(
                fields=refined, level=level, residual=residual,
                nontriviality=nontrivial,
                linf_u=norm_Linf(refined.u), linf_v=norm_Linf(refined.v),
                iterations=it, converged=True,
                provenance=provenance + label)
    nontrivial = pair_norm_W(ridge, cfg.p1, cfg.p2)
    return CriticalPointCandidate(
        fields=ridge, level=j_value(ridge, mf),
        residual=residual_norm(ridge, mf), nontriviality=nontrivial,
        linf_u=norm_Linf(ridge.u), linf_v=norm_Linf(ridge.v),
        iterations=len(attempts), converged=False,
        collapsed=nontrivial < params.nontrivial_floor,
        provenance=provenance)


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

    Certifies the geometry once (sampling seed ``seeds[0]``), then runs
    ``count`` searches, start m from the ray through the sine mode
    ``_structured_start(grid, m)``, with its endpoint and validation set
    by the same rule as ``certify_geometry`` (start 0 is the certify
    endpoint's ray, so it reuses that certificate).  Drops starts that do
    not validate, non-converged or collapsed runs, and candidates equal to
    a kept one up to the dedup tolerance or a global sign flip, and
    returns the survivors sorted by level.  May return fewer than
    ``count`` candidates.  The seeds only label the provenance past
    ``seeds[0]``.
    """
    params = params or SolverParams()
    mf = mf or ModelFunctions(cfg)
    seeds = seeds if seeds is not None else list(range(max(count, 1)))
    if not seeds:
        raise ValueError("seeds must not be empty")
    base_cert = certify_geometry(cfg, grid, r0, n_samples=n_geo_samples,
                                 seed=seeds[0], mf=mf)
    results: list[CriticalPointCandidate] = []
    for m in range(count):
        cert = (base_cert if m == 0 else
                _with_endpoint(base_cert, _structured_start(grid, m), cfg, mf))
        if not cert.validated:
            continue
        cand = mountain_pass_search(
            cfg, grid, cert, params, mf,
            provenance=f"multi_start[{m}] seed={seeds[m % len(seeds)]}")
        if not cand.converged or cand.collapsed:
            continue
        duplicate = False
        for kept in results:
            if (_pair_dist_W(cand.fields, kept.fields, cfg) < params.dedup_tol
                    or _pair_dist_W(cand.fields, -kept.fields, cfg)
                    < params.dedup_tol):
                duplicate = True
                break
        if not duplicate:
            results.append(cand)
    results.sort(key=lambda c: c.level)
    return results


def verify_candidate(cand: CriticalPointCandidate, cfg: ExponentConfig,
                     grid: Grid, mf: ModelFunctions | None = None,
                     nontrivial_floor: float = 1e-3) -> VerificationRecord:
    """Independent re-evaluation of a candidate's certificates.

    Recomputes level, residual, nontriviality and sup-norm bounds, and
    reports the Cerami-weighted residual  residual * (1 + |fields|_X)
    with the X-norm surrogate  |u|_W1 + |v|_W2 + |u|_inf + |v|_inf.
    ``semitrivial`` is true when exactly one component is identically
    zero: a solution of one scalar equation, not a vector solution.
    """
    mf = mf or ModelFunctions(cfg)
    fp = cand.fields
    level = j_value(fp, mf)
    res = residual_norm(fp, mf)
    nontrivial = pair_norm_W(fp, cfg.p1, cfg.p2)
    linf_u, linf_v = norm_Linf(fp.u), norm_Linf(fp.v)
    x_norm = nontrivial + linf_u + linf_v
    return VerificationRecord(
        level=level, residual=res,
        cerami_residual=res * (1.0 + x_norm),
        nontriviality=nontrivial, linf_u=linf_u, linf_v=linf_v,
        trivial=bool(nontrivial < nontrivial_floor),
        semitrivial=(linf_u == 0.0) != (linf_v == 0.0),
        positive_level=bool(level > 0.0))
