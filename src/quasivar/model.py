"""Closed-form evaluators for the model coefficients and nonlinearity.

The model class is

    A(t, xi) = (1/p1) (1 + |t|^{s1 p1}) |xi|^{p1}
    B(t, xi) = (1/p2) (1 + |t|^{s2 p2}) |xi|^{p2}
    G(u, v)  = |u|^{q1}/q1 + |v|^{q2}/q2 + c* |u|^{g1} |v|^{g2}

with lowercase a, b the xi-gradients and A_t, B_t the t-partials.  All
evaluators are vectorized over numpy arrays; ``t`` has shape (...,) and
``xi`` shape (..., dim).

Every power of a midpoint value t, u or v is taken by one rule, ``_pow``:
|t|^e with 0^0 = 1 and, for e < 0, the limit value 0 at t = 0, so each
evaluator is finite at t = 0, u = 0 and v = 0.  Signed powers are
sign(t) |t|^e.

For p < 2 the factor |xi|^{p-2} is singular at xi = 0; evaluators replace
it by (|xi|^2 + eps^2)^{(p-2)/2} with eps = ``epsilon_reg``.  The energy
A itself is never regularized.  eps = 0 reproduces the exact model, with
the zero rule at xi = 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partialmethod

import numpy as np

from .exponents import ExponentConfig, compute_model_constants
from .grid import magnitude_power, squared_magnitude


def _pow(t: np.ndarray, e: float) -> np.ndarray:
    """|t|^e, with 0^0 = 1 and, for e < 0, the limit value 0 at t = 0."""
    return _pow_from_abs(np.abs(np.asarray(t, dtype=float)), e,
                         overwrite=True)


def _pow_from_abs(a: np.ndarray, e: float,
                  overwrite: bool = False) -> np.ndarray:
    """``_pow`` of t from a = |t|, taken in a itself when ``overwrite`` is
    set and e >= 0: ``a **= e`` takes numpy's scalar-exponent fast paths
    (e = 0, 0.5, 1, 2, -1) as ``a ** e`` does, so both round alike."""
    if e < 0:
        return np.where(a > 0, a, np.inf) ** e
    if not overwrite:
        return a ** e
    a **= e
    return a


def _xi_pow(xi_sq: np.ndarray, p: float, k: float, eps: float) -> np.ndarray:
    """(|xi|^2 + eps^2)^{(p-k)/2}, regularized only for p < 2; the zero
    rule of _pow where eps = 0 or p >= 2."""
    e = (p - k) / 2.0
    return (xi_sq + eps * eps) ** e if p < 2 and eps > 0 else _pow(xi_sq, e)


@dataclass
class ModelFunctions:
    """Evaluator bundle for one exponent configuration.

    Satisfies the generic coefficient-evaluator contract (methods
    A_eval/a_eval/At_eval, the B-family, and G_eval/Gu_eval/Gv_eval, plus
    the second derivatives coef_hessian and G_hessian that the Newton
    polish assembles its Jacobian from, and ray_densities, the power-law
    terms of the energy along a ray that certification, the endpoint
    scaling and the initial search path evaluate in closed form), so
    user-supplied plugin bundles with the same methods are accepted
    everywhere a ModelFunctions is.
    """

    cfg: ExponentConfig
    epsilon_reg: float = 1e-8

    def __post_init__(self):
        if not np.isfinite(self.epsilon_reg):
            raise ValueError("epsilon_reg must be finite")
        if self.epsilon_reg < 0:
            raise ValueError("epsilon_reg must be non-negative")

    # -- coefficients: A (component 1) and B (component 2) -------------------

    def _exponents(self, component: int) -> tuple[float, float]:
        """(p1, s1) for A (component 1), (p2, s2) for B (component 2)."""
        cfg = self.cfg
        return (cfg.p1, cfg.s1) if component == 1 else (cfg.p2, cfg.s2)

    def _coef(self, t, xi, component: int) -> np.ndarray:
        """A or B: (1/p) (1 + |t|^{s p}) |xi|^p."""
        p, s = self._exponents(component)
        return ((1.0 / p) * (1.0 + _pow(t, s * p))
                * magnitude_power(np.asarray(xi, dtype=float), p))

    def _coef_xi(self, t, xi, component: int) -> np.ndarray:
        """a or b, the xi-gradient of A or B, with |xi|^{p-2} regularized."""
        p, s = self._exponents(component)
        xi = np.asarray(xi, dtype=float)
        coef = ((1.0 + _pow(t, s * p))
                * _xi_pow(squared_magnitude(xi), p, 2.0, self.epsilon_reg))
        return coef[..., None] * xi

    def _coef_t(self, t, xi, component: int) -> np.ndarray:
        """A_t or B_t, the t-partial of A or B."""
        p, s = self._exponents(component)
        xi = np.asarray(xi, dtype=float)
        if s == 0:
            return np.zeros(np.broadcast_shapes(np.shape(t), xi.shape[:-1]))
        return s * np.sign(t) * _pow(t, s * p - 1.0) * magnitude_power(xi, p)

    # the plugin names of the evaluator contract
    A_eval = partialmethod(_coef, component=1)
    a_eval = partialmethod(_coef_xi, component=1)
    At_eval = partialmethod(_coef_t, component=1)
    B_eval = partialmethod(_coef, component=2)
    b_eval = partialmethod(_coef_xi, component=2)
    Bt_eval = partialmethod(_coef_t, component=2)

    # -- nonlinearity ----------------------------------------------------------

    def G_eval(self, u, v) -> np.ndarray:
        cfg = self.cfg
        out = _pow(u, cfg.q1) / cfg.q1 + _pow(v, cfg.q2) / cfg.q2
        if cfg.c_star > 0:
            out = out + cfg.c_star * _pow(u, cfg.gamma1) * _pow(v, cfg.gamma2)
        return out

    def _G_partial(self, u, v, component: int) -> np.ndarray:
        """G_u (component 1) or G_v (component 2)."""
        cfg = self.cfg
        g1, g2 = cfg.gamma1, cfg.gamma2
        if component == 1:
            w, q, g, eu, ev = u, cfg.q1, g1, g1 - 1.0, g2
        else:
            w, q, g, eu, ev = v, cfg.q2, g2, g1, g2 - 1.0
        sign = np.sign(w)
        out = sign * _pow(w, q - 1.0)
        if cfg.c_star > 0:
            # the u factor multiplies before the v factor; the sign of the
            # differentiated variable is exact, so it can come last
            out = out + g * cfg.c_star * _pow(u, eu) * _pow(v, ev) * sign
        return out

    Gu_eval = partialmethod(_G_partial, component=1)
    Gv_eval = partialmethod(_G_partial, component=2)

    # -- second derivatives ----------------------------------------------------

    def coef_hessian(self, t, xi, component: int,
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Second derivatives of A (component 1) or B (component 2).

        Returns (tt, t_xi, xi_xi) of shapes (...), (..., dim) and
        (..., dim, dim): the t-derivative of At_eval, the mixed derivative
        (the t-derivative of a_eval and the xi-gradient of At_eval) and
        the xi-Jacobian of a_eval.  The xi-factors carry the regularization
        of a_eval, so the mixed derivative is one array for both; the
        t = 0 limit of |t|^{sp-2} (singular for sp < 2) is taken as 0.
        """
        p, s = self._exponents(component)
        t = np.asarray(t, dtype=float)
        xi = np.asarray(xi, dtype=float)
        xi_sq = squared_magnitude(xi)
        f = _xi_pow(xi_sq, p, 2.0, self.epsilon_reg)
        xi_xi = f[..., None, None] * np.eye(xi.shape[-1])
        if p != 2:
            f2 = _xi_pow(xi_sq, p, 4.0, self.epsilon_reg)
            xi_xi = xi_xi + ((p - 2.0) * f2)[..., None, None] \
                * xi[..., :, None] * xi[..., None, :]
        sp_ = s * p
        xi_xi = (1.0 + _pow(t, sp_))[..., None, None] * xi_xi
        if s == 0:
            shape = np.broadcast_shapes(t.shape, xi_sq.shape)
            return np.zeros(shape), np.zeros(shape + xi.shape[-1:]), xi_xi
        tt = s * (sp_ - 1.0) * _pow(t, sp_ - 2.0) * xi_sq ** (p / 2.0)
        t_xi = (sp_ * np.sign(t) * _pow(t, sp_ - 1.0) * f)[..., None] * xi
        return tt, t_xi, xi_xi

    def G_hessian(self, u, v) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Second derivatives (G_uu, G_uv, G_vv), negative powers of |u|, |v|
        taken as 0 at 0."""
        cfg = self.cfg
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        guu = (cfg.q1 - 1.0) * _pow(u, cfg.q1 - 2.0)
        gvv = (cfg.q2 - 1.0) * _pow(v, cfg.q2 - 2.0)
        guv = np.zeros(np.broadcast_shapes(u.shape, v.shape))
        if cfg.c_star > 0:
            c, g1, g2 = cfg.c_star, cfg.gamma1, cfg.gamma2
            guu = guu + c * g1 * (g1 - 1.0) * _pow(u, g1 - 2.0) * _pow(v, g2)
            gvv = gvv + c * g2 * (g2 - 1.0) * _pow(u, g1) * _pow(v, g2 - 2.0)
            guv = (c * g1 * g2 * np.sign(u) * _pow(u, g1 - 1.0)
                   * np.sign(v) * _pow(v, g2 - 1.0))
        return guu, guv, gvv

    # -- energy along a ray ----------------------------------------------------

    def ray_densities(self, um, ug, vm, vg,
                      ) -> tuple[tuple[float, ...], tuple[np.ndarray, ...]]:
        """Exponents e_k and densities d_k of the energy along a ray.

        For midpoint values um, vm (shape (...)) and gradients ug, vg
        (shape (..., dim)) of a pair w, the integrand A + B - G at tau w
        is sum_k tau^e_k d_k for tau >= 0.  The seven terms, in order:
        |ug|^p1/p1 and |um|^{s1 p1} |ug|^p1/p1 (exponents p1, p1 (1+s1)),
        the two B terms likewise, then -|um|^q1/q1, -|vm|^q2/q2 and
        -c* |um|^g1 |vm|^g2 (exponents q1, q2, g1 + g2).  The energy is
        never regularized.
        """
        cfg = self.cfg
        au, av = np.abs(um), np.abs(vm)
        gu = magnitude_power(ug, cfg.p1)
        gu /= cfg.p1
        gv = magnitude_power(vg, cfg.p2)
        gv /= cfg.p2
        u_coef = _pow_from_abs(au, cfg.s1 * cfg.p1)
        u_coef *= gu
        v_coef = _pow_from_abs(av, cfg.s2 * cfg.p2)
        v_coef *= gv
        u_pot = _pow_from_abs(au, cfg.q1)
        u_pot /= -cfg.q1
        v_pot = _pow_from_abs(av, cfg.q2)
        v_pot /= -cfg.q2
        if cfg.c_star > 0:
            # the u factor multiplies before the v factor, as in G_eval;
            # these are the last uses of au and av
            coupling = _pow_from_abs(au, cfg.gamma1, overwrite=True)
            coupling *= -cfg.c_star
            coupling *= _pow_from_abs(av, cfg.gamma2, overwrite=True)
        else:
            coupling = np.zeros_like(um)
        exponents = (cfg.p1, cfg.p1 * (1.0 + cfg.s1),
                     cfg.p2, cfg.p2 * (1.0 + cfg.s2),
                     cfg.q1, cfg.q2, cfg.gamma1 + cfg.gamma2)
        densities = (gu, u_coef, gv, v_coef, u_pot, v_pot, coupling)
        return exponents, densities

    def exact(self) -> "ModelFunctions":
        """The unregularized (eps = 0) evaluator bundle."""
        return ModelFunctions(self.cfg, epsilon_reg=0.0)


@dataclass
class HypothesisSample:
    """Worst-case margin of one sampled pointwise inequality."""

    id: str
    min_margin: float
    argmin: tuple
    note: str = ""


@dataclass
class RatioTrend:
    """Sampled ratio extrema over a geometric sequence of annuli."""

    id: str
    radii: list[float]
    ratios: list[float]
    note: str = ""


@dataclass
class StructuralSampleReport:
    margins: list[HypothesisSample]
    trends: list[RatioTrend]
    samples: int
    seed: int

    def margin(self, rec_id: str) -> HypothesisSample:
        for m in self.margins:
            if m.id == rec_id:
                return m
        raise KeyError(rec_id)

    def trend(self, rec_id: str) -> RatioTrend:
        for t in self.trends:
            if t.id == rec_id:
                return t
        raise KeyError(rec_id)


# half-width of the sampled (t, xi) box; annuli per ratio trend
_SAMPLE_BOX = 10.0
_N_ANNULI = 8


def sample_structural_hypotheses(mf: ModelFunctions, n_samples: int = 100_000,
                                 seed: int = 0) -> StructuralSampleReport:
    """Sampled worst-case margins of the pointwise structural inequalities.

    Uses the exact (eps = 0) evaluators.  Margins are reported for the
    coercivity identity (h3), the derivative comparisons (h4), (h5), the
    growth lower bound (h7), and the superlinearity inequality (g3) on
    samples with |(u,v)| >= R.  The asymptotic conditions (g4), (g5) are
    reported as ratio trends over geometric annuli: (g4) the max of
    G/(|u|^{p1}+|v|^{p2}) over shrinking radii 2^-k, (g5) the min of
    G/(|u|^{1/th1}+|v|^{1/th2}) over growing radii 2^k.
    """
    cfg = mf.cfg
    ex = mf.exact()
    consts = compute_model_constants(cfg)
    rng = np.random.default_rng(seed)
    dim = 2 if cfg.N >= 2 else 1

    t = rng.uniform(-_SAMPLE_BOX, _SAMPLE_BOX, n_samples)
    xi = rng.uniform(-_SAMPLE_BOX, _SAMPLE_BOX, (n_samples, dim))

    def record(rec_id, margins, args, note=""):
        i = int(np.argmin(margins))
        return HypothesisSample(id=rec_id, min_margin=float(margins[i]),
                                argmin=tuple(np.atleast_1d(a)[i] for a in args),
                                note=note)

    margins = []
    # (h3): a.xi >= mu0 (1+|t|^{s p})|xi|^p  -- an equality for the model
    # class, so the margin is evaluated in factored form (a.xi written as
    # (1+|t|^{sp})|xi|^{p-2}|xi|^2 with the shared |xi|^{p-2} factor) to
    # keep the exact zero free of rounding noise.
    a = ex.a_eval(t, xi)
    axi = np.sum(a * xi, axis=-1)
    q = squared_magnitude(xi)
    axi_alg = (1.0 + _pow(t, cfg.s1 * cfg.p1)) * _pow(q, (cfg.p1 - 2.0) / 2.0) * q
    margins.append(record("h3", axi_alg - consts.mu0 * axi_alg, (t,),
                          note="model: equality, margin 0"))

    big = _pow(t, 2) + q >= consts.R ** 2
    At = ex.At_eval(t, xi)
    # (h4): a.xi + A_t t >= mu1 a.xi  for |(t,xi)| >= R
    m4 = np.where(big, axi + At * t - consts.mu1 * axi, np.inf)
    margins.append(record("h4", m4, (t,)))
    # (h5): A - th1 a.xi - th1 A_t t >= mu2_1 a.xi  for |(t,xi)| >= R
    A = ex.A_eval(t, xi)
    m5 = np.where(big, A - cfg.theta1 * axi - cfg.theta1 * At * t
                  - consts.mu2_1 * axi, np.inf)
    margins.append(record("h5", m5, (t,)))
    # (h7): A >= alpha2 (1+|t|^{s p})|xi|^p with alpha2 = min{1/p1, 1/p2};
    # factored as (1/p1 - alpha2) * a.xi since A = (1/p1) a.xi exactly,
    # avoiding rounding noise in the alpha2 = 1/p1 equality case
    alpha2 = min(1.0 / cfg.p1, 1.0 / cfg.p2)
    margins.append(record("h7", (1.0 / cfg.p1 - alpha2) * axi_alg, (t,)))

    # (g3): 0 < G <= th1 Gu u + th2 Gv v on |(u,v)| >= R
    ang = rng.uniform(0.0, 2 * np.pi, n_samples)
    rad = consts.R * np.exp(rng.uniform(0.0, np.log(_SAMPLE_BOX), n_samples))
    u = rad * np.cos(ang)
    v = rad * np.sin(ang)
    G = ex.G_eval(u, v)
    # th1 Gu u + th2 Gv v - G collapses algebraically to a sum with the
    # nonnegative coefficients (th_i - 1/q_i) and (g1 th1 + g2 th2 - 1);
    # the factored form keeps the theta_i = 1/q_i equality case exactly 0.
    m_g3 = ((cfg.theta1 - 1.0 / cfg.q1) * _pow(u, cfg.q1)
            + (cfg.theta2 - 1.0 / cfg.q2) * _pow(v, cfg.q2)
            + (cfg.gamma1 * cfg.theta1 + cfg.gamma2 * cfg.theta2 - 1.0)
            * cfg.c_star * _pow(u, cfg.gamma1) * _pow(v, cfg.gamma2))
    margins.append(record("g3", m_g3, (u, v)))
    margins.append(record("g3_positive", G, (u, v), note="G > 0 off the origin"))

    # asymptotic ratio trends
    n_ring = max(256, n_samples // (4 * _N_ANNULI))
    ang = rng.uniform(0.0, 2 * np.pi, n_ring)
    cu, sv = np.cos(ang), np.sin(ang)

    def trend(rec_id, sign, e1, e2, extremum, note):
        """extremum of G/(|u|^e1+|v|^e2) on the annuli of radii 2^(sign k)"""
        radii = [2.0 ** (sign * k) for k in range(_N_ANNULI)]
        ratios = [float(extremum(ex.G_eval(r * cu, r * sv)
                                 / (_pow(r * cu, e1) + _pow(r * sv, e2))))
                  for r in radii]
        return RatioTrend(id=rec_id, radii=radii, ratios=ratios, note=note)

    trends = [
        trend("g4", -1, cfg.p1, cfg.p2, np.max,
              "max G/(|u|^p1+|v|^p2) over shrinking annuli"),
        trend("g5", 1, 1.0 / cfg.theta1, 1.0 / cfg.theta2, np.min,
              "min G/(|u|^{1/th1}+|v|^{1/th2}) over growing annuli"),
    ]
    return StructuralSampleReport(margins=margins, trends=trends,
                                  samples=n_samples, seed=seed)
