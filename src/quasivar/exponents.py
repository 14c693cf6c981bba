"""Exponent arithmetic and admissibility checks for the model problem class.

All inequality margins are computed in exact rational arithmetic
(``fractions.Fraction`` built from the binary float inputs), so dyadic
configurations such as p = 1.5, theta = 1/8 produce exact margins.
Extended reals (the critical exponent for p >= N) are ``math.inf``, which
``Fraction`` arithmetic and comparisons already handle; only 1/inf is
made an exact zero, by ``_inv``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from fractions import Fraction

_INF = math.inf


def _inv(x: Fraction | float) -> Fraction:
    """1/x with 1/inf the exact Fraction(0), where native 1/inf is 0.0."""
    return Fraction(0) if x == _INF else 1 / x


class InfeasibleIntervalError(ValueError):
    """The admissible open interval for a Young-split exponent is empty."""


class NonAdmissibleConfigError(ValueError):
    """A configuration failed the structural hypothesis checks."""


@dataclass(frozen=True)
class ExponentConfig:
    """Full exponent/parameter tuple defining one problem instance.

    ``N`` is the spatial dimension; the theory assumes N >= 2 while N = 1
    is accepted for one-dimensional oracle harnesses.  ``gamma1``/``gamma2``
    are ignored when ``c_star`` = 0 (decoupled nonlinearity).
    """

    N: int
    p1: float
    p2: float
    s1: float
    s2: float
    q1: float
    q2: float
    gamma1: float = 2.0
    gamma2: float = 2.0
    theta1: float = 0.25
    theta2: float = 0.25
    c_star: float = 0.0
    exj01_literal: bool = False

    def __post_init__(self):
        for f in fields(self):
            if f.type == "float" and not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite")
        if self.N < 1:
            raise ValueError("spatial dimension N must be >= 1")
        if self.p1 <= 1 or self.p2 <= 1:
            raise ValueError("principal exponents p1, p2 must exceed 1")
        if self.s1 < 0 or self.s2 < 0:
            raise ValueError("growth exponents s1, s2 must be >= 0")
        if self.q1 < 1 or self.q2 < 1:
            raise ValueError("nonlinearity powers q1, q2 must be >= 1")
        if self.theta1 <= 0 or self.theta2 <= 0:
            raise ValueError("theta1, theta2 must be positive")
        if self.c_star < 0:
            raise ValueError("coupling strength c_star must be >= 0")

    def swapped(self) -> "ExponentConfig":
        """Config with the component indices 1 and 2 exchanged."""
        return ExponentConfig(
            N=self.N, p1=self.p2, p2=self.p1, s1=self.s2, s2=self.s1,
            q1=self.q2, q2=self.q1, gamma1=self.gamma2, gamma2=self.gamma1,
            theta1=self.theta2, theta2=self.theta1, c_star=self.c_star,
            exj01_literal=self.exj01_literal)


@dataclass(frozen=True)
class DerivedExponents:
    """Auxiliary exponents from the Young-splitting of the coupling term."""

    pstar1: float
    pstar2: float
    t1: float
    t2: float
    t3: float
    t4: float
    t5: float
    t6: float
    qbar1: float
    qbar2: float


@dataclass(frozen=True)
class ModelConstants:
    """Closed-form structural constants of the explicit model class."""

    eta1: float
    mu0: float
    mu1: float
    mu2_1: float
    mu2_2: float
    R: float


@dataclass(frozen=True)
class InequalityRecord:
    id: str
    satisfied: bool
    margin: float
    strict: bool = True
    note: str = ""


@dataclass(frozen=True)
class HypothesisReport:
    records: tuple[InequalityRecord, ...]
    derived: DerivedExponents | None
    constants: ModelConstants | None

    @property
    def admissible(self) -> bool:
        return all(r.satisfied for r in self.records)

    def record(self, rec_id: str) -> InequalityRecord:
        for r in self.records:
            if r.id == rec_id:
                return r
        raise KeyError(rec_id)

    def failing(self) -> list[str]:
        return [r.id for r in self.records if not r.satisfied]


def critical_exponent(p: float, N: int) -> float:
    """Critical Sobolev exponent Np/(N-p), with +inf for p >= N."""
    if p <= 1:
        raise ValueError("critical_exponent requires p > 1")
    if N < 1:
        raise ValueError("critical_exponent requires N >= 1")
    return float(_pstar(p, N))


def _pstar(p: Fraction | float, N: int) -> Fraction | float:
    """N p/(N - p) as an exact Fraction, or inf for p >= N."""
    if p >= N:
        return _INF
    p = Fraction(p)
    return N * p / (N - p)


def _rational_config(cfg: ExponentConfig) -> dict[str, tuple]:
    """The config's exponent pairs as exact Fractions, with p_i* and the
    caps p_i*(s_i+1); p_i* and a cap may be math.inf."""
    r = {name: (Fraction(getattr(cfg, name + "1")),
                Fraction(getattr(cfg, name + "2")))
         for name in ("p", "s", "q", "gamma", "theta")}
    r["pstar"] = tuple(_pstar(p, cfg.N) for p in r["p"])
    r["cap"] = tuple(ps * (s + 1) for ps, s in zip(r["pstar"], r["s"]))
    return r


def _derive_rational(cfg: ExponentConfig, r: dict[str, tuple],
                     ) -> dict[str, Fraction | float]:
    """Exact-rational derived exponents from ``r = _rational_config(cfg)``;
    values may be math.inf."""
    N = cfg.N
    (p1, p2), (s1, s2), (q1, q2), (g1, g2) = (
        r["p"], r["s"], r["q"], r["gamma"])
    ps1, ps2 = r["pstar"]
    cap1, cap2 = r["cap"]

    if cfg.c_star > 0:
        if q1 <= g1 or q2 <= g2:
            raise InfeasibleIntervalError(
                "coupled case requires q_i > gamma_i for the cross-growth exponents")
        t1 = g2 * (q1 - 1) / (q1 - g1)
        t2 = g1 * (q2 - 1) / (q2 - g2)
    else:
        t1 = t2 = Fraction(0)

    def split(t_cross: Fraction, p_own: Fraction, cap_own, cap_other):
        # open interval for the splitting exponent:
        #   ( p_own*cap_other / (p_own*cap_other - N*t_cross) ,  cap_own )
        if t_cross == 0 or cap_other == _INF:
            lower = Fraction(1)
        else:
            denom = p_own * cap_other - N * t_cross
            if denom <= 0:
                raise InfeasibleIntervalError(
                    "cross-growth exponent too large: splitting interval empty")
            lower = p_own * cap_other / denom
        if lower >= cap_own:
            raise InfeasibleIntervalError(
                "splitting interval lower bound meets its upper bound")
        t_split = lower + 1 if cap_own == _INF else (lower + cap_own) / 2
        t_conj = t_cross * t_split / (t_split - 1) if t_cross > 0 else Fraction(0)
        return t_split, t_conj

    t3, t4 = split(t1, p1, cap1, cap2)
    t5, t6 = split(t2, p2, cap2, cap1)
    qbar1 = max(q1, t3, t6)
    qbar2 = max(q2, t4, t5)
    return {
        "pstar1": ps1, "pstar2": ps2, "t1": t1, "t2": t2,
        "t3": t3, "t4": t4, "t5": t5, "t6": t6,
        "qbar1": qbar1, "qbar2": qbar2,
    }


def _as_derived(d: dict[str, Fraction | float]) -> DerivedExponents:
    """Float ``DerivedExponents`` from the ``_derive_rational`` values."""
    return DerivedExponents(**{f.name: float(d[f.name])
                               for f in fields(DerivedExponents)})


def derive_auxiliary_exponents(cfg: ExponentConfig) -> DerivedExponents:
    """Cross-growth and Young-split exponents for the model nonlinearity.

    The splitting exponents t3, t5 are taken at the midpoint of their
    admissible open interval (lower endpoint + 1 when the upper endpoint
    is infinite).  Raises InfeasibleIntervalError when the interval is
    empty, which happens exactly when the cross-growth bound fails.
    """
    return _as_derived(_derive_rational(cfg, _rational_config(cfg)))


def _rec(rec_id: str, margin: Fraction | float, strict: bool = True,
         note: str = "") -> InequalityRecord:
    m = float(margin)
    ok = (m > 0) if strict else (m >= 0)
    return InequalityRecord(id=rec_id, satisfied=ok, margin=m, strict=strict, note=note)


def _vacuous(rec_id: str, note: str) -> InequalityRecord:
    return InequalityRecord(id=rec_id, satisfied=True, margin=_INF, strict=False,
                            note=note)


def check_model_hypotheses(cfg: ExponentConfig) -> HypothesisReport:
    """Evaluate every structural inequality of the model class.

    Returns one record per inequality with a signed margin (positive slack
    means satisfied; strict inequalities fail at margin 0).  Coupling
    records are vacuously satisfied with margin +inf when c_star = 0.
    Records tied to the genuinely supercritical regime (s_i > 0, or at
    least one p_i below N) are vacuously satisfied in the classical
    regime, where the problem reduces to the subcritical theory.
    """
    N = cfg.N
    r = _rational_config(cfg)
    p, s, q, g, th, caps = (r[k] for k in ("p", "s", "q", "gamma", "theta",
                                           "cap"))
    recs: list[InequalityRecord] = []

    d = derived = derive_err = None
    try:
        d = _derive_rational(cfg, r)
        derived = _as_derived(d)
    except InfeasibleIntervalError as exc:
        derive_err = str(exc)

    # caps p_i*(s_i+1) exceed 1 or are inf, and every other factor of the
    # cross-growth bound (p_i/N)(1 - 1/cap_i) cap_j is positive and finite
    bound = [(p[i] / N) * (1 - _inv(caps[i])) * caps[1 - i] for i in (0, 1)]

    for i in (0, 1):
        k = i + 1
        recs.append(_rec(f"exj0_{k}_chain1", p[i] + 1 - 2,
                         note="2 < 1 + p_i"))
        if s[i] == 0:
            recs.append(_vacuous(f"exj0_{k}_chain2",
                                 "s_i = 0: subcritical regime, chain link vacuous"))
        else:
            recs.append(_rec(f"exj0_{k}_chain2", p[i] * (s[i] + 1) - (1 + p[i]),
                             note="1 + p_i < p_i(s_i+1)"))
        recs.append(_rec(f"exj0_{k}_chain3", 1 / th[i] - p[i] * (s[i] + 1),
                         note="p_i(s_i+1) < 1/theta_i"))
        recs.append(_rec(f"exj0_{k}_chain4", q[i] - 1 / th[i], strict=False,
                         note="1/theta_i <= q_i"))
        recs.append(_rec(f"exj0_{k}_chain5", caps[i] - q[i],
                         note="q_i < p_i*(s_i+1)"))
        recs.append(_rec(f"thi_lt_pi_{k}", 1 / p[i] - th[i],
                         note="theta_i < 1/p_i"))
        recs.append(_rec(f"si_pi_{k}", 1 / (th[i] * p[i]) - s[i],
                         note="s_i < 1/(theta_i p_i)"))
        recs.append(_rec(f"crit_exp_{k}", q[i] - 1, strict=False,
                         note="1 <= q_i"))

    # either p1 < N or p2 < N; when both p_i >= N the space X equals W and
    # the classical theory applies, so the record is vacuously satisfied
    if p[0] < N or p[1] < N:
        recs.append(_rec("p_lt_N_either", max(N - p[0], N - p[1]),
                         note="either p_1 < N or p_2 < N"))
    else:
        recs.append(_vacuous("p_lt_N_either",
                             "p_i >= N for both: classical regime (X = W)"))

    coupled = cfg.c_star > 0
    if not coupled:
        recs += [_vacuous(rid, "c_star = 0: coupling vacuous")
                 for rid in ("exj01_gamma_range", "exj01_gamma_theta",
                             "exj02_12", "exj02_21")]
    else:
        recs.append(_rec("exj01_gamma_range",
                         min(g[0] - 1, g[1] - 1, q[0] - g[0], q[1] - g[1]),
                         note="1 < gamma_i < q_i"))
        if cfg.exj01_literal:
            gt_sum = g[0] * th[0] + g[0] * th[1]
            note = "gamma_1 theta_1 + gamma_1 theta_2 >= 1 (literal form)"
        else:
            gt_sum = g[0] * th[0] + g[1] * th[1]
            note = "gamma_1 theta_1 + gamma_2 theta_2 >= 1"
        recs.append(_rec("exj01_gamma_theta", gt_sum - 1, strict=False, note=note))
        for (i, j, rid) in ((0, 1, "exj02_12"), (1, 0, "exj02_21")):
            if q[i] <= g[i]:
                recs.append(_rec(rid, -_INF, note="q_i <= gamma_i: "
                                 "cross-growth exponent undefined"))
                continue
            lhs = g[j] * (q[i] - 1) / (q[i] - g[i])
            recs.append(_rec(rid, bound[i] - lhs,
                             note="gamma_j (q_i-1)/(q_i-gamma_i) < "
                                  "(p_i/N)(1 - 1/p_i*(s_i+1)) p_j*(s_j+1)"))

    # cross-growth bounds on t_1, t_2 themselves
    if d is not None:
        for i, rid in enumerate(("crit_expi_1", "crit_expi_2")):
            recs.append(_rec(rid, bound[i] - d[f"t{i + 1}"],
                             note="t_i < (p_i/N)(1 - 1/p_i*(s_i+1)) p_j*(s_j+1)"))
    else:
        recs += [_rec(rid, -_INF, note=f"derivation failed: {derive_err}")
                 for rid in ("crit_expi_1", "crit_expi_2")]

    constants = None
    if all(r.satisfied for r in recs):
        # the closed forms of compute_model_constants
        mu2 = [1 / p[i] - th[i] * (s[i] + 1) for i in (0, 1)]
        constants = ModelConstants(eta1=float(max(1 / p[0], 1 / p[1])),
                                   mu0=1.0, mu1=1.0, mu2_1=float(mu2[0]),
                                   mu2_2=float(mu2[1]), R=1.0)
    return HypothesisReport(records=tuple(recs), derived=derived,
                            constants=constants)


def compute_model_constants(cfg: ExponentConfig) -> ModelConstants:
    """Structural constants of the explicit model class.

    For A = (1/p1)(1+|t|^{s1 p1})|xi|^{p1} the derivative contraction
    a.xi = (1+|t|^{s1 p1})|xi|^{p1} equals the coercivity lower bound
    exactly, so mu0 = 1, and a.xi + A_t t >= a.xi gives mu1 = 1.  The
    growth-comparison constant is eta1 = max{1/p1, 1/p2} since
    A = (1/p1) a.xi.  The per-component constants

        mu2_i = 1/p_i - theta_i (s_i + 1)

    come from  A - theta(a.xi) - theta(A_t t)
             = [(1/p - theta)(1+T) - theta s T] |xi|^p   with T = |t|^{sp},
    whose ratio against a.xi = (1+T)|xi|^p is minimized as T -> inf at
    1/p - theta(s+1).  R = 1 is admissible since all model inequalities
    hold globally.  ``check_model_hypotheses`` evaluates these exactly;
    raises NonAdmissibleConfigError when the configuration fails them.
    """
    report = check_model_hypotheses(cfg)
    if not report.admissible:
        raise NonAdmissibleConfigError(
            "configuration fails hypotheses: " + ", ".join(report.failing()))
    return report.constants
