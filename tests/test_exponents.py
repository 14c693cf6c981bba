import dataclasses
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasivar import (ExponentConfig, InfeasibleIntervalError,
                      ModelConstants, NonAdmissibleConfigError,
                      check_model_hypotheses,
                      compute_model_constants, critical_exponent,
                      derive_auxiliary_exponents)

from util import random_admissible_configs


class TestCriticalExponent:
    def test_p_below_dimension(self):
        assert critical_exponent(1.5, 2) == 6.0
        assert critical_exponent(2.0, 3) == 6.0

    def test_p_at_or_above_dimension_is_infinite(self):
        assert math.isinf(critical_exponent(2.0, 2))
        assert math.isinf(critical_exponent(3.0, 2))

    @pytest.mark.parametrize("p, N, message", [
        (1.0, 2, "critical_exponent requires p > 1"),
        (2.0, 0, "critical_exponent requires N >= 1")])
    def test_rejects_out_of_domain(self, p, N, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            critical_exponent(p, N)


class TestDerivedExponents:
    def test_coupled_reference_values(self, coupled_cfg):
        d = derive_auxiliary_exponents(coupled_cfg)
        assert d.pstar1 == 6.0
        assert d.t1 == 7.0
        assert d.t2 == 7.0
        assert d.t3 == 8.25  # midpoint of the feasible interval (4.5, 12)
        assert d.t4 == pytest.approx(7.0 * 8.25 / 7.25, abs=0)
        assert d.qbar1 == 8.25
        assert coupled_cfg.p1 < d.qbar1 / (coupled_cfg.s1 + 1) < d.pstar1

    def test_decoupled_coupling_exponents_vanish(self, decoupled_cfg):
        d = derive_auxiliary_exponents(decoupled_cfg)
        assert d.t1 == 0.0
        assert d.t2 == 0.0
        assert math.isinf(d.pstar1)

    def test_swap_symmetry(self, coupled_cfg):
        d = derive_auxiliary_exponents(coupled_cfg)
        ds = derive_auxiliary_exponents(coupled_cfg.swapped())
        assert (ds.t1, ds.t2) == (d.t2, d.t1)
        assert (ds.qbar1, ds.qbar2) == (d.qbar2, d.qbar1)


class TestHypothesisSuite:
    def test_coupled_reference_passes_with_exact_margins(self, coupled_cfg):
        report = check_model_hypotheses(coupled_cfg)
        assert report.admissible
        assert report.record("exj02_12").margin == 1.25
        assert report.record("exj02_21").margin == 1.25

    def test_unknown_record_id_raises(self, coupled_cfg):
        with pytest.raises(KeyError):
            check_model_hypotheses(coupled_cfg).record("h99")

    def test_gamma_five_flips_coupling_bound(self, coupled_cfg):
        cfg = dataclasses.replace(coupled_cfg, gamma1=5.0, gamma2=5.0)
        report = check_model_hypotheses(cfg)
        assert not report.admissible
        rec = report.record("exj02_12")
        assert not rec.satisfied
        # 5*(8-1)/(8-5) = 35/3 against the cap 8.25 = 33/4
        assert rec.margin == float(Fraction(33, 4) - Fraction(35, 3))

    def test_decoupled_reference_passes_vacuously(self, decoupled_cfg):
        report = check_model_hypotheses(decoupled_cfg)
        assert report.admissible
        # s = 0 and p = N make two chain links vacuous, not violated
        assert report.record("exj0_1_chain2").satisfied
        assert report.record("p_lt_N_either").satisfied

    def test_failing_names_are_reported(self, coupled_cfg):
        cfg = dataclasses.replace(coupled_cfg, gamma1=5.0, gamma2=5.0)
        failing = check_model_hypotheses(cfg).failing()
        assert "exj02_12" in failing and "exj02_21" in failing

    def test_admissibility_is_swap_invariant(self, coupled_cfg):
        for cfg in (coupled_cfg,
                    dataclasses.replace(coupled_cfg, gamma1=5.0, gamma2=5.0)):
            assert (check_model_hypotheses(cfg).admissible
                    == check_model_hypotheses(cfg.swapped()).admissible)


INF = math.inf

# p1 = 1.5 < N = 2 <= p2 = 2.5: pstar2 and cap2 are infinite, so the t3
# split has an infinite other cap and the t5 split an infinite own cap
MIXED_P = ExponentConfig(N=2, p1=1.5, p2=2.5, s1=1.0, s2=0.5, q1=8.0,
                         q2=6.0, gamma1=3.0, gamma2=2.5, theta1=0.125,
                         theta2=0.25, c_star=1.0)

MIXED_P_MARGINS = {
    "exj0_1_chain1": Fraction(1, 2), "exj0_1_chain2": Fraction(1, 2),
    "exj0_1_chain3": 5, "exj0_1_chain4": 0, "exj0_1_chain5": 4,
    "thi_lt_pi_1": Fraction(13, 24), "si_pi_1": Fraction(13, 3),
    "crit_exp_1": 7,
    "exj0_2_chain1": Fraction(3, 2), "exj0_2_chain2": Fraction(1, 4),
    "exj0_2_chain3": Fraction(1, 4), "exj0_2_chain4": 2,
    "exj0_2_chain5": INF, "thi_lt_pi_2": Fraction(3, 20),
    "si_pi_2": Fraction(11, 10), "crit_exp_2": 5,
    "p_lt_N_either": Fraction(1, 2), "exj01_gamma_range": Fraction(3, 2),
    "exj01_gamma_theta": 0,
    "exj02_12": INF, "exj02_21": Fraction(75, 7),
    "crit_expi_1": INF, "crit_expi_2": Fraction(75, 7),
}

MIXED_P_DERIVED = {
    "pstar1": 6, "pstar2": INF, "t1": Fraction(7, 2), "t2": Fraction(30, 7),
    "t3": Fraction(13, 2), "t4": Fraction(91, 22), "t5": Fraction(12, 5),
    "t6": Fraction(360, 49), "qbar1": 8, "qbar2": 6,
}

# the coupled reference with q1 = gamma1 = 4: t1 is undefined
Q1_IS_GAMMA1 = ExponentConfig(N=2, p1=1.5, p2=1.5, s1=1.0, s2=1.0, q1=4.0,
                              q2=8.0, gamma1=4.0, gamma2=4.0, theta1=0.125,
                              theta2=0.125, c_star=1.0)

Q1_IS_GAMMA1_MARGINS = {
    "exj0_1_chain1": Fraction(1, 2), "exj0_1_chain2": Fraction(1, 2),
    "exj0_1_chain3": 5, "exj0_1_chain4": -4, "exj0_1_chain5": 8,
    "thi_lt_pi_1": Fraction(13, 24), "si_pi_1": Fraction(13, 3),
    "crit_exp_1": 3,
    "exj0_2_chain1": Fraction(1, 2), "exj0_2_chain2": Fraction(1, 2),
    "exj0_2_chain3": 5, "exj0_2_chain4": 0, "exj0_2_chain5": 4,
    "thi_lt_pi_2": Fraction(13, 24), "si_pi_2": Fraction(13, 3),
    "crit_exp_2": 7,
    "p_lt_N_either": Fraction(1, 2), "exj01_gamma_range": 0,
    "exj01_gamma_theta": 0,
    "exj02_12": -INF, "exj02_21": Fraction(5, 4),
    "crit_expi_1": -INF, "crit_expi_2": -INF,
}


class TestExactMargins:
    """Every margin and derived exponent, compared with ==."""

    def test_mixed_p_margins(self):
        report = check_model_hypotheses(MIXED_P)
        assert {r.id: r.margin for r in report.records} == {
            k: float(v) for k, v in MIXED_P_MARGINS.items()}
        assert report.admissible
        assert dataclasses.asdict(report.derived) == {
            k: float(v) for k, v in MIXED_P_DERIVED.items()}
        assert derive_auxiliary_exponents(MIXED_P) == report.derived
        assert report.constants == ModelConstants(
            eta1=float(Fraction(2, 3)), mu0=1.0, mu1=1.0,
            mu2_1=float(Fraction(5, 12)), mu2_2=float(Fraction(1, 40)), R=1.0)
        assert compute_model_constants(MIXED_P) == report.constants

    def test_q1_equal_gamma1_margins(self):
        report = check_model_hypotheses(Q1_IS_GAMMA1)
        assert {r.id: r.margin for r in report.records} == {
            k: float(v) for k, v in Q1_IS_GAMMA1_MARGINS.items()}
        assert report.failing() == ["exj0_1_chain4", "exj01_gamma_range",
                                    "exj02_12", "crit_expi_1", "crit_expi_2"]
        assert report.record("exj02_12").note.startswith("q_i <= gamma_i")
        for rid in ("crit_expi_1", "crit_expi_2"):
            assert report.record(rid).note == (
                "derivation failed: coupled case requires q_i > gamma_i for "
                "the cross-growth exponents")
        assert report.derived is None and report.constants is None
        with pytest.raises(InfeasibleIntervalError, match="q_i > gamma_i"):
            derive_auxiliary_exponents(Q1_IS_GAMMA1)


class TestLiteralForm:
    """exj01_literal reads gamma_1 theta_1 + gamma_1 theta_2 >= 1."""

    def test_literal_form_flips_gamma_theta(self, coupled_cfg):
        cfg = dataclasses.replace(coupled_cfg, gamma2=2.0)
        rec = check_model_hypotheses(cfg).record("exj01_gamma_theta")
        assert (rec.satisfied, rec.margin) == (False, -0.25)
        assert not rec.note.endswith("(literal form)")
        literal = dataclasses.replace(cfg, exj01_literal=True)
        report = check_model_hypotheses(literal)
        rec = report.record("exj01_gamma_theta")
        assert (rec.satisfied, rec.margin, rec.strict) == (True, 0.0, False)
        assert rec.note.endswith("(literal form)")
        assert report.admissible


class TestModelConstants:
    def test_coupled_reference(self, coupled_cfg):
        c = compute_model_constants(coupled_cfg)
        assert c.mu0 == 1.0 and c.mu1 == 1.0 and c.R == 1.0
        assert c.eta1 == float(Fraction(2, 3))
        assert c.mu2_1 == float(Fraction(5, 12))

    def test_decoupled_reference(self, decoupled_cfg):
        c = compute_model_constants(decoupled_cfg)
        assert c.mu2_1 == 0.25

    def test_rejects_inadmissible(self, coupled_cfg):
        cfg = dataclasses.replace(coupled_cfg, gamma1=5.0, gamma2=5.0)
        with pytest.raises(NonAdmissibleConfigError):
            compute_model_constants(cfg)


class TestValidation:
    def test_rejects_p_below_one(self):
        with pytest.raises(ValueError):
            ExponentConfig(N=2, p1=0.9, p2=2, s1=0, s2=0, q1=4, q2=4)

    def test_rejects_negative_s(self):
        with pytest.raises(ValueError):
            ExponentConfig(N=2, p1=2, p2=2, s1=-0.1, s2=0, q1=4, q2=4)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("name", [
        f.name for f in dataclasses.fields(ExponentConfig)
        if f.type == "float"])
    def test_rejects_non_finite_naming_the_field(self, coupled_cfg, name,
                                                 value):
        with pytest.raises(ValueError, match=f"^{name} must be finite$"):
            dataclasses.replace(coupled_cfg, **{name: value})

    def test_infeasible_interval_raises(self):
        # gamma close to q inflates t1 beyond the feasible window
        cfg = ExponentConfig(N=2, p1=1.5, p2=1.5, s1=1, s2=1, q1=8, q2=8,
                             gamma1=7.9, gamma2=7.9, theta1=0.125,
                             theta2=0.125, c_star=1.0)
        with pytest.raises(InfeasibleIntervalError):
            derive_auxiliary_exponents(cfg)


class TestRandomizedAdmissible:
    def test_derived_exponent_bounds_hold(self):
        for cfg in random_admissible_configs(100, seed=7):
            d = derive_auxiliary_exponents(cfg)
            cap = (cfg.p1 / cfg.N) * critical_exponent(cfg.p2, cfg.N) \
                * (cfg.s2 + 1.0)
            assert d.t4 < cap
            assert cfg.p1 < d.qbar1 / (cfg.s1 + 1) < critical_exponent(cfg.p1, cfg.N)
            assert cfg.p2 < d.qbar2 / (cfg.s2 + 1) < critical_exponent(cfg.p2, cfg.N)

    def test_rounded_theta_keeps_chain(self):
        # theta = 1/q rounds below the exact 1/q in about half of the
        # draws; left there, it fails 1/theta <= q and 1000 configs take
        # 8,257 draws at seed 0
        assert len(random_admissible_configs(1000, seed=0,
                                             max_draws=4000)) == 1000


@settings(max_examples=60, deadline=None)
@given(p=st.floats(1.21, 1.9), smul=st.floats(1.05, 2.0),
       qfrac=st.floats(0.1, 0.9))
def test_chain_ordering_property(p, smul, qfrac):
    """Whenever the checker reports admissible, the chain is truly ordered."""
    s = smul / p
    pstar = 2 * p / (2 - p)
    q = p * (s + 1) + qfrac * (pstar - p) * (s + 1)
    cfg = ExponentConfig(N=2, p1=p, p2=p, s1=s, s2=s, q1=q, q2=q,
                         theta1=1.0 / q, theta2=1.0 / q, c_star=0.0)
    report = check_model_hypotheses(cfg)
    if report.admissible:
        assert 2 < 1 + p < p * (s + 1) < 1 / cfg.theta1 <= q < pstar * (s + 1)
