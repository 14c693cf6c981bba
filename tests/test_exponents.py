import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasivar import (ExponentConfig, InfeasibleIntervalError,
                      NonAdmissibleConfigError, check_model_hypotheses,
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

    def test_gamma_five_flips_coupling_bound(self, coupled_cfg):
        import dataclasses
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
        import dataclasses
        cfg = dataclasses.replace(coupled_cfg, gamma1=5.0, gamma2=5.0)
        failing = check_model_hypotheses(cfg).failing()
        assert "exj02_12" in failing and "exj02_21" in failing

    def test_admissibility_is_swap_invariant(self, coupled_cfg):
        import dataclasses
        for cfg in (coupled_cfg,
                    dataclasses.replace(coupled_cfg, gamma1=5.0, gamma2=5.0)):
            assert (check_model_hypotheses(cfg).admissible
                    == check_model_hypotheses(cfg.swapped()).admissible)


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
        import dataclasses
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
