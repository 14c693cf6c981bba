import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasivar import (ModelFunctions, StructuralSampleReport,
                      compute_model_constants, sample_structural_hypotheses)
from quasivar.grid import squared_magnitude
from quasivar.model import _xi_pow

# Reference forms of the first derivatives, each signed power written as
# sign(t) |t|^e and G_u, G_v as two mirrored formulas.  Where they are
# finite, the evaluators must equal them bitwise.


def _sgn_pow(t, e):
    t = np.asarray(t, dtype=float)
    return np.sign(t) * np.abs(t) ** e


def _coef_t_reference(cfg, t, xi, component):
    p, s = (cfg.p1, cfg.s1) if component == 1 else (cfg.p2, cfg.s2)
    mag = np.sqrt(squared_magnitude(np.asarray(xi, dtype=float)))
    if s == 0:
        return np.zeros(np.broadcast_shapes(np.shape(t), mag.shape))
    return s * _sgn_pow(t, s * p - 1.0) * mag ** p


def _Gu_reference(cfg, u, v):
    out = _sgn_pow(u, cfg.q1 - 1.0)
    if cfg.c_star > 0:
        out = out + (cfg.gamma1 * cfg.c_star * _sgn_pow(u, cfg.gamma1 - 1.0)
                     * np.abs(v) ** cfg.gamma2)
    return out


def _Gv_reference(cfg, u, v):
    out = _sgn_pow(v, cfg.q2 - 1.0)
    if cfg.c_star > 0:
        out = out + (cfg.gamma2 * cfg.c_star * np.abs(u) ** cfg.gamma1
                     * _sgn_pow(v, cfg.gamma2 - 1.0))
    return out


def _assert_bits_where_finite(got, ref):
    finite = np.isfinite(ref)
    assert finite.any()
    assert got.shape == ref.shape
    assert got[finite].tobytes() == ref[finite].tobytes()


def _signed_samples(seed, m=256):
    """t, xi, u, v of both signs, a quarter of each exactly zero."""
    rng = np.random.default_rng(seed)
    t, u, v = rng.uniform(-3, 3, (3, m))
    xi = rng.uniform(-3, 3, (m, 2))
    for a in (t, xi, u, v):
        a[rng.random(a.shape[0]) < 0.25] = 0.0
    return t, xi, u, v


@pytest.fixture(params=["coupled_cfg", "decoupled_cfg", "nondyadic_cfg"])
def reference_cfg(request):
    return request.getfixturevalue(request.param)


@pytest.fixture(scope="module")
def mf_coupled(coupled_cfg):
    return ModelFunctions(coupled_cfg)


@pytest.fixture(scope="module")
def mf_decoupled(decoupled_cfg):
    return ModelFunctions(decoupled_cfg)


class TestAFamily:
    def test_vanishes_at_origin(self, mf_coupled):
        z = np.zeros(2)
        assert mf_coupled.exact().A_eval(0.0, z) == 0.0
        assert np.all(mf_coupled.exact().a_eval(0.0, z) == 0.0)
        assert mf_coupled.exact().At_eval(0.0, z) == 0.0

    def test_reference_value(self):
        from quasivar import ExponentConfig
        cfg = ExponentConfig(N=2, p1=2, p2=2, s1=1, s2=1, q1=8, q2=8,
                             theta1=0.1, theta2=0.1, c_star=0.0)
        mf = ModelFunctions(cfg)
        # (1/2)(1 + 2^2) * |(3,4)|^2 = (1/2)(5)(25)
        assert mf.A_eval(2.0, np.array([3.0, 4.0])) == pytest.approx(62.5)

    @given(t=st.floats(-5, 5), x1=st.floats(-5, 5), x2=st.floats(-5, 5))
    @settings(max_examples=60, deadline=None)
    def test_contraction_identity(self, mf_coupled, t, x1, x2):
        """a(t, xi).xi = p1 A(t, xi) with the exact (eps = 0) evaluators."""
        ex = mf_coupled.exact()
        xi = np.array([x1, x2])
        lhs = float(np.dot(ex.a_eval(t, xi), xi))
        rhs = mf_coupled.cfg.p1 * float(ex.A_eval(t, xi))
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    @given(t=st.floats(-5, 5), x1=st.floats(-5, 5), x2=st.floats(-5, 5))
    @settings(max_examples=40, deadline=None)
    def test_evenness_exact(self, mf_coupled, t, x1, x2):
        xi = np.array([x1, x2])
        assert mf_coupled.A_eval(-t, -xi) == mf_coupled.A_eval(t, xi)

    def test_finite_difference_consistency(self, mf_coupled):
        rng = np.random.default_rng(5)
        ex = mf_coupled  # regularized form: derivatives of the same form
        for _ in range(5):
            t = rng.uniform(-3, 3)
            xi = rng.uniform(-3, 3, 2)
            h = 1e-6
            fd_t = (ex.A_eval(t + h, xi) - ex.A_eval(t - h, xi)) / (2 * h)
            assert fd_t == pytest.approx(float(ex.At_eval(t, xi)),
                                         rel=1e-5, abs=1e-7)
            for k in range(2):
                e = np.zeros(2)
                e[k] = h
                fd_x = (ex.A_eval(t, xi + e) - ex.A_eval(t, xi - e)) / (2 * h)
                assert fd_x == pytest.approx(float(ex.a_eval(t, xi)[k]),
                                             rel=1e-5, abs=1e-7)

    @pytest.mark.parametrize("eps", [0.0, 1e-8])
    def test_t_partials_match_signed_power_reference(self, reference_cfg,
                                                     eps):
        mf = ModelFunctions(reference_cfg, epsilon_reg=eps)
        t, xi, _, _ = _signed_samples(13)
        for c, name in ((1, "At_eval"), (2, "Bt_eval")):
            ref = _coef_t_reference(reference_cfg, t, xi, c)
            _assert_bits_where_finite(getattr(mf, name)(t, xi), ref)


class TestBFamily:
    def test_is_the_A_family_of_the_swapped_config(self, mixed_cfg):
        # B is A with the component indices exchanged; this fails whenever
        # a B evaluator takes (p1, s1) in place of (p2, s2)
        assert (mixed_cfg.p1, mixed_cfg.s1) != (mixed_cfg.p2, mixed_cfg.s2)
        mf = ModelFunctions(mixed_cfg)
        swapped = ModelFunctions(mixed_cfg.swapped())
        rng = np.random.default_rng(7)
        t = rng.uniform(-3, 3, 64)
        xi = rng.uniform(-3, 3, (64, 2))
        t[0], xi[1] = 0.0, 0.0
        for b, a in (("B_eval", "A_eval"), ("b_eval", "a_eval"),
                     ("Bt_eval", "At_eval")):
            assert np.array_equal(getattr(mf, b)(t, xi),
                                  getattr(swapped, a)(t, xi))
        for mine, theirs in zip(mf.coef_hessian(t, xi, 2),
                                swapped.coef_hessian(t, xi, 1)):
            assert np.array_equal(mine, theirs)


class TestGFamily:
    def test_vanishes_at_origin(self, mf_coupled):
        assert mf_coupled.G_eval(0.0, 0.0) == 0.0
        assert mf_coupled.Gu_eval(0.0, 0.0) == 0.0
        assert mf_coupled.Gv_eval(0.0, 0.0) == 0.0

    def test_reference_value(self):
        from quasivar import ExponentConfig
        cfg = ExponentConfig(N=2, p1=2, p2=2, s1=1, s2=1, q1=4, q2=4,
                             gamma1=2, gamma2=2, theta1=0.1, theta2=0.1,
                             c_star=1.0)
        mf = ModelFunctions(cfg)
        # 1/4 + 16/4 + 1*1*4 = 8.25
        assert mf.G_eval(1.0, 2.0) == pytest.approx(8.25)

    @given(u=st.floats(-4, 4), v=st.floats(-4, 4))
    @settings(max_examples=40, deadline=None)
    def test_evenness_exact(self, mf_coupled, u, v):
        assert mf_coupled.G_eval(-u, -v) == mf_coupled.G_eval(u, v)

    def test_finite_difference_slope(self, mf_coupled):
        rng = np.random.default_rng(11)
        u, v = rng.uniform(0.5, 2.0, 2)
        hs = np.logspace(-2, -4, 5)
        errs = []
        for h in hs:
            fd = (mf_coupled.G_eval(u + h, v) - mf_coupled.G_eval(u - h, v)) / (2 * h)
            errs.append(abs(fd - mf_coupled.Gu_eval(u, v)))
        slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
        assert 1.8 <= slope <= 2.2

    def test_partials_match_mirrored_reference(self, reference_cfg):
        mf = ModelFunctions(reference_cfg)
        _, _, u, v = _signed_samples(17)
        _assert_bits_where_finite(mf.Gu_eval(u, v),
                                  _Gu_reference(reference_cfg, u, v))
        _assert_bits_where_finite(mf.Gv_eval(u, v),
                                  _Gv_reference(reference_cfg, u, v))


class TestSecondDerivatives:
    """coef_hessian and G_hessian against central differences of the
    first-derivative evaluators, away from the singular sets t = 0,
    xi = 0, u = 0 and v = 0."""

    H = 1e-6

    @pytest.fixture(params=["coupled_cfg", "decoupled_cfg", "mixed_cfg",
                            "low_sp_cfg"])
    def mf(self, request):
        return ModelFunctions(request.getfixturevalue(request.param))

    @staticmethod
    def _samples(seed):
        rng = np.random.default_rng(seed)
        t = rng.uniform(0.2, 3.0, 20) * rng.choice([-1.0, 1.0], 20)
        xi = rng.uniform(0.2, 3.0, (20, 2)) * rng.choice([-1.0, 1.0], (20, 2))
        return t, xi

    @pytest.mark.parametrize("component", [1, 2])
    def test_coefficient_hessian(self, mf, component):
        grad, t_part = ((mf.a_eval, mf.At_eval) if component == 1
                        else (mf.b_eval, mf.Bt_eval))
        t, xi = self._samples(component)
        h = self.H
        tt, t_xi, xi_xi = mf.coef_hessian(t, xi, component)
        close = dict(rel=1e-5, abs=1e-7)
        assert tt == pytest.approx((t_part(t + h, xi) - t_part(t - h, xi))
                                   / (2 * h), **close)
        assert t_xi.ravel() == pytest.approx(
            ((grad(t + h, xi) - grad(t - h, xi)) / (2 * h)).ravel(), **close)
        for k in range(2):
            e = np.zeros(2)
            e[k] = h
            fd_At = (t_part(t, xi + e) - t_part(t, xi - e)) / (2 * h)
            assert t_xi[:, k] == pytest.approx(fd_At, **close)
            fd_a = (grad(t, xi + e) - grad(t, xi - e)) / (2 * h)
            assert xi_xi[:, :, k].ravel() == pytest.approx(fd_a.ravel(),
                                                           **close)

    def test_G_hessian(self, mf):
        u, v = self._samples(3)[1].T
        h = self.H
        guu, guv, gvv = mf.G_hessian(u, v)
        close = dict(rel=1e-5, abs=1e-7)
        assert guu == pytest.approx(
            (mf.Gu_eval(u + h, v) - mf.Gu_eval(u - h, v)) / (2 * h), **close)
        assert guv == pytest.approx(
            (mf.Gu_eval(u, v + h) - mf.Gu_eval(u, v - h)) / (2 * h), **close)
        assert guv == pytest.approx(
            (mf.Gv_eval(u + h, v) - mf.Gv_eval(u - h, v)) / (2 * h), **close)
        assert gvv == pytest.approx(
            (mf.Gv_eval(u, v + h) - mf.Gv_eval(u, v - h)) / (2 * h), **close)

    @pytest.mark.parametrize("eps", [0.0, 1e-8])
    def test_finite_at_origin(self, mf, eps):
        # s p = 1.5 < 2 makes |t|^{sp-2} singular at t = 0 and p = 1.5 makes
        # |xi|^{p-4} singular at xi = 0; the limit value 0 is used there.
        # low_sp_cfg (s p = 0.75, gamma = 0.7) makes the first derivatives
        # singular too: |t|^{sp-1} in A_t, B_t and |u|^{gamma-1} in G_u, G_v
        mf = ModelFunctions(mf.cfg, epsilon_reg=eps)
        for t, xi in ((0.0, np.zeros(2)), (0.0, np.array([0.3, -0.4])),
                      (0.7, np.zeros(2))):
            for c in (1, 2):
                assert all(np.all(np.isfinite(d))
                           for d in mf.coef_hessian(t, xi, c))
            if t == 0.0:
                assert mf.At_eval(t, xi) == 0.0
                assert mf.Bt_eval(t, xi) == 0.0
        assert all(np.all(np.isfinite(d)) for d in mf.G_hessian(0.0, 0.0))
        assert mf.coef_hessian(0.0, np.array([0.3, -0.4]), 1)[0] == 0.0
        for w in (0.0, 0.3, -0.4):
            assert mf.Gu_eval(0.0, w) == 0.0
            assert mf.Gv_eval(w, 0.0) == 0.0


class TestParity:
    """J is even, so the first derivatives are odd and the second
    derivatives even, bitwise, zeros and the singular exponents included."""

    @pytest.fixture(params=["coupled_cfg", "decoupled_cfg", "nondyadic_cfg",
                            "low_sp_cfg"])
    def mf(self, request):
        return ModelFunctions(request.getfixturevalue(request.param))

    def test_first_derivatives_odd(self, mf):
        t, xi, u, v = _signed_samples(19)
        for name in ("At_eval", "a_eval", "Bt_eval", "b_eval"):
            f = getattr(mf, name)
            assert np.array_equal(f(-t, -xi), -f(t, xi)), name
        for name in ("Gu_eval", "Gv_eval"):
            f = getattr(mf, name)
            assert np.array_equal(f(-u, -v), -f(u, v)), name

    def test_energy_and_second_derivatives_even(self, mf):
        t, xi, u, v = _signed_samples(23)
        for name in ("A_eval", "B_eval"):
            f = getattr(mf, name)
            assert np.array_equal(f(-t, -xi), f(t, xi)), name
        assert np.array_equal(mf.G_eval(-u, -v), mf.G_eval(u, v))
        for c in (1, 2):
            for mine, flipped in zip(mf.coef_hessian(t, xi, c),
                                     mf.coef_hessian(-t, -xi, c)):
                assert np.array_equal(mine, flipped)
        for mine, flipped in zip(mf.G_hessian(u, v), mf.G_hessian(-u, -v)):
            assert np.array_equal(mine, flipped)


class TestStructuralSampling:
    def test_coupled_margins(self, mf_coupled):
        rep = sample_structural_hypotheses(mf_coupled, n_samples=20_000, seed=3)
        assert rep.margin("h3").min_margin == 0.0
        assert rep.margin("h4").min_margin >= 0.0
        assert rep.margin("h5").min_margin >= 0.0
        assert rep.margin("h7").min_margin >= 0.0
        assert rep.margin("g3").min_margin >= 0.0
        assert rep.margin("g3_positive").min_margin > 0.0

    def test_g4_ratio_decays(self, mf_coupled):
        rep = sample_structural_hypotheses(mf_coupled, n_samples=5_000, seed=3)
        ratios = rep.trend("g4").ratios
        assert all(b < a for a, b in zip(ratios, ratios[1:]))
        assert ratios[-1] < 1e-6

    def test_g5_ratio_bounded_below(self, mf_coupled):
        rep = sample_structural_hypotheses(mf_coupled, n_samples=5_000, seed=3)
        assert min(rep.trend("g5").ratios) > 0.0

    def test_deterministic(self, mf_decoupled):
        a = sample_structural_hypotheses(mf_decoupled, n_samples=2_000, seed=9)
        b = sample_structural_hypotheses(mf_decoupled, n_samples=2_000, seed=9)
        assert [m.min_margin for m in a.margins] == [m.min_margin for m in b.margins]

    @pytest.mark.parametrize("lookup", ["margin", "trend"])
    def test_unknown_id_raises(self, lookup):
        report = StructuralSampleReport(margins=[], trends=[], samples=0,
                                        seed=0)
        with pytest.raises(KeyError):
            getattr(report, lookup)("h99")

    def test_h5_uses_computed_constant(self, coupled_cfg):
        assert compute_model_constants(coupled_cfg).mu2_1 == pytest.approx(5 / 12)


class TestRegularization:
    def test_rejects_negative_eps(self, coupled_cfg):
        with pytest.raises(ValueError):
            ModelFunctions(coupled_cfg, epsilon_reg=-1.0)

    @pytest.mark.parametrize("eps", [np.nan, np.inf])
    def test_rejects_non_finite_eps(self, coupled_cfg, eps):
        # a NaN eps would fail _xi_pow's eps > 0 test and run as eps = 0
        with pytest.raises(ValueError, match="^epsilon_reg must be finite$"):
            ModelFunctions(coupled_cfg, epsilon_reg=eps)

    @pytest.mark.parametrize("p", [1.1, 1.5, 1.9])
    @pytest.mark.parametrize("eps", [1e-8, 1e-3, 0.3])
    def test_xi_pow_is_the_regularized_power(self, p, eps):
        x = np.array([0.0, 1e-20, 1e-12, 0.25, 1.0, 7.5])
        assert np.array_equal(_xi_pow(x, p, 2.0, eps),
                              (x + eps ** 2) ** ((p - 2) / 2))

    @pytest.mark.parametrize("p", [1.5, 3.0])
    @pytest.mark.parametrize("k", [2.0, 4.0])
    def test_xi_pow_unregularized_is_zero_at_zero(self, p, k):
        out = _xi_pow(np.array([0.0, 0.25]), p, k, 0.0)
        assert out[0] == 0.0
        assert out[1] == 0.25 ** ((p - k) / 2)

    def test_regularized_converges_to_exact(self, coupled_cfg):
        xi = np.array([0.3, -0.2])
        exact = ModelFunctions(coupled_cfg, epsilon_reg=0.0).a_eval(1.0, xi)
        for eps in (1e-2, 1e-4, 1e-8):
            approx = ModelFunctions(coupled_cfg, epsilon_reg=eps).a_eval(1.0, xi)
            err = np.max(np.abs(approx - exact))
            assert err < eps ** 0.5  # pointwise convergence away from xi = 0
        tight = ModelFunctions(coupled_cfg, epsilon_reg=1e-10).a_eval(1.0, xi)
        assert np.max(np.abs(tight - exact)) < 1e-12
