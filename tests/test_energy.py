import numpy as np
import pytest

from quasivar import (FieldPair, Grid, GridFunction, J_eval, ModelFunctions,
                      NonFiniteEnergyError, dJ_apply, gradient_representative,
                      j_value, residual_norm)
from quasivar.cli import gradcheck_slope
from quasivar.energy import dJ_jacobian, dJ_loads, energy_terms
from quasivar.grid import random_field_pair, sine_modes


def random_pair(g, rng):
    """Three-mode random pair, the fields gradcheck_slope draws."""
    return random_field_pair(g, rng, sine_modes(g, 3))


@pytest.fixture(scope="module")
def bubble_pair(decoupled_cfg):
    g = Grid(2, 129)
    u = GridFunction.from_callable(
        g, lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y))
    return FieldPair(u, GridFunction.zero(g))


class TestEnergyValue:
    def test_zero_field(self, decoupled_cfg):
        mf = ModelFunctions(decoupled_cfg)
        assert j_value(FieldPair.zero(Grid(2, 17)), mf) == 0.0

    def test_bubble_terms_match_analytic(self, decoupled_cfg, bubble_pair):
        # int A = int |grad u|^2 = pi^2/2;  int G = (1/4) (3/8)^2
        mf = ModelFunctions(decoupled_cfg)
        int_A, int_B, int_G = energy_terms(bubble_pair, mf)
        assert int_A == pytest.approx(np.pi ** 2 / 2, rel=0.01)
        assert int_B == 0.0
        assert int_G == pytest.approx((3.0 / 8.0) ** 2 / 4.0, rel=0.01)

    def test_report_fields(self, decoupled_cfg, bubble_pair):
        mf = ModelFunctions(decoupled_cfg)
        rep = J_eval(bubble_pair, mf, with_residual=True)
        assert rep.total == pytest.approx(rep.int_A + rep.int_B - rep.int_G)
        assert rep.linf_u == pytest.approx(1.0, abs=1e-3)
        assert rep.linf_v == 0.0
        assert rep.residual is not None and rep.residual > 0.0

    def test_evenness(self, coupled_cfg):
        g = Grid(2, 17)
        mf = ModelFunctions(coupled_cfg)
        fp = random_pair(g, np.random.default_rng(4))
        assert j_value(-fp, mf) == j_value(fp, mf)

    def test_overflow_raises(self, coupled_cfg):
        g = Grid(2, 9)
        mf = ModelFunctions(coupled_cfg)
        fp = random_pair(g, np.random.default_rng(0)) * 1e60
        with pytest.raises(NonFiniteEnergyError):
            j_value(fp, mf)


class TestDifferential:
    def test_zero_direction(self, coupled_cfg):
        g = Grid(2, 17)
        mf = ModelFunctions(coupled_cfg)
        fp = random_pair(g, np.random.default_rng(1))
        assert dJ_apply(fp, FieldPair.zero(g), mf) == 0.0

    def test_linearity_in_direction(self, coupled_cfg):
        g = Grid(2, 17)
        mf = ModelFunctions(coupled_cfg)
        rng = np.random.default_rng(2)
        fp = random_pair(g, rng)
        d1 = random_pair(g, rng)
        d2 = random_pair(g, rng)
        lhs = dJ_apply(fp, d1 + 3.0 * d2, mf)
        rhs = dJ_apply(fp, d1, mf) + 3.0 * dJ_apply(fp, d2, mf)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    def test_rejects_mismatched_grid(self, coupled_cfg):
        mf = ModelFunctions(coupled_cfg)
        fp = FieldPair.zero(Grid(2, 17))
        with pytest.raises(ValueError):
            dJ_apply(fp, FieldPair.zero(Grid(2, 9)), mf)

    @pytest.mark.parametrize("which", ["coupled", "decoupled"])
    def test_finite_difference_slope(self, which, coupled_cfg, decoupled_cfg):
        cfg = coupled_cfg if which == "coupled" else decoupled_cfg
        g = Grid(2, 33)
        for seed in range(3):
            slope, _ = gradcheck_slope(cfg, g, seed)
            assert 1.8 <= slope <= 2.2


def _smooth_pair(g, scale_u, scale_v):
    """Positive bump profiles, so midpoint values and gradients stay away
    from the singular sets t = 0 and xi = 0 of the p = 1.5, s p = 1.5
    coefficients along the whole finite-difference stencil."""
    def field(scale):
        if g.dimension == 1:
            return GridFunction.from_callable(
                g, lambda x: np.sin(np.pi * x) * scale(x, 0.5))
        return GridFunction.from_callable(
            g, lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y) * scale(x, y))
    return FieldPair(field(scale_u), field(scale_v))


class TestJacobian:
    @pytest.mark.parametrize("dimension", [1, 2])
    @pytest.mark.parametrize("cfg_name",
                             ["coupled_cfg", "decoupled_cfg", "mixed_cfg"])
    def test_jacobian_vector_slope(self, cfg_name, dimension, request):
        """J d against central differences of dJ_loads, both components
        of the point and of the direction nonzero: error slope 2."""
        mf = ModelFunctions(request.getfixturevalue(cfg_name))
        g = Grid(dimension, 33)
        fp = _smooth_pair(g, lambda x, y: 1.0 + 0.3 * x,
                          lambda x, y: 0.8 - 0.2 * y)
        d = _smooth_pair(g, lambda x, y: 0.5 * np.cos(2 * np.pi * y + x),
                         lambda x, y: 0.5 * np.sin(3 * np.pi * x))
        interior = ~g.boundary_mask()

        def interior_loads(pair):
            fu, fv = dJ_loads(pair, mf)
            return np.concatenate([fu[interior], fv[interior]])

        jd = dJ_jacobian(fp, mf) @ np.concatenate([d.u.values[interior],
                                                   d.v.values[interior]])
        hs = 1e-2 * 2.0 ** -np.arange(4)
        errs = [np.max(np.abs((interior_loads(fp + h * d)
                               - interior_loads(fp - h * d)) / (2 * h) - jd))
                for h in hs]
        slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
        assert 1.8 <= slope <= 2.2
        assert errs[-1] <= 1e-3 * np.max(np.abs(jd))


class TestGradientRepresentative:
    def test_residual_consistency(self, coupled_cfg):
        """dJ applied to the representative equals the squared residual."""
        g = Grid(2, 17)
        mf = ModelFunctions(coupled_cfg)
        fp = random_pair(g, np.random.default_rng(8))
        rep, res = gradient_representative(fp, mf)
        assert dJ_apply(fp, rep, mf) == pytest.approx(res ** 2, rel=1e-8)

    def test_zero_at_origin(self, coupled_cfg):
        g = Grid(2, 17)
        mf = ModelFunctions(coupled_cfg, epsilon_reg=0.0)
        assert residual_norm(FieldPair.zero(g), mf) == 0.0

    def test_descent_direction(self, coupled_cfg):
        g = Grid(2, 33)
        mf = ModelFunctions(coupled_cfg)
        fp = random_pair(g, np.random.default_rng(9))
        rep, res = gradient_representative(fp, mf)
        step = 1e-6 / max(res, 1.0)
        assert j_value(fp - step * rep, mf) < j_value(fp, mf)
