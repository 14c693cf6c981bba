import numpy as np
import pytest
import scipy.linalg

from quasivar import (FieldPair, Grid, GridFunction, ModelFunctions,
                      NonFiniteEnergyError, dJ_apply, gradient_representative,
                      j_value, residual_norm)
from quasivar.cli import gradcheck_slope
from quasivar.energy import (dJ_loads, element_data, energy_terms,
                             ray_energies, ray_energy, stacked_jacobians,
                             stacked_loads)
from quasivar.grid import random_field_pair, sine_modes

from util import assemble_jacobian, pair_jacobian


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

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_field_raises(self, coupled_cfg, value):
        # no overflow: the inf or NaN node reaches the integrals as such
        mf = ModelFunctions(coupled_cfg)
        fp = random_pair(Grid(2, 9), np.random.default_rng(0))
        fp.u.values[4, 4] = value
        with np.errstate(invalid="ignore"), pytest.raises(
                NonFiniteEnergyError, match="^non-finite energy term$"):
            j_value(fp, mf)


def rays(g, u, v, mf):
    """ray_energies of the stacked pairs (u, v)."""
    return ray_energies(g, element_data(g, u, v), mf)


class TestRayEnergy:
    """J along a ray as the seven power-law terms of ray_energies."""

    @pytest.mark.parametrize("exact", [False, True])
    @pytest.mark.parametrize("dimension", [1, 2])
    @pytest.mark.parametrize("cfg_name",
                             ["coupled_cfg", "decoupled_cfg", "mixed_cfg"])
    def test_matches_j_value(self, cfg_name, dimension, exact, request):
        mf = ModelFunctions(request.getfixturevalue(cfg_name))
        mf = mf.exact() if exact else mf
        g = Grid(dimension, 17)
        for seed in range(3):
            w = random_pair(g, np.random.default_rng(seed))
            ray = rays(g, w.u.values, w.v.values, mf)
            for tau in (0.3, 1.0, 2.5):
                ref = j_value(w * tau, mf)
                assert ray_energy(ray, tau) == pytest.approx(ref, rel=1e-13)

    def test_stacked_rays_match_single_rays(self, coupled_cfg):
        mf = ModelFunctions(coupled_cfg)
        g = Grid(2, 17)
        pairs = [random_pair(g, np.random.default_rng(s)) for s in range(3)]
        u = np.stack([w.u.values for w in pairs])
        v = np.stack([w.v.values for w in pairs])
        taus = np.array([0.3, 1.0, 2.5])
        stacked = ray_energy(rays(g, u, v, mf), taus)
        for w, tau, level in zip(pairs, taus, stacked):
            one = rays(g, w.u.values, w.v.values, mf)
            assert level == pytest.approx(float(ray_energy(one, tau)),
                                          rel=1e-15)

    def test_overflow_raises(self, coupled_cfg):
        mf = ModelFunctions(coupled_cfg)
        g = Grid(2, 9)
        w = random_pair(g, np.random.default_rng(0))
        ray = rays(g, w.u.values, w.v.values, mf)
        with pytest.raises(NonFiniteEnergyError):
            ray_energy(ray, 1e50)
        big = w * 1e60
        with pytest.raises(NonFiniteEnergyError):
            rays(g, big.u.values, big.v.values, mf)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_field_raises(self, coupled_cfg, value):
        mf = ModelFunctions(coupled_cfg)
        g = Grid(2, 9)
        w = random_pair(g, np.random.default_rng(0))
        w.u.values[4, 4] = value
        with np.errstate(invalid="ignore"), pytest.raises(
                NonFiniteEnergyError, match="^non-finite energy term$"):
            rays(g, w.u.values, w.v.values, mf)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_coefficient_raises(self, value):
        ray = (np.array([1.0, 2.0]), np.array([[value, 1.0]]))
        with np.errstate(invalid="ignore"), pytest.raises(
                NonFiniteEnergyError, match="^non-finite energy along the ray$"):
            ray_energy(ray, 1.0)


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

    def test_accepts_direction_on_an_equal_grid(self, coupled_cfg):
        mf = ModelFunctions(coupled_cfg)
        g = Grid(2, 17)
        rng = np.random.default_rng(0)
        fp, d = random_pair(g, rng), random_pair(g, rng)
        twin = FieldPair(GridFunction(Grid(2, 17), d.u.values),
                         GridFunction(Grid(2, 17), d.v.values))
        assert dJ_apply(fp, twin, mf) == dJ_apply(fp, d, mf)

    @pytest.mark.parametrize("which", ["coupled", "decoupled"])
    def test_finite_difference_slope(self, which, coupled_cfg, decoupled_cfg):
        cfg = coupled_cfg if which == "coupled" else decoupled_cfg
        g = Grid(2, 33)
        for seed in range(3):
            slope, _ = gradcheck_slope(ModelFunctions(cfg), g, seed)
            assert 1.8 <= slope <= 2.2

    @pytest.mark.xfail(strict=True, reason=(
        "known defect: seed 1's slope on the coupled n = 17 grid is 1.10, "
        "where seeds 0 and 2-4 give 1.995-2.0003 (README's gradcheck note)"))
    def test_coupled_slope_on_the_n17_grid_at_seed_one(self, coupled_cfg):
        slope, _ = gradcheck_slope(ModelFunctions(coupled_cfg), Grid(2, 17),
                                   seed=1)
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


def _smooth_point(g):
    """The point the Jacobian tests linearize at, both components nonzero."""
    return _smooth_pair(g, lambda x, y: 1.0 + 0.3 * x,
                        lambda x, y: 0.8 - 0.2 * y)


class TestJacobian:
    @pytest.mark.parametrize("dimension", [1, 2])
    @pytest.mark.parametrize("cfg_name",
                             ["coupled_cfg", "decoupled_cfg", "mixed_cfg"])
    def test_jacobian_vector_slope(self, cfg_name, dimension, request):
        """J d against central differences of dJ_loads, both components
        of the point and of the direction nonzero: error slope 2."""
        mf = ModelFunctions(request.getfixturevalue(cfg_name))
        g = Grid(dimension, 33)
        fp = _smooth_point(g)
        d = _smooth_pair(g, lambda x, y: 0.5 * np.cos(2 * np.pi * y + x),
                         lambda x, y: 0.5 * np.sin(3 * np.pi * x))
        interior = ~g.boundary_mask()

        def interior_loads(pair):
            fu, fv = dJ_loads(pair, mf)
            return np.concatenate([fu[interior], fv[interior]])

        jd = assemble_jacobian(g, pair_jacobian(fp, mf)) @ np.concatenate(
            [d.u.values[interior], d.v.values[interior]])
        hs = 1e-2 * 2.0 ** -np.arange(4)
        errs = [np.max(np.abs((interior_loads(fp + h * d)
                               - interior_loads(fp - h * d)) / (2 * h) - jd))
                for h in hs]
        slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
        assert 1.8 <= slope <= 2.2
        assert errs[-1] <= 1e-3 * np.max(np.abs(jd))

    @pytest.mark.parametrize("dimension", [1, 2])
    @pytest.mark.parametrize("cfg_name",
                             ["coupled_cfg", "decoupled_cfg", "mixed_cfg"])
    def test_matches_dense_reference(self, cfg_name, dimension, request):
        """vol E2^T H E2 with E the (midpoint; gradient) maps on unit
        vectors and H the per-cell Hessian as a dense block matrix."""
        mf = ModelFunctions(request.getfixturevalue(cfg_name))
        g = Grid(dimension, 5)
        fp = _smooth_point(g)
        interior = np.flatnonzero(~g.boundary_mask())
        cells, k = g.num_cells, dimension + 1
        E = np.zeros((k * cells, interior.size))
        for col, node in enumerate(interior):
            e = g.zeros()
            e.flat[node] = 1.0
            E[:cells, col] = g.midpoint_values(e).ravel()
            E[cells:, col] = g.element_gradients(e).reshape(cells, -1).T.ravel()
        um, vm = (g.midpoint_values(f.values).ravel() for f in (fp.u, fp.v))
        ug, vg = (g.element_gradients(f.values).reshape(cells, -1)
                  for f in (fp.u, fp.v))
        g_uu, g_uv, g_vv = mf.G_hessian(um, vm)
        H = np.zeros((2 * k * cells, 2 * k * cells))

        def put(a, b, diag):  # diagonal (cells x cells) block (a, b)
            H[a * cells:(a + 1) * cells, b * cells:(b + 1) * cells] = \
                np.diag(diag)

        for c, (t, xi, g_tt) in enumerate(((um, ug, g_uu), (vm, vg, g_vv))):
            tt, t_xi, xi_xi = mf.coef_hessian(t, xi, c + 1)
            o = c * k
            put(o, o, tt - g_tt)
            for a in range(dimension):
                put(o, o + 1 + a, t_xi[:, a])
                put(o + 1 + a, o, t_xi[:, a])
                for b in range(dimension):
                    put(o + 1 + a, o + 1 + b, xi_xi[:, a, b])
        put(0, k, -g_uv)
        put(k, 0, -g_uv)
        E2 = np.block([[E, np.zeros_like(E)], [np.zeros_like(E), E]])
        ref = g.cell_volume * E2.T @ H @ E2
        jac = assemble_jacobian(g, pair_jacobian(fp, mf))
        assert np.max(np.abs(jac - ref)) <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize("dimension", [1, 2])
    def test_decoupled_stores_no_coupling(self, dimension, decoupled_cfg):
        # c* = 0: the u-v blocks of every element Jacobian are exactly
        # zero, which is how the polish sees that it may factor one block
        mf = ModelFunctions(decoupled_cfg)
        g = Grid(dimension, 5)
        jac = pair_jacobian(_smooth_point(g), mf)
        c = 2 ** dimension
        assert jac.shape == (g.num_cells, 2 * c, 2 * c)
        assert not np.any(jac[:, :c, c:]) and not np.any(jac[:, c:, :c])
        assert np.any(jac[:, :c, :c]) and np.any(jac[:, c:, c:])

    @pytest.mark.parametrize("idle", [0, 1])
    def test_idle_component_keeps_pair_while_coupled(self, coupled_cfg,
                                                     idle):
        # with both components nonzero G_uv couples them: naming an idle
        # component must not drop the coupling blocks
        mf = ModelFunctions(coupled_cfg)
        g = Grid(2, 5)
        fp = _smooth_point(g)
        full = pair_jacobian(fp, mf)
        assert np.any(full[:, :4, 4:])
        assert np.array_equal(pair_jacobian(fp, mf, idle), full)

    @pytest.mark.parametrize("dimension", [1, 2])
    @pytest.mark.parametrize("idle", [0, 1])
    def test_idle_component_drops_its_block(self, decoupled_cfg, dimension,
                                            idle):
        # c* = 0: every G_uv is zero, so only the other component's c x c
        # element blocks are formed, bitwise those of the pair
        mf = ModelFunctions(decoupled_cfg)
        g = Grid(dimension, 5)
        fp = _smooth_point(g)
        full = pair_jacobian(fp, mf)
        c = 2 ** dimension
        o = c * (1 - idle)
        assert np.array_equal(pair_jacobian(fp, mf, idle),
                              full[:, o:o + c, o:o + c])


class TestStackedEvaluation:
    """stacked_loads and stacked_jacobians, bitwise per pair."""

    @staticmethod
    def _stack(g):
        """Pairs (values, idle): vector, semitrivial either way, with an
        idle component named or not, and zero pairs of either sign."""
        rng = np.random.default_rng(g.n)
        a, b = random_pair(g, rng), random_pair(g, rng)
        zero = g.zeros()
        pairs = [(a.u.values, a.v.values, None), (b.u.values, zero, 1),
                 (zero, b.v.values, 0), (a.u.values * 3.0, zero, None),
                 (b.u.values, a.v.values, 1), (zero, zero, 0),
                 (-zero, -zero, None), (a.v.values, zero, 1)]
        u, v, idle = zip(*pairs)
        return np.stack(u), np.stack(v), list(idle)

    @pytest.mark.parametrize("cfg_name", ["coupled_cfg", "decoupled_cfg",
                                          "mixed_cfg"])
    @pytest.mark.parametrize("dimension, n", [(1, 17), (2, 17), (2, 33)])
    def test_loads_match_per_pair_calls(self, cfg_name, dimension, n,
                                        request):
        mf = ModelFunctions(request.getfixturevalue(cfg_name))
        g = Grid(dimension, n)
        u, v, _ = self._stack(g)
        fu, fv = stacked_loads(g, u, v, mf)
        for s in range(len(u)):
            ref = dJ_loads(FieldPair(GridFunction(g, u[s]),
                                     GridFunction(g, v[s])), mf)
            assert fu[s].tobytes() == ref[0].tobytes()
            assert fv[s].tobytes() == ref[1].tobytes()

    @pytest.mark.parametrize("cfg_name", ["coupled_cfg", "decoupled_cfg",
                                          "mixed_cfg"])
    @pytest.mark.parametrize("dimension, n", [(1, 17), (2, 17), (2, 33)])
    def test_jacobians_match_per_pair_calls(self, cfg_name, dimension, n,
                                            request):
        # each pair decides alone whether it forms one block or the pair:
        # a coupled vector pair keeps the pair with an idle component named
        mf = ModelFunctions(request.getfixturevalue(cfg_name))
        g = Grid(dimension, n)
        u, v, idle = self._stack(g)
        jacs = stacked_jacobians(g, u, v, mf, idle)
        for s, jac in enumerate(jacs):
            ref = pair_jacobian(FieldPair(GridFunction(g, u[s]),
                                          GridFunction(g, v[s])), mf, idle[s])
            assert jac.shape == ref.shape
            assert jac.tobytes() == ref.tobytes()
        # each Jacobian owns its memory, so one kept alive keeps no other
        assert all(jac.base is None for jac in jacs)


class TestHourglassModes:
    def test_smallest_pencil_eigenvalue_decays_as_h_squared(
            self, decoupled_cfg):
        # one-point quadrature on bilinear cells leaves the hourglass modes
        # of Flanagan and Belytschko (Int. J. Numer. Methods Eng. 17, 1981)
        # almost unseen by J, while the exact stiffness K sees them: the
        # smallest eigenvalue of the pencil (u-block of J''(0), K) falls
        # as h^2 and more eigenvalues drop below 0.1 as the grid refines.
        # This pins the defect of the current quadrature; it is no target.
        mf = ModelFunctions(decoupled_cfg)
        smallest, below = [], []
        for n in (9, 17, 33):
            g = Grid(2, n)
            m = (n - 2) ** 2
            jac = assemble_jacobian(g, pair_jacobian(FieldPair.zero(g), mf))
            K = assemble_jacobian(g, g.element_stiffness)
            lam = scipy.linalg.eigh(jac[:m, :m], K, eigvals_only=True)
            smallest.append(lam[0])
            below.append(int(np.sum(lam < 0.1)))
        assert smallest[0] == pytest.approx(0.2122, abs=1e-4)
        ratios = np.array(smallest[:-1]) / np.array(smallest[1:])
        assert np.all((3.5 <= ratios) & (ratios <= 4.5))
        assert below == [0, 1, 8]


class TestGradientRepresentative:
    def test_residual_consistency(self, coupled_cfg):
        """dJ applied to the representative equals the squared residual."""
        g = Grid(2, 17)
        mf = ModelFunctions(coupled_cfg)
        fp = random_pair(g, np.random.default_rng(8))
        rep, res = gradient_representative(fp, mf)
        assert dJ_apply(fp, rep, mf) == pytest.approx(res ** 2, rel=1e-8)

    @pytest.mark.parametrize("dimension", [1, 2])
    @pytest.mark.parametrize("semitrivial", [False, True])
    def test_one_solve_of_the_stacked_loads(self, coupled_cfg, dimension,
                                            semitrivial, monkeypatch):
        # reference: one Laplacian solve per component; the two loads
        # take one solve of their stack, each row bitwise as alone
        g = Grid(dimension, 17)
        mf = ModelFunctions(coupled_cfg)
        fp = random_pair(g, np.random.default_rng(10))
        if semitrivial:
            fp = FieldPair(fp.u, GridFunction.zero(g))
        fu, fv = dJ_loads(fp, mf)
        ru, rv = g.laplacian_solve(fu), g.laplacian_solve(fv)
        solve, shapes = Grid.laplacian_solve, []
        monkeypatch.setattr(Grid, "laplacian_solve", lambda self, rhs: (
            shapes.append(rhs.shape) or solve(self, rhs)))
        rep, res = gradient_representative(fp, mf)
        assert shapes == [(2,) + g.node_shape]
        assert rep.u.values.tobytes() == ru.tobytes()
        assert rep.v.values.tobytes() == rv.tobytes()
        assert res == np.sqrt(max(float(np.sum(fu * ru) + np.sum(fv * rv)),
                                  0.0))

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
