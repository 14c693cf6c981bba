import numpy as np
import pytest

from quasivar import Grid, GridFunction, first_eigenpair, rayleigh_quotient
from quasivar.eigen import _normalize


class TestLinearEigenpair:
    def test_1d_first_eigenvalue(self):
        pair = first_eigenpair(2.0, Grid(1, 1025))
        assert pair.converged
        assert pair.lambda1 == pytest.approx(np.pi ** 2, rel=1e-3)

    def test_2d_first_eigenvalue(self):
        pair = first_eigenpair(2.0, Grid(2, 129))
        assert pair.converged
        assert pair.lambda1 == pytest.approx(2 * np.pi ** 2, rel=1e-2)

    def test_rayleigh_quotient_consistency(self):
        pair = first_eigenpair(2.0, Grid(2, 65))
        assert abs(rayleigh_quotient(pair.phi1, 2.0) - pair.lambda1) < 1e-10

    @pytest.mark.parametrize("dimension, n", [(1, 1025), (1, 17), (2, 129),
                                              (2, 17)])
    def test_closed_form_discrete_eigenvalue(self, dimension, n):
        # the stiffness and the midpoint mass are both diagonal in the
        # sine basis, so the bubble is an exact discrete eigenvector
        g = Grid(dimension, n)
        pair = first_eigenpair(2.0, g)
        exact = 4 * dimension / g.h ** 2 * np.tan(np.pi * g.h / 2) ** 2
        assert pair.converged
        assert pair.iterations == 1
        assert pair.lambda1 == pytest.approx(exact, rel=1e-12, abs=0.0)

    def test_eigenfunction_positive_normalized(self):
        g = Grid(1, 257)
        pair = first_eigenpair(2.0, g)
        interior = ~g.boundary_mask()
        assert np.all(pair.phi1.values[interior] > 0.0)
        m = g.midpoint_values(pair.phi1.values)
        lp = (np.sum(np.abs(m) ** 2) * g.cell_volume) ** 0.5
        assert lp == pytest.approx(1.0, abs=1e-12)


class TestNonlinearEigenpair:
    def test_p_15_converges(self):
        pair = first_eigenpair(1.5, Grid(2, 33))
        assert pair.converged
        assert pair.lambda1 > 0.0
        assert abs(rayleigh_quotient(pair.phi1, 1.5) - pair.lambda1) < 1e-10

    def test_p_3_converges(self):
        pair = first_eigenpair(3.0, Grid(2, 33))
        assert pair.converged
        assert pair.lambda1 > 0.0

    def test_quotient_is_minimal_against_trials(self):
        # the first eigenvalue is the infimum of the quotient: no trial
        # field may beat the computed minimizer
        g = Grid(2, 33)
        pair = first_eigenpair(1.5, g)
        rng = np.random.default_rng(0)
        for _ in range(10):
            vals = rng.standard_normal(g.node_shape)
            vals[g.boundary_mask()] = 0.0
            trial = GridFunction(g, vals)
            assert rayleigh_quotient(trial, 1.5) >= pair.lambda1 - 1e-9

    def test_unregularized_even_grid_stays_finite(self):
        # on an even grid the bubble's centre cell has zero gradient, where
        # the unregularized flux factor |xi|^{p-2} takes the zero rule
        pair = first_eigenpair(1.5, Grid(2, 18), epsilon_reg=0.0)
        assert pair.converged
        assert np.isfinite(pair.lambda1) and pair.lambda1 > 0.0
        assert np.all(np.isfinite(pair.phi1.values))

    def test_rejects_p_at_most_one(self):
        with pytest.raises(ValueError):
            first_eigenpair(1.0, Grid(1, 33))

    @pytest.mark.parametrize("call, message", [
        (rayleigh_quotient, "rayleigh_quotient of the zero field"),
        (_normalize, "cannot normalize the zero field")])
    def test_zero_field_raises(self, call, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            call(GridFunction.zero(Grid(2, 9)), 1.5)

    def test_deterministic(self):
        a = first_eigenpair(1.5, Grid(2, 17))
        b = first_eigenpair(1.5, Grid(2, 17))
        assert a.lambda1 == b.lambda1
        assert np.array_equal(a.phi1.values, b.phi1.values)
