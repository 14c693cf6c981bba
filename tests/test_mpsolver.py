import dataclasses
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.fft import dstn, idstn
from scipy.sparse.linalg import splu

from quasivar import (FieldPair, Grid, GridFunction, ModelFunctions,
                      NoNegativeEnergyError, NonFiniteEnergyError,
                      SolverParams, certify_geometry,
                      ell_norm, first_eigenpair, j_value,
                      mountain_pass_search, multiplicity_search, pair_norm_W,
                      scale_to_ell, verify_candidate)
import quasivar
from quasivar import mpsolver
from quasivar.grid import random_field_pair, sine_modes, sine_product
from quasivar.energy import dJ_jacobian, dJ_loads, residual_norm
from quasivar.mpsolver import (_lm_step, _polish_candidate,
                               _scale_until_negative, _structured_start,
                               _with_endpoint)

from oracles import model_ground_state, model_k_bump, power_law_root
from util import assemble_jacobian, kron_stiffness


@pytest.fixture(scope="module")
def grid_1d():
    return Grid(1, 257)


@pytest.fixture(scope="module")
def solved_1d(decoupled_cfg_1d, grid_1d):
    cert = certify_geometry(decoupled_cfg_1d, grid_1d, 0.1,
                            n_samples=64, seed=0)
    cand = mountain_pass_search(decoupled_cfg_1d, grid_1d, cert)
    return cert, cand


def _count_calls(monkeypatch, *names):
    """Count the calls mpsolver makes to the named functions."""
    counts = dict.fromkeys(names, 0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in names:
        monkeypatch.setattr(mpsolver, name,
                            counted(name, getattr(mpsolver, name)))
    return counts


def _record_bands(monkeypatch):
    """Record (order, kl, ku) of every banded matrix mpsolver factors."""
    bands = []
    dgbsv = mpsolver.dgbsv

    def recorded(kl, ku, ab, b, **kwargs):
        bands.append((ab.shape[1], kl, ku))
        return dgbsv(kl, ku, ab, b, **kwargs)

    monkeypatch.setattr(mpsolver, "dgbsv", recorded)
    return bands


def _kron_damping(dimension, n, pair):
    """The stencil K of kron_stiffness or, for the pair, blockdiag(K, K)
    with u_i at 2i and v_i at 2i + 1."""
    K = kron_stiffness(dimension, n)
    if not pair:
        return K
    damping = sp.kron(K, sp.identity(2), format="csc")
    damping.eliminate_zeros()  # kron stores the products with the zeros
    return damping


def _band(matrix, kl):
    """A sparse matrix's entries in the raveled LAPACK band array of
    ``_band_layout``: (i, j) at 2 kl + i - j + j (3 kl + 1)."""
    coo = matrix.tocoo()
    out = np.zeros((coo.shape[1], 3 * kl + 1))
    out[coo.col, 2 * kl + coo.row - coo.col] = coo.data
    return out.ravel()


def _ridge_point(endpoint, mf):
    """The energy maximum of the 33-point straight path to endpoint."""
    path = [endpoint * (k / 32) for k in range(33)]
    return path[int(np.argmax([j_value(p, mf) for p in path]))]


@pytest.fixture(scope="module")
def coupled_start(coupled_cfg):
    """Coupled 2D n=33 model, seed-0 certificate and bubble values b."""
    g = Grid(2, 33)
    mf = ModelFunctions(coupled_cfg)
    cert = certify_geometry(coupled_cfg, g, 0.1, n_samples=64, seed=0, mf=mf)
    return mf, cert, _structured_start(g, 0).u


def _sine_start_by_coordinates(g, index):
    """The sine starts as built before the sine_modes table: sines of the
    node coordinates, the bubble through from_callable."""
    if index is None:  # the bubble of first_eigenpair
        if g.dimension == 1:
            return GridFunction.from_callable(
                g, lambda x: np.sin(np.pi * x)).values
        return GridFunction.from_callable(
            g, lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y)).values
    if g.dimension == 1:
        x = g.node_coords()[:, 0]
        vals = np.sin((index + 1) * np.pi * x)
    else:
        modes = [(1, 1), (2, 1), (1, 2), (2, 2), (3, 1), (1, 3), (3, 3)]
        kx, ky = modes[index % len(modes)]
        coords = g.node_coords()
        x = coords[:, 0].reshape(g.node_shape)
        y = coords[:, 1].reshape(g.node_shape)
        vals = np.sin(kx * np.pi * x) * np.sin(ky * np.pi * y)
    vals = vals.reshape(g.node_shape).copy()
    vals[g.boundary_mask()] = 0.0
    return vals


class TestSineStarts:
    @pytest.mark.parametrize("n", [3, 17, 33, 65])
    @pytest.mark.parametrize("dimension", [1, 2])
    def test_sine_table_matches_coordinate_sines(self, dimension, n):
        # every start and the eigen bubble come from the sine_modes table;
        # the fields must not move a bit, since the reference levels of
        # the multi-start search depend on them
        g = Grid(dimension, n)
        for index in range(7 if dimension == 2 else 4):
            start = _structured_start(g, index)
            assert (start.u.values.tobytes()
                    == _sine_start_by_coordinates(g, index).tobytes())
            assert not np.any(start.v.values)
        bubble = sine_product(g, *(1,) * dimension)
        assert (bubble.values.tobytes()
                == _sine_start_by_coordinates(g, None).tobytes())
        assert np.array_equal(bubble.values, _structured_start(g, 0).u.values)
        if dimension == 2:  # the seven 2D modes cycle
            assert np.array_equal(_structured_start(g, 7).u.values,
                                  _structured_start(g, 0).u.values)


class TestFindEndpoint:
    """The endpoint a certificate carries: the bubble ray scaled to J < -1."""

    def test_endpoint_is_the_scaled_bubble(self, coupled_cfg):
        g = Grid(2, 17)
        mf = ModelFunctions(coupled_cfg)
        cert = certify_geometry(coupled_cfg, g, 0.1, n_samples=8, seed=0,
                                mf=mf)
        bubble, _ = _scale_until_negative(_structured_start(g, 0), mf)
        assert np.array_equal(cert.endpoint.u.values, bubble.u.values)
        assert np.all(cert.endpoint.v.values == 0.0)

    def test_negative_level_2d(self, decoupled_cfg):
        g = Grid(2, 65)
        mf = ModelFunctions(decoupled_cfg)
        e = certify_geometry(decoupled_cfg, g, 0.1, n_samples=8, seed=0,
                             mf=mf).endpoint
        assert j_value(e, mf) < -1.0
        # the energy keeps falling past the returned scale
        assert j_value(2.0 * e, mf) < j_value(e, mf)

    def test_no_nonlinearity_fails(self, decoupled_cfg):
        # with the nonlinearity removed J >= 0 along the ray, so no
        # doubling can reach negative energy
        g = Grid(2, 33)
        mf = ModelFunctions(decoupled_cfg)
        mf.G_eval = lambda u, v: np.zeros_like(np.asarray(u))
        ray_densities = mf.ray_densities

        def no_g_terms(um, ug, vm, vg):
            # the last three of the seven ray terms are those of G
            exponents, densities = ray_densities(um, ug, vm, vg)
            return exponents, densities[:4] + tuple(
                np.zeros_like(d) for d in densities[4:])

        mf.ray_densities = no_g_terms
        with pytest.raises(NoNegativeEnergyError):
            _scale_until_negative(_structured_start(g, 0), mf)
        cert = certify_geometry(decoupled_cfg, g, 0.1, n_samples=8, seed=0,
                                mf=mf)
        assert cert.endpoint is None
        assert not cert.validated

    def test_inconsistent_bundle_raises(self, coupled_cfg):
        # G_eval is replaced but the inherited ray_densities is not, so the
        # closed form along a ray no longer matches j_value
        g = Grid(2, 17)
        mf = ModelFunctions(coupled_cfg)
        G_eval = mf.G_eval
        mf.G_eval = lambda u, v: 2.0 * G_eval(u, v)
        with pytest.raises(ValueError, match="ray_densities"):
            _scale_until_negative(_structured_start(g, 0), mf)
        with pytest.raises(ValueError, match="ray_densities"):
            certify_geometry(coupled_cfg, g, 0.1, n_samples=8, seed=0, mf=mf)

    @pytest.mark.parametrize("dimension", [1, 2])
    @pytest.mark.parametrize("cfg_name", ["coupled_cfg", "mixed_cfg"])
    def test_overflowing_start_raises(self, cfg_name, dimension, request):
        # |u|^q1 overflows at this amplitude, as it does in j_value
        mf = ModelFunctions(request.getfixturevalue(cfg_name))
        start = _structured_start(Grid(dimension, 17), 0) * 1e60
        with pytest.raises(NonFiniteEnergyError):
            _scale_until_negative(start, mf)


class TestScaleToEll:
    def test_hits_radius(self, coupled_cfg):
        g = Grid(2, 17)
        rng = np.random.default_rng(0)
        vals = rng.standard_normal(g.node_shape)
        vals[g.boundary_mask()] = 0.0
        fp = FieldPair(GridFunction(g, vals), GridFunction.zero(g))
        for r0 in (0.1, 1.0, 7.3):
            scaled = scale_to_ell(fp, coupled_cfg, r0)
            assert abs(ell_norm(scaled, coupled_cfg) - r0) <= 1e-8 * r0

    def test_rejects_zero_pair(self, coupled_cfg):
        with pytest.raises(ValueError):
            scale_to_ell(FieldPair.zero(Grid(2, 9)), coupled_cfg, 0.1)

    @given(s1=st.sampled_from((0.0, 0.5, 1.0, 2.0)),
           s2=st.sampled_from((0.0, 0.5, 1.0, 2.0)),
           p1=st.sampled_from((1.5, 2.0, 3.0)),
           p2=st.sampled_from((1.5, 2.0, 3.0)),
           vanishing=st.sampled_from((None, "u", "v")),
           amplitude=st.floats(1e-3, 1e3),
           r0=st.sampled_from((0.05, 0.1, 1.0, 7.3, 100.0)),
           seed=st.integers(0, 10 ** 6))
    @settings(max_examples=80, deadline=None)
    def test_fibering_scale_hits_radius(self, coupled_cfg, s1, s2, p1, p2,
                                        vanishing, amplitude, r0, seed):
        cfg = dataclasses.replace(coupled_cfg, s1=s1, s2=s2, p1=p1, p2=p2)
        g = Grid(2, 17)
        fp = random_field_pair(g, np.random.default_rng(seed),
                               sine_modes(g, 4)) * amplitude
        if vanishing == "u":
            fp = FieldPair(GridFunction.zero(g), fp.v)
        elif vanishing == "v":
            fp = FieldPair(fp.u, GridFunction.zero(g))
        scaled = scale_to_ell(fp, cfg, r0)
        assert abs(ell_norm(scaled, cfg) / r0 - 1.0) <= 1e-12

    @pytest.mark.parametrize("amplitude", [1e-100, 1e100])
    def test_hits_radius_where_the_power_map_leaves_float_range(
            self, coupled_cfg, amplitude):
        # at 1e-100 the power-mapped gradients underflow to 0, at 1e100
        # they overflow to inf
        g = Grid(2, 17)
        fp = random_field_pair(g, np.random.default_rng(3),
                               sine_modes(g, 4)) * amplitude
        scaled = scale_to_ell(fp, coupled_cfg, 0.1)
        assert abs(ell_norm(scaled, coupled_cfg) / 0.1 - 1.0) <= 1e-12

    @pytest.mark.parametrize("r0", [0.05, 7.3, 100.0])
    @pytest.mark.parametrize("s1, s2", [(1.0, 2.0), (2.0, 1.0), (0.0, 0.5)])
    def test_mixed_scales_match_reference_root(self, coupled_cfg, s1, s2,
                                               r0):
        # one call on a block of rays: random coefficients, a zero b1 and
        # a zero b2, b ratios of 1e+-250, and a lone b so small that
        # tau0^e of the absent term overflows
        b = 10.0 ** np.random.default_rng(0).uniform(-3.0, 3.0, (2, 40))
        b[0, 0] = b[1, 1] = 0.0
        extreme = [(1.0, 1e250), (1e250, 1.0), (1.0, 1e-250), (1e-250, 1.0),
                   (1e125, 1e-125), (1e-125, 1e125), (1e-250, 0.0),
                   (0.0, 1e-250)]
        b1, b2 = np.hstack([b, np.transpose(extreme)])
        # r0/a exceeds every root, so the power-law branch sets the scale
        a = np.full(b1.shape, 1e-300)
        cfg = dataclasses.replace(coupled_cfg, s1=s1, s2=s2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tau = mpsolver._ell_scales(a, b1, b2, cfg, r0)
        ref = [power_law_root(x1, s1 + 1.0, x2, s2 + 1.0, r0)
               for x1, x2 in zip(b1, b2)]
        assert np.max(np.abs(tau / ref - 1.0)) <= 1e-14


def test_import_leaves_out_scipy_optimize():
    # no part of the package needs a root finder; scipy.optimize would add
    # a tenth of a second or more to the import
    env = dict(os.environ, PYTHONPATH=os.path.dirname(
        os.path.dirname(quasivar.__file__)))
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, quasivar; print('scipy.optimize' in sys.modules)"],
        capture_output=True, text=True, check=True, env=env)
    assert out.stdout.strip() == "False"


def _per_mode_field(grid, rng, n_modes):
    """Reference: the per-mode loop certify drew its samples with."""
    coeffs = rng.standard_normal((n_modes,) * grid.dimension)
    vals = grid.zeros()
    if grid.dimension == 1:
        x = grid.node_coords()[:, 0]
        for k in range(n_modes):
            vals += coeffs[k] * np.sin((k + 1) * np.pi * x)
    else:
        coords = grid.node_coords()
        x = coords[:, 0].reshape(grid.node_shape)
        y = coords[:, 1].reshape(grid.node_shape)
        for kx in range(n_modes):
            for ky in range(n_modes):
                vals += coeffs[kx, ky] * np.sin((kx + 1) * np.pi * x) \
                    * np.sin((ky + 1) * np.pi * y)
    vals[grid.boundary_mask()] = 0.0
    return vals


@pytest.mark.parametrize("dimension, n_modes", [(1, 3), (1, 4), (2, 3),
                                                (2, 4)])
def test_random_pair_matches_per_mode_loop(dimension, n_modes):
    g = Grid(dimension, 65)
    modes = sine_modes(g, n_modes)
    rng, ref_rng = np.random.default_rng(11), np.random.default_rng(11)
    for _ in range(8):
        fp = random_field_pair(g, rng, modes)
        for gf in (fp.u, fp.v):
            ref = _per_mode_field(g, ref_rng, n_modes)
            assert np.all(gf.values[g.boundary_mask()] == 0.0)
            assert np.max(np.abs(gf.values - ref)) <= 1e-14 * np.max(np.abs(ref))


def _per_sample_certify(cfg, grid, r0, n_samples, seed, mf):
    """Reference: the per-sample loop certify sampled the sphere with."""
    rng = np.random.default_rng(seed)
    modes = sine_modes(grid, 4)
    rho0, best = np.inf, None
    for _ in range(n_samples):
        sample = scale_to_ell(random_field_pair(grid, rng, modes), cfg, r0)
        val = j_value(sample, mf)
        if val < rho0:
            rho0, best = val, sample
    return rho0, best


def _bisected_endpoint(field0, mf):
    """Reference: the doubling and bisection on j_value of the endpoint."""
    tau = 1.0
    while j_value(field0 * tau, mf) >= -1.0:
        tau *= 2.0
    lo, hi = tau / 2.0, tau
    for _ in range(30):
        mid = 0.5 * (lo + hi)
        if j_value(field0 * mid, mf) < -1.0:
            hi = mid
        else:
            lo = mid
    return field0 * hi


class TestCertifyGeometry:
    # 33 samples are 30 + 3 blocks on the 2D n=33 grid and 32 + 1 on the
    # 1D n=1025 grid
    @pytest.mark.parametrize("seed", [0, 1000003])
    @pytest.mark.parametrize("n_samples", [1, 7, 33])
    @pytest.mark.parametrize("dimension, n", [(1, 1025), (2, 33)])
    @pytest.mark.parametrize("cfg_name", ["coupled_cfg", "decoupled_cfg"])
    def test_matches_per_sample_loop(self, cfg_name, dimension, n, n_samples,
                                     seed, request):
        cfg = request.getfixturevalue(cfg_name)
        g = Grid(dimension, n)
        mf = ModelFunctions(cfg)
        cert = certify_geometry(cfg, g, 0.1, n_samples=n_samples, seed=seed,
                                mf=mf)
        rho0, best = _per_sample_certify(cfg, g, 0.1, n_samples, seed, mf)
        assert cert.rho0 == pytest.approx(rho0, rel=1e-14)
        for got, ref in ((cert.min_sample.u, best.u),
                         (cert.min_sample.v, best.v)):
            assert (np.max(np.abs(got.values - ref.values))
                    <= 1e-14 * np.max(np.abs(ref.values)))
        endpoint = _bisected_endpoint(_structured_start(g, 0), mf)
        assert np.array_equal(cert.endpoint.u.values, endpoint.u.values)
        assert np.array_equal(cert.endpoint.v.values, endpoint.v.values)

    @pytest.mark.parametrize("n_samples", [1, 33])
    @pytest.mark.parametrize("dimension, n", [(1, 1025), (2, 33)])
    def test_mixed_min_sample_on_sphere(self, mixed_cfg, dimension, n,
                                        n_samples):
        # s1 != s2: each sample's scale is a Newton root
        cert = certify_geometry(mixed_cfg, Grid(dimension, n), 0.1,
                                n_samples=n_samples, seed=0)
        assert ell_norm(cert.min_sample, mixed_cfg) == pytest.approx(
            0.1, rel=1e-12)

    def test_decoupled_validates(self, decoupled_cfg):
        g = Grid(2, 33)
        cert = certify_geometry(decoupled_cfg, g, 0.1, n_samples=256, seed=0)
        assert cert.validated
        assert cert.rho0 > 0.0
        assert cert.endpoint_level < -1.0
        assert ell_norm(cert.endpoint, decoupled_cfg) > cert.r0

    def test_huge_radius_fails(self, decoupled_cfg):
        g = Grid(2, 33)
        cert = certify_geometry(decoupled_cfg, g, 1e3, n_samples=32, seed=0)
        assert not cert.validated
        assert cert.rho0 <= 0.0

    def test_rejects_nonpositive_radius(self, decoupled_cfg):
        with pytest.raises(ValueError):
            certify_geometry(decoupled_cfg, Grid(2, 9), 0.0)

    def test_rejects_no_samples(self, decoupled_cfg):
        # with no sample rho0 stays infinite: nothing was certified
        with pytest.raises(ValueError):
            certify_geometry(decoupled_cfg, Grid(2, 9), 0.1, n_samples=0)

    def test_deterministic(self, decoupled_cfg):
        g = Grid(2, 17)
        a = certify_geometry(decoupled_cfg, g, 0.1, n_samples=32, seed=5)
        b = certify_geometry(decoupled_cfg, g, 0.1, n_samples=32, seed=5)
        assert a.rho0 == b.rho0


class TestMountainPassSearch:
    def test_matches_shooting_oracle(self, solved_1d, grid_1d):
        cert, cand = solved_1d
        assert cand.converged
        assert cand.residual <= 1e-6
        assert cand.level > 0.0
        x = grid_1d.node_coords()[:, 0]
        oracle = model_ground_state(x)
        assert np.max(np.abs(cand.fields.u.values - oracle)) < 1e-3
        assert np.all(cand.fields.v.values == 0.0)

    def test_level_dominates_sphere_minimum(self, solved_1d):
        cert, cand = solved_1d
        assert cand.level >= cert.rho0 - 1e-6

    def test_negation_symmetry(self, solved_1d, decoupled_cfg_1d, grid_1d):
        _, cand = solved_1d
        mf = ModelFunctions(decoupled_cfg_1d)
        rec = verify_candidate(cand, decoupled_cfg_1d, grid_1d, mf)
        neg = dataclasses.replace(cand, fields=-cand.fields)
        rec_neg = verify_candidate(neg, decoupled_cfg_1d, grid_1d, mf)
        assert rec_neg.level == rec.level
        assert rec_neg.residual == pytest.approx(rec.residual, rel=1e-9, abs=1e-12)

    def test_requires_validated_certificate(self, decoupled_cfg):
        g = Grid(2, 17)
        cert = certify_geometry(decoupled_cfg, g, 1e3, n_samples=8, seed=0)
        with pytest.raises(ValueError):
            mountain_pass_search(decoupled_cfg, g, cert)

    @pytest.mark.parametrize("points", [0, 1, 2])
    def test_rejects_fewer_than_three_path_points(self, decoupled_cfg_1d,
                                                  grid_1d, solved_1d,
                                                  points, monkeypatch):
        # one point would divide by zero in tau = k / (points - 1), and two
        # put the ridge point at the origin; the CLI enforces the same bound
        cert, _ = solved_1d
        counts = _count_calls(monkeypatch, "_polish_candidate")
        with pytest.raises(ValueError, match="path_points"):
            mountain_pass_search(decoupled_cfg_1d, grid_1d, cert,
                                 SolverParams(path_points=points))
        assert counts["_polish_candidate"] == 0

    def test_deterministic_replay(self, decoupled_cfg_1d, grid_1d):
        def run():
            cert = certify_geometry(decoupled_cfg_1d, grid_1d, 0.1,
                                    n_samples=16, seed=1)
            return mountain_pass_search(decoupled_cfg_1d, grid_1d, cert)
        a, b = run(), run()
        assert a.level == b.level
        assert np.array_equal(a.fields.u.values, b.fields.u.values)


@pytest.fixture(scope="module")
def coupled_polish(coupled_cfg, coupled_start):
    """Coupled 2D n=33, seed-0 search, with its Jacobian assemblies
    counted and the order and bandwidths of every banded factorization
    recorded."""
    _, cert, b = coupled_start
    with pytest.MonkeyPatch.context() as patch:
        counts = _count_calls(patch, "dJ_jacobian")
        bands = _record_bands(patch)
        coef_hessian = ModelFunctions.coef_hessian

        def counted(self, *args):
            counts["coef_hessian"] = counts.get("coef_hessian", 0) + 1
            return coef_hessian(self, *args)

        patch.setattr(ModelFunctions, "coef_hessian", counted)
        cand = mountain_pass_search(coupled_cfg, b.grid, cert,
                                    SolverParams(max_iters=500))
    return cand, counts, bands


class TestPolish:
    def test_first_ridge_point_polishes_to_reference_saddle(
            self, coupled_polish):
        # the exact Newton lands on the saddle from the first path maximum,
        # a move of about half the start norm, so one polish attempt does
        cand, *_ = coupled_polish
        assert cand.converged
        assert cand.iterations == 1
        assert round(cand.level, 4) == 6.9948

    def test_reference_saddle_step_counts(self, coupled_polish):
        # counts repeat exactly, so a polish that starts wasting Newton
        # steps or LM retries fails here without any timing
        _, counts, bands = coupled_polish
        assert counts["dJ_jacobian"] <= 9
        assert len(bands) <= 17
        # every iterate has v = 0, where the u-v coupling vanishes, so only
        # the u-block over the 31^2 interior nodes is factored, in grid
        # order: the 9-point stencil reaches 31 + 1 places away
        assert set(bands) == {(961, 32, 32)}

    def test_one_element_hessian_per_semitrivial_jacobian(self,
                                                          coupled_polish):
        # on {v = 0} only the u-block is factored, so only the u-component
        # Hessian is formed: one coef_hessian call per Jacobian, not two
        _, counts, _ = coupled_polish
        assert counts["dJ_jacobian"] >= 1
        assert counts["coef_hessian"] == counts["dJ_jacobian"]

    @pytest.mark.parametrize("cfg_name", ["coupled_cfg", "decoupled_cfg"])
    @pytest.mark.parametrize("mirror", [False, True])
    def test_one_block_jacobian_is_block_of_pair(self, cfg_name, mirror,
                                                 request):
        # at (3b, 0) and (0, 3b) the one-block element Jacobians equal the
        # moving block of the pair's bitwise, and so does the step: the
        # reference solves with that block sliced out of the pair's
        # element Jacobians
        mf = ModelFunctions(request.getfixturevalue(cfg_name))
        g = Grid(2, 17)
        b = _structured_start(g, 0).u
        fp = FieldPair(b * 0.0, b * 3.0) if mirror else FieldPair(b * 3.0,
                                                                  b * 0.0)
        interior = ~g.boundary_mask()
        f = np.concatenate([x[interior] for x in dJ_loads(fp, mf)])
        full = dJ_jacobian(fp, mf)
        c = full.shape[1] // 2
        block = np.ascontiguousarray(full[:, c:, c:] if mirror
                                     else full[:, :c, :c])
        jac = dJ_jacobian(fp, mf, int(not mirror))
        assert jac.shape == block.shape
        assert jac.tobytes() == block.tobytes()
        for mu in (0.0, 1e-3, 1.0):
            assert (_lm_step(jac, f, mu, g).tobytes()
                    == _lm_step(block, f, mu, g).tobytes())

    @pytest.mark.parametrize("cfg_name", ["coupled_cfg", "decoupled_cfg"])
    @pytest.mark.parametrize("mirror", [False, True])
    @pytest.mark.parametrize("mu", [0.0, 1e-3, 1.0])
    def test_one_block_step_matches_full_solve(self, cfg_name, mirror, mu,
                                               request, monkeypatch):
        # reference: splu on the full 2m system; on a semitrivial point
        # the restricted solve must agree and leave the idle component
        # exactly where it is
        mf = ModelFunctions(request.getfixturevalue(cfg_name))
        g = Grid(2, 17)
        fp = _structured_start(g, 1) * 3.0
        if mirror:
            fp = FieldPair(fp.v, fp.u)
        interior = ~g.boundary_mask()
        m = int(interior.sum())
        f = np.concatenate([x[interior] for x in dJ_loads(fp, mf)])
        moving, idle = ((slice(m, None), slice(None, m)) if mirror
                        else (slice(None, m), slice(m, None)))
        assert not np.any(f[idle]) and np.any(f[moving])
        jac = dJ_jacobian(fp, mf)
        K = assemble_jacobian(g, g.element_stiffness, sparse=True)
        damping = sp.block_diag((K, K), format="csc")
        ref = splu(assemble_jacobian(g, jac, sparse=True) + mu * damping,
                   permc_spec="MMD_AT_PLUS_A").solve(-f)
        bands = _record_bands(monkeypatch)
        step = _lm_step(dJ_jacobian(fp, mf, int(not mirror)), f, mu, g)
        assert bands == [(m, 16, 16)]
        assert not np.any(step[idle])
        assert np.max(np.abs(step - ref)) <= 1e-14 * np.max(np.abs(ref))

    @pytest.mark.parametrize("dimension, n", [(2, 17), (1, 65)])
    @pytest.mark.parametrize("mu", [0.0, 1e-3, 1.0])
    def test_interleaved_full_step_matches_splu(self, coupled_cfg,
                                                dimension, n, mu,
                                                monkeypatch):
        # reference: splu on the full 2m system in the u-then-v order; the
        # banded solve factors it with u and v interleaved.  Two LU orders
        # differ by about cond(J) eps; J here has cond about 4e2 (2D) and
        # 7e3 (1D)
        cfg = dataclasses.replace(coupled_cfg, N=dimension)
        mf = ModelFunctions(cfg)
        g = Grid(dimension, n)
        b = _structured_start(g, 0).u
        fp = FieldPair(b * 3.0, b * 1.5)
        interior = ~g.boundary_mask()
        m = int(interior.sum())
        f = np.concatenate([x[interior] for x in dJ_loads(fp, mf)])
        assert np.any(f[:m]) and np.any(f[m:])
        jac = dJ_jacobian(fp, mf)
        K = assemble_jacobian(g, g.element_stiffness, sparse=True)
        ref = splu(assemble_jacobian(g, jac, sparse=True)
                   + mu * sp.block_diag((K, K), format="csc"),
                   permc_spec="MMD_AT_PLUS_A").solve(-f)
        bands = _record_bands(monkeypatch)
        step = _lm_step(jac, f, mu, g)
        # interleaved, a neighbor k places away in one component sits
        # 2k + 1 places away in the other: bandwidth 2(n - 1) + 1 in 2D
        width = 2 * (n - 1 if dimension == 2 else 1) + 1
        assert bands == [(2 * m, width, width)]
        assert np.max(np.abs(step - ref)) <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize("one_block", [False, True])
    def test_singular_step_raises(self, one_block):
        # a zero Jacobian at mu = 0 has an exactly singular factor, which
        # the LM schedule treats as a rejected step
        g = Grid(2, 9)
        jac = np.zeros((g.num_cells, 8, 8))
        m = (g.n - 2) ** 2
        assert not np.any(assemble_jacobian(g, jac))
        f = np.ones(2 * m)
        if one_block:
            f[m:] = 0.0
            jac = jac[:, :4, :4]
        with pytest.raises(RuntimeError):
            _lm_step(jac, f, 0.0, g)

    @pytest.mark.parametrize("dimension", [1, 2])
    @pytest.mark.parametrize("n", [3, 5])
    @pytest.mark.parametrize("mu", [0.0, 1.0])
    @pytest.mark.parametrize("interleaved", [False, True])
    def test_band_scatter_matches_dense_assembly(self, coupled_cfg, dimension,
                                                 n, mu, interleaved,
                                                 monkeypatch):
        # reference: the dense np.add.at assembly plus mu blockdiag(K, K),
        # its u-block at (u, 0) or, at (u, v), the full matrix with u_i at
        # 2i and v_i at 2i + 1; the band array handed to dgbsv holds
        # exactly its entries, with the fill rows of the pivoting zero
        mf = ModelFunctions(dataclasses.replace(coupled_cfg, N=dimension))
        g = Grid(dimension, n)
        b = _structured_start(g, 0).u
        fp = FieldPair(b * 3.0, b * (1.5 if interleaved else 0.0))
        interior = ~g.boundary_mask()
        m = int(interior.sum())
        f = np.concatenate([x[interior] for x in dJ_loads(fp, mf)])
        jac = dJ_jacobian(fp, mf)
        dense = (assemble_jacobian(g, jac)
                 + mu * assemble_jacobian(
                     g, np.kron(np.eye(2), g.element_stiffness)))
        if interleaved:
            order = np.arange(2 * m).reshape(2, m).T.ravel()
            dense = dense[np.ix_(order, order)]
        else:
            dense = dense[:m, :m]
            jac = dJ_jacobian(fp, mf, 1)
        captured = []
        dgbsv = mpsolver.dgbsv

        def capture(kl, ku, ab, rhs, **kwargs):
            captured.append((kl, ku, ab.copy()))
            return dgbsv(kl, ku, ab, rhs, **kwargs)

        monkeypatch.setattr(mpsolver, "dgbsv", capture)
        _lm_step(jac, f, mu, g)
        [(kl, ku, ab)] = captured
        reach = n - 1 if dimension == 2 else 1
        assert kl == ku == (2 * reach + 1 if interleaved else reach)
        i, j = np.indices(dense.shape)
        inside = np.abs(i - j) <= kl
        assert not np.any(dense[~inside])
        expected = np.zeros((3 * kl + 1, dense.shape[0]))
        expected[2 * kl + i[inside] - j[inside], j[inside]] = dense[inside]
        assert np.array_equal(ab, expected)

    @pytest.mark.parametrize("dimension", [1, 2])
    @pytest.mark.parametrize("n", [3, 4, 12, 65])
    @pytest.mark.parametrize("pair", [False, True])
    def test_band_layout_holds_kron_stiffness(self, dimension, n, pair):
        # reference: the stencil K placed into band storage; the K entries
        # of _band_layout, one per band slot after the element slots, must
        # hold exactly its entries
        kl, slots, k_data = mpsolver._band_layout(dimension, n, 1 + pair)
        c = 2 ** dimension * (2 if pair else 1)
        k_slots = slots[Grid(dimension, n).num_cells * c * c:]
        assert k_slots.size == k_data.size
        assert np.unique(k_slots).size == k_slots.size
        expected = _band(_kron_damping(dimension, n, pair), kl)
        got = np.zeros_like(expected)
        got[k_slots] = k_data
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("dimension", [1, 2])
    @pytest.mark.parametrize("n", [3, 4, 12, 65])
    @pytest.mark.parametrize("pair", [False, True])
    @pytest.mark.parametrize("mu", [1e-3, 7.3])
    def test_damped_step_adds_kron_stiffness_after_jacobian(
            self, dimension, n, pair, mu, monkeypatch):
        # a damped try hands dgbsv, in every band slot, the sum of the
        # element Jacobians in cell order and then mu times the stencil
        # K's entry; the one block is u's, v's load being zero
        g = Grid(dimension, n)
        m = (n - 2) ** dimension
        c = 2 ** dimension * (2 if pair else 1)
        rng = np.random.default_rng(11)
        jac = rng.standard_normal((g.num_cells, c, c))
        f = rng.standard_normal(2 * m)
        J = assemble_jacobian(g, jac, sparse=True)
        if pair:
            order = np.arange(2 * m).reshape(2, m).T.ravel()
            J = J[order][:, order]
        else:
            f[m:] = 0.0
        captured = []
        dgbsv = mpsolver.dgbsv

        def capture(kl, ku, ab, rhs, **kwargs):
            captured.append((kl, ab.copy()))
            return dgbsv(kl, ku, ab, rhs, **kwargs)

        monkeypatch.setattr(mpsolver, "dgbsv", capture)
        _lm_step(jac, f, mu, g)
        [(kl, ab)] = captured
        expected = (_band(J, kl)
                    + mu * _band(_kron_damping(dimension, n, pair), kl))
        assert ab.T.ravel().tobytes() == expected.tobytes()

    def test_zero_load_skip_keeps_candidate(self, decoupled_cfg,
                                            monkeypatch):
        # reference: every Laplacian solve goes through the sine transform,
        # zero loads included; skipping the zero loads must not move a bit
        g = Grid(2, 17)
        mf = ModelFunctions(decoupled_cfg)
        cert = certify_geometry(decoupled_cfg, g, 0.1, n_samples=16, seed=0,
                                mf=mf)
        skipped = mountain_pass_search(decoupled_cfg, g, cert, mf=mf)
        inner = (slice(1, -1),) * g.dimension

        def always_solve(grid, rhs):
            out = grid.zeros()
            out[inner] = idstn(dstn(rhs[inner], type=1)
                               / grid.laplacian_eigenvalues(), type=1)
            return out

        monkeypatch.setattr(Grid, "laplacian_solve", always_solve)
        solved = mountain_pass_search(decoupled_cfg, g, cert, mf=mf)
        assert skipped.converged and solved.converged
        assert skipped.level == solved.level
        assert np.array_equal(skipped.fields.u.values, solved.fields.u.values)
        assert not np.any(skipped.fields.v.values)

    def test_mirror_start_polishes_to_mirror_saddle(self, decoupled_cfg,
                                                    monkeypatch):
        # (0, b) is the mirror of (b, 0): it polishes to the same level
        # with u exactly 0, factoring only the v-block
        g = Grid(2, 17)
        mf = ModelFunctions(decoupled_cfg)
        cert = certify_geometry(decoupled_cfg, g, 0.1, n_samples=16, seed=0,
                                mf=mf)
        start = _structured_start(g, 0)
        cands = []
        for fp in (start, FieldPair(start.v, start.u)):
            bands = _record_bands(monkeypatch)
            cands.append(mountain_pass_search(
                decoupled_cfg, g, _with_endpoint(cert, fp, decoupled_cfg, mf),
                SolverParams(max_iters=300), mf))
            assert bands and set(bands) == {(225, 16, 16)}
        ucand, vcand = cands
        assert ucand.converged and vcand.converged
        assert vcand.level == pytest.approx(ucand.level, rel=1e-12)
        assert not np.any(ucand.fields.v.values)
        assert not np.any(vcand.fields.u.values)
        assert np.any(vcand.fields.v.values)

    def test_reaches_higher_mode_saddle_from_first_ridge_point(
            self, decoupled_cfg):
        # start 4 seeds the (3,1) sine mode; a step that only accepts a
        # decrease of max|K^-1 F| stalls there, pure Newton diverges
        g = Grid(2, 33)
        mf = ModelFunctions(decoupled_cfg)
        endpoint, _ = _scale_until_negative(_structured_start(g, 4), mf)
        refined = _polish_candidate(_ridge_point(endpoint, mf), mf, 1e-6)
        assert refined is not None
        assert residual_norm(refined, mf) <= 1e-6
        assert round(j_value(refined, mf), 4) == 2952.3134

    @pytest.mark.parametrize("cfg_name, amplitude",
                             [("coupled_cfg", 1e60), ("decoupled_cfg", 1e150)])
    def test_huge_amplitude_returns_none(self, cfg_name, amplitude, request):
        # the loads overflow at the starting point
        mf = ModelFunctions(request.getfixturevalue(cfg_name))
        g = Grid(2, 9)
        fp = random_field_pair(g, np.random.default_rng(0),
                               sine_modes(g, 3)) * amplitude
        assert _polish_candidate(fp, mf, 1e-6) is None

    def test_stagnating_polish_gives_up(self, coupled_cfg, coupled_start,
                                        monkeypatch):
        # from the (b, 0.2b) ridge point the residual energy creeps down by
        # 0-2% per step; without a stall exit all 500 steps run
        mf, cert, b = coupled_start
        endpoint = _with_endpoint(cert, FieldPair(b, b * 0.2), coupled_cfg,
                                  mf).endpoint
        counts = _count_calls(monkeypatch, "dJ_jacobian")
        assert _polish_candidate(_ridge_point(endpoint, mf), mf, 1e-6,
                                 max_iter=500) is None
        assert counts["dJ_jacobian"] <= 40


    @pytest.mark.parametrize("v_scale", [0.0, 2.0])
    def test_jacobian_takes_accepted_loads_pair(self, coupled_start, v_scale,
                                                monkeypatch):
        # each iterate's pair is built once: every dJ_jacobian call, and
        # the result, take the pair of the dJ_loads call just accepted
        mf, _, b = coupled_start
        calls = []

        def recorded(name, fn):
            def wrapper(fp, *args):
                calls.append((name, fp))
                return fn(fp, *args)
            return wrapper

        for name in ("dJ_loads", "dJ_jacobian"):
            monkeypatch.setattr(mpsolver, name,
                                recorded(name, getattr(mpsolver, name)))
        refined = _polish_candidate(FieldPair(b * 2.0, b * v_scale), mf, 1e-6)
        assert refined is not None
        jacobians = [k for k, (name, _) in enumerate(calls)
                     if name == "dJ_jacobian"]
        assert jacobians
        for k in jacobians:
            assert calls[k - 1][0] == "dJ_loads"
            assert calls[k][1] is calls[k - 1][1]
        assert calls[-1][0] == "dJ_loads"
        assert calls[-1][1] is refined


class TestSemitrivialFallback:
    """Polish attempts past the ridge point: (u, 0), then (0, v)."""

    @pytest.mark.parametrize("mirror", [False, True])
    def test_partial_start_reaches_semitrivial_saddle(
            self, coupled_cfg, coupled_start, mirror):
        # the polish of the (b, 0.5b) ridge point fails near v = 0, where
        # p2 < 2 makes B non-C^2; its projection (u, 0) polishes at once
        mf, cert, b = coupled_start
        fp = FieldPair(b * 0.5, b) if mirror else FieldPair(b, b * 0.5)
        cand = mountain_pass_search(
            coupled_cfg, b.grid, _with_endpoint(cert, fp, coupled_cfg, mf),
            mf=mf)
        rec = verify_candidate(cand, coupled_cfg, b.grid, mf)
        assert cand.converged and rec.semitrivial
        assert round(cand.level, 10) == 6.9947511641
        assert cand.provenance.endswith("(0, v)" if mirror else "(u, 0)")
        assert cand.iterations == (3 if mirror else 2)

    def test_unreachable_tol_ends_unconverged_quickly(self, coupled_cfg,
                                                      monkeypatch):
        # tol 1e-30 is below rounding: each attempt must stop at the stall
        # exit, not run its max_iters = 10000 Newton steps
        g = Grid(1, 13)
        cert = certify_geometry(coupled_cfg, g, 0.1, n_samples=256, seed=0)
        counts = _count_calls(monkeypatch, "dJ_jacobian")
        cand = mountain_pass_search(coupled_cfg, g, cert,
                                    SolverParams(tol=1e-30))
        assert not cand.converged
        assert counts["dJ_jacobian"] <= 50


class TestMultiplicity:
    def test_scales_one_ray_per_start(self, decoupled_cfg_1d, monkeypatch):
        # start 0 reuses the certificate's endpoint instead of scaling the
        # bubble ray a second time
        counts = _count_calls(monkeypatch, "_scale_until_negative")
        multiplicity_search(decoupled_cfg_1d, Grid(1, 33), 3,
                            n_geo_samples=4)
        assert counts["_scale_until_negative"] == 3

    def test_rejects_empty_seeds(self, decoupled_cfg_1d, monkeypatch):
        # the provenance labels read seeds[m % len(seeds)]
        counts = _count_calls(monkeypatch, "certify_geometry")
        with pytest.raises(ValueError, match="seeds"):
            multiplicity_search(decoupled_cfg_1d, Grid(1, 33), 1, seeds=[])
        assert counts["certify_geometry"] == 0

    def test_distinct_increasing_levels(self, decoupled_cfg_1d, grid_1d):
        cands = multiplicity_search(decoupled_cfg_1d, grid_1d, 4)
        assert len(cands) >= 2
        levels = [c.level for c in cands]
        assert all(b > a for a, b in zip(levels, levels[1:]))
        # candidates pairwise non-duplicate up to sign under the W metric
        p1, p2 = decoupled_cfg_1d.p1, decoupled_cfg_1d.p2
        for i in range(len(cands)):
            for j in range(i + 1, len(cands)):
                d1 = pair_norm_W(cands[i].fields - cands[j].fields, p1, p2)
                d2 = pair_norm_W(cands[i].fields + cands[j].fields, p1, p2)
                assert min(d1, d2) >= 1e-2

    def test_every_2d_start_polishes_to_its_own_saddle(self, decoupled_cfg):
        # the levels of the decoupled-multi benchmark workload, plus the
        # (3,1)/(1,3) pair reached from starts 4 and 5
        refs = (151.90911306065883, 872.5203201101558, 872.520320110156,
                2471.6422529317715, 2952.3134, 2952.3134, 12860.36752869386)
        cands = multiplicity_search(decoupled_cfg, Grid(2, 33), 7,
                                    seeds=range(7),
                                    params=SolverParams(max_iters=300))
        assert len(cands) == 7
        assert all(c.iterations == 1 for c in cands)
        for ref, cand in zip(refs, cands):
            assert cand.level == pytest.approx(ref, rel=1e-6)
        assert [round(c.level, 4) for c in cands[4:6]] == [2952.3134] * 2

    def test_drops_repeated_starts(self, decoupled_cfg):
        # 2D starts cycle through 7 sine modes, so starts 7 and 8 repeat
        # starts 0 and 1 and are dropped as duplicates
        cands = multiplicity_search(decoupled_cfg, Grid(2, 17), 9,
                                    n_geo_samples=16)
        starts = sorted(int(c.provenance.split("[")[1].split("]")[0])
                        for c in cands)
        assert starts == list(range(7))

    def test_modes_match_oracle_family(self, decoupled_cfg_1d, grid_1d):
        cands = multiplicity_search(decoupled_cfg_1d, grid_1d, 2)
        x = grid_1d.node_coords()[:, 0]
        for k, cand in enumerate(cands[:2], start=1):
            oracle = model_k_bump(x, k)
            err = min(np.max(np.abs(cand.fields.u.values - oracle)),
                      np.max(np.abs(cand.fields.u.values + oracle)))
            assert err < 5e-3

    def test_all_pass_verification(self, decoupled_cfg_1d, grid_1d):
        cands = multiplicity_search(decoupled_cfg_1d, grid_1d, 3)
        for cand in cands:
            rec = verify_candidate(cand, decoupled_cfg_1d, grid_1d)
            assert not rec.trivial
            assert rec.positive_level
            assert rec.cerami_residual <= 10 * 1e-6 * (
                1 + rec.nontriviality + rec.linf_u + rec.linf_v)


class TestEvaluationCounts:
    """Energy evaluations, counted instead of timed."""

    def test_certify_evaluates_two_energies(self, coupled_cfg, monkeypatch):
        # the samples and the endpoint ray are evaluated in closed form;
        # j_value gives rho0 and the endpoint level
        counts = _count_calls(monkeypatch, "j_value", "scale_to_ell")
        certify_geometry(coupled_cfg, Grid(2, 33), 0.1, n_samples=256)
        assert counts == {"j_value": 2, "scale_to_ell": 0}

    def test_multiplicity_energy_calls(self, decoupled_cfg_1d, monkeypatch):
        # 7 measured: rho0 and the endpoint level of the certificate, the
        # endpoint levels of starts 1 and 2, and one polished level per
        # start; the initial paths are evaluated in closed form
        counts = _count_calls(monkeypatch, "j_value")
        multiplicity_search(decoupled_cfg_1d, Grid(1, 33), 3,
                            n_geo_samples=4)
        assert counts["j_value"] <= 7


class TestVerifyCandidate:
    def test_zero_field_trivial(self, decoupled_cfg):
        from quasivar.mpsolver import CriticalPointCandidate
        g = Grid(2, 17)
        cand = CriticalPointCandidate(
            fields=FieldPair.zero(g), level=0.0, residual=0.0,
            nontriviality=0.0, linf_u=0.0, linf_v=0.0, iterations=0,
            converged=False)
        rec = verify_candidate(cand, decoupled_cfg, g)
        assert rec.trivial
        assert not rec.semitrivial
        assert rec.residual == 0.0
        assert rec.nontriviality == 0.0

    def test_reference_saddle_is_semitrivial(self, coupled_polish,
                                             coupled_cfg):
        # the bubble endpoint has v = 0, a set the search never leaves
        cand, *_ = coupled_polish
        rec = verify_candidate(cand, coupled_cfg, cand.fields.grid)
        assert rec.semitrivial
        assert not rec.trivial

    def test_vector_start_is_not_semitrivial(self, coupled_cfg,
                                             coupled_start, monkeypatch):
        mf, cert, b = coupled_start
        g = b.grid
        cert = _with_endpoint(cert, FieldPair(b, b), coupled_cfg, mf)
        bands = _record_bands(monkeypatch)
        cand = mountain_pass_search(coupled_cfg, g, cert,
                                    SolverParams(max_iters=500), mf)
        rec = verify_candidate(cand, coupled_cfg, g, mf)
        assert cand.converged
        # both components move, so the polish factors the full 2m system,
        # u and v interleaved
        assert bands and set(bands) == {(1922, 65, 65)}
        assert round(rec.level, 4) == 7.4693
        assert not rec.semitrivial
        assert not rec.trivial

    def test_cerami_weight(self, solved_1d, decoupled_cfg_1d, grid_1d):
        _, cand = solved_1d
        rec = verify_candidate(cand, decoupled_cfg_1d, grid_1d)
        assert rec.cerami_residual >= rec.residual
        assert rec.cerami_residual <= 10 * 1e-6 * (
            1 + rec.nontriviality + rec.linf_u + rec.linf_v)
        assert np.isfinite(rec.linf_u) and np.isfinite(rec.linf_v)


class TestEndpointScaling:
    def test_bisection_keeps_level_near_target(self, decoupled_cfg_1d, grid_1d):
        mf = ModelFunctions(decoupled_cfg_1d)
        eig = first_eigenpair(2.0, grid_1d)
        base = FieldPair(eig.phi1, GridFunction.zero(grid_1d))
        endpoint, level = _scale_until_negative(base, mf)
        assert level == j_value(endpoint, mf)
        assert -2.0 < level < -1.0
