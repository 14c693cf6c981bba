"""The in-place element arithmetic of the certify path.

The stencils, the gradient norms, the power maps, ``_pow`` and
``ray_densities`` do their arithmetic in arrays they allocate
themselves.  Each is compared byte for byte with an out-of-place copy of
the same operations, kept here as the reference; every input is
read-only, so a write into a caller's array raises.  Zero fields skip the
stencils, and one certify call stays within a memory bound.
"""

import tracemalloc

import numpy as np
import pytest

from quasivar import ExponentConfig, Grid, ModelFunctions, certify_geometry
from quasivar.grid import _gradient_norms, ell_coefficients, squared_magnitude
from quasivar.model import _pow

# every exponent on which ``**`` takes one of numpy's scalar fast paths:
# |ug|^2, |um|^0, |vm|^1, |um|^1, |vm|^2, |um|^0.5 and |vm|^-1 in
# ray_densities; the power maps |u|^0 u and |v|^0.5 v, and p = 2 and
# 1/p = 0.5 in the gradient norms
FAST_PATH_CFG = ExponentConfig(N=2, p1=2.0, p2=2.0, s1=0.0, s2=0.5,
                               q1=1.0, q2=2.0, gamma1=0.5, gamma2=-1.0,
                               theta1=1.0, theta2=0.5, c_star=1.0)
CFG_NAMES = ["coupled_cfg", "decoupled_cfg", "low_sp_cfg", "nondyadic_cfg",
             "fast_path"]
FAST_PATH_EXPONENTS = [0.0, 0.5, 1.0, 2.0, -1.0]

# peak traced memory of one certify_geometry call, coupled config, 2D
# n = 65, 32 samples: 1.60 MB measured with numpy 2.4.6 in blocks of 2^14
# nodes, at seeds 0 and 1000003 (3.77 MB in blocks of 2^15 with
# out-of-place arithmetic)
CERTIFY_PEAK_BOUND = 2.0e6


# -- out-of-place references --------------------------------------------------

def _squared_magnitude_ref(vec):
    out = vec[..., 0] * vec[..., 0]
    for k in range(1, vec.shape[-1]):
        out = out + vec[..., k] * vec[..., k]
    return out


def _midpoint_ref(grid, vals):
    if grid.dimension == 1:
        return 0.5 * (vals[..., :-1] + vals[..., 1:])
    return 0.25 * (vals[..., :-1, :-1] + vals[..., 1:, :-1]
                   + vals[..., :-1, 1:] + vals[..., 1:, 1:])


def _gradients_ref(grid, vals):
    h = grid.h
    if grid.dimension == 1:
        comps = [(vals[..., 1:] - vals[..., :-1]) / h]
    else:
        comps = [(vals[..., 1:, :-1] + vals[..., 1:, 1:]
                  - vals[..., :-1, :-1] - vals[..., :-1, 1:]) / (2 * h),
                 (vals[..., :-1, 1:] + vals[..., 1:, 1:]
                  - vals[..., :-1, :-1] - vals[..., 1:, :-1]) / (2 * h)]
    return np.stack(comps, axis=-1)


def _scatter_ref(grid, density, gradvec):
    vol = grid.cell_volume
    out = np.zeros(density.shape[:-grid.dimension] + grid.node_shape)
    t = 0.5 ** grid.dimension * vol * density
    for s in grid._slices:
        out[s] += t
    terms = ((gradvec * vol / (2 ** (grid.dimension - 1) * grid.h))
             @ grid._signs)
    for c, s in enumerate(grid._slices):
        out[s] += terms[..., c]
    out[..., grid.boundary_mask()] = 0.0
    return out


def _gradient_norms_ref(grid, grads, p):
    mag = np.sqrt(_squared_magnitude_ref(grads))
    return grid.cell_integrals(mag ** p) ** (1.0 / p)


def _ell_coefficients_ref(grid, u, v, ug, vg, cfg):
    return (_gradient_norms_ref(grid, ug, cfg.p1)
            + _gradient_norms_ref(grid, vg, cfg.p2),
            _gradient_norms_ref(grid, _gradients_ref(
                grid, np.abs(u) ** cfg.s1 * u), cfg.p1),
            _gradient_norms_ref(grid, _gradients_ref(
                grid, np.abs(v) ** cfg.s2 * v), cfg.p2))


def _pow_ref(t, e):
    a = np.abs(np.asarray(t, dtype=float))
    if e >= 0:
        return a ** e
    return np.where(a > 0, a, np.inf) ** e


def _ray_densities_ref(cfg, um, ug, vm, vg):
    gu = np.sqrt(_squared_magnitude_ref(ug)) ** cfg.p1 / cfg.p1
    gv = np.sqrt(_squared_magnitude_ref(vg)) ** cfg.p2 / cfg.p2
    coupling = (-cfg.c_star * _pow_ref(um, cfg.gamma1)
                * _pow_ref(vm, cfg.gamma2)
                if cfg.c_star > 0 else np.zeros_like(um, dtype=float))
    return (gu, _pow_ref(um, cfg.s1 * cfg.p1) * gu,
            gv, _pow_ref(vm, cfg.s2 * cfg.p2) * gv,
            -_pow_ref(um, cfg.q1) / cfg.q1, -_pow_ref(vm, cfg.q2) / cfg.q2,
            coupling)


# -- inputs -------------------------------------------------------------------

def _read_only(*arrays):
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _fields(grid, stacked, seed=0):
    """Read-only nodal u, v, one pair or a stack of three.  A corner block
    of nodes is zero, so some cells have exactly zero midpoint values and
    gradients, where the zero rule of the powers applies."""
    rng = np.random.default_rng(seed)
    lead = (3,) if stacked else ()
    u, v = rng.standard_normal((2,) + lead + grid.node_shape)
    for w in (u, v):
        w[..., grid.boundary_mask()] = 0.0
        w[(...,) + (slice(0, 4),) * grid.dimension] = 0.0
    return _read_only(u, v)


def _assert_bits(got, ref):
    assert got.shape == ref.shape and got.dtype == ref.dtype
    assert got.tobytes() == ref.tobytes()


GRIDS = [pytest.param(d, s, id=f"{d}d-{'stacked' if s else 'single'}")
         for d in (1, 2) for s in (False, True)]


@pytest.fixture(params=CFG_NAMES)
def cfg(request):
    if request.param == "fast_path":
        return FAST_PATH_CFG
    return request.getfixturevalue(request.param)


# -- the rewritten functions against their references -------------------------

def _stencil_inputs(grid, stacked):
    """Read-only fields the stencils must take as out of place: float64,
    float32 (the certify screen's dtype) and integer stacks, and views
    that are not C-contiguous: the u of a stack of pairs, u interleaved
    with v node by node, and u transposed (reversed in 1D)."""
    u, v = _fields(grid, stacked)
    node_axis = -grid.dimension
    pairs = np.stack([u, v], axis=node_axis - 1)
    return {"float64": u, "float32": u.astype(np.float32),
            "int": np.arange(u.size).reshape(u.shape) % 7 - 3,
            "pair_component": np.moveaxis(pairs, node_axis - 1, 0)[0],
            "interleaved": np.stack([u, v], axis=-1)[..., 0],
            "transposed": np.swapaxes(u, -1, node_axis) if grid.dimension == 2
            else u[..., ::-1]}


@pytest.mark.parametrize("dimension, stacked", GRIDS)
def test_stencils_match_out_of_place(dimension, stacked):
    # n = 12: h = 1/11 is not dyadic, so a regrouped quotient would show
    g = Grid(dimension, 12)
    for name, u in _stencil_inputs(g, stacked).items():
        _read_only(u)
        _assert_bits(g.midpoint_values(u), _midpoint_ref(g, u))
        grads = g.element_gradients(u)
        _assert_bits(grads, _gradients_ref(g, u))
        # the components are stored one after another, each C-contiguous
        for a in range(dimension):
            assert grads[..., a].flags.c_contiguous, (name, a)
        _read_only(grads)
        _assert_bits(squared_magnitude(grads), _squared_magnitude_ref(grads))


@pytest.mark.parametrize("dimension, stacked", GRIDS)
def test_norms_and_ell_coefficients_match_out_of_place(cfg, dimension,
                                                       stacked):
    g = Grid(dimension, 12)
    u, v = _fields(g, stacked)
    ug, vg = _read_only(g.element_gradients(u), g.element_gradients(v))
    for p in (cfg.p1, cfg.p2):
        _assert_bits(np.asarray(_gradient_norms(g, ug, p)),
                     np.asarray(_gradient_norms_ref(g, ug, p)))
    got = ell_coefficients(g, u, v, ug, vg, cfg)
    ref = _ell_coefficients_ref(g, u, v, ug, vg, cfg)
    for a, b in zip(got, ref):
        _assert_bits(np.asarray(a), np.asarray(b))


@pytest.mark.parametrize("dimension, stacked", GRIDS)
def test_ray_densities_match_out_of_place(cfg, dimension, stacked):
    g = Grid(dimension, 12)
    u, v = _fields(g, stacked)
    data = _read_only(g.midpoint_values(u), g.element_gradients(u),
                      g.midpoint_values(v), g.element_gradients(v))
    exponents, densities = ModelFunctions(cfg).ray_densities(*data)
    ref = _ray_densities_ref(cfg, *data)
    assert len(densities) == len(ref) == len(exponents) == 7
    for got, want in zip(densities, ref):
        _assert_bits(got, want)


@pytest.mark.parametrize("e", FAST_PATH_EXPONENTS + [1.5, 8.0, -0.25])
def test_pow_matches_out_of_place(e):
    t = np.array([[0.0, -0.0, 1.0, -2.5, 3e-300, np.inf],
                  [-np.inf, 0.5, -1e10, 7.0, -0.0, 2.0]])
    _read_only(t)
    _assert_bits(_pow(t, e), _pow_ref(t, e))
    _assert_bits(_pow(t[0], e), _pow_ref(t[0], e))
    for x in (0.0, -3.0, 2.0):
        got, ref = _pow(x, e), _pow_ref(x, e)
        assert type(got) is type(ref) and got.tobytes() == ref.tobytes()


# -- zero fields --------------------------------------------------------------

class _Watched(np.ndarray):
    """An array that records the arithmetic ufuncs called on it."""

    calls: list = []

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if method == "__call__" and ufunc is not np.signbit:
            _Watched.calls.append(ufunc.__name__)
        inputs = [x.view(np.ndarray) if isinstance(x, _Watched) else x
                  for x in inputs]
        if "out" in kwargs:
            kwargs["out"] = tuple(x.view(np.ndarray) if isinstance(x, _Watched)
                                  else x for x in kwargs["out"])
        return getattr(ufunc, method)(*inputs, **kwargs)


def _watched(values):
    _Watched.calls = []
    return values.view(_Watched)


@pytest.mark.parametrize("dimension, stacked", GRIDS)
def test_zero_field_skips_the_stencils(dimension, stacked):
    g = Grid(dimension, 12)
    stack = (3,) if stacked else ()
    zero = np.zeros(stack + g.node_shape)
    for op, ref in ((g.midpoint_values, _midpoint_ref),
                    (g.element_gradients, _gradients_ref)):
        # the zeros have the stencil's dtype, float32 for a float32 field
        for z in (zero, zero.astype(np.float32)):
            got = op(_watched(z))
            assert _Watched.calls == [], op.__name__
            _assert_bits(got, ref(g, z))
        # the stencil does run on a nonzero field
        op(_watched(_fields(g, stacked)[0]))
        assert _Watched.calls, op.__name__
    cells = stack + (g.n - 1,) * dimension
    density, gradvec = np.zeros(cells), np.zeros(cells + (dimension,))
    got = g.scatter(_watched(density), _watched(gradvec))
    assert _Watched.calls == [] and got.shape == zero.shape
    _assert_bits(got, _scatter_ref(g, density, gradvec))


@pytest.mark.parametrize("dimension", [1, 2])
def test_signed_zero_fields_keep_their_bits(dimension):
    # a field of -0.0 has a -0.0 midpoint in every cell, and one of mixed
    # signs has -0.0 midpoints and gradients in some cells: both must
    # come out as the stencils make them, not as the zeros of the skip
    g = Grid(dimension, 12)
    rng = np.random.default_rng(3)
    negative = np.full((2,) + g.node_shape, -0.0)
    mixed = np.where(rng.random((2,) + g.node_shape) < 0.5, -0.0, 0.0)
    for vals in (negative, mixed):
        _read_only(vals)
        _assert_bits(g.midpoint_values(vals), _midpoint_ref(g, vals))
        _assert_bits(g.element_gradients(vals), _gradients_ref(g, vals))
        cells = (g.n - 1,) * dimension
        args = (vals[0][(slice(1, None),) * dimension],
                np.stack([vals[1][(slice(1, None),) * dimension]] * dimension,
                         axis=-1))
        assert args[0].shape == cells
        _assert_bits(g.scatter(*args), _scatter_ref(g, *args))
    assert np.signbit(_midpoint_ref(g, negative)).all()
    assert np.signbit(_gradients_ref(g, mixed)).any()


# -- memory -------------------------------------------------------------------

def test_certify_allocation_peak(coupled_cfg):
    g = Grid(2, 65)
    mf = ModelFunctions(coupled_cfg)
    certify_geometry(coupled_cfg, g, 0.1, n_samples=32, seed=0, mf=mf)
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        certify_geometry(coupled_cfg, g, 0.1, n_samples=32, seed=0, mf=mf)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak < CERTIFY_PEAK_BOUND
