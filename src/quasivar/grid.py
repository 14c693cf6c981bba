"""Uniform grids on (0,1)^N with midpoint quadrature, N in {1, 2}.

Fields are nodal with homogeneous Dirichlet trace.  All integrals use a
single midpoint quadrature point per element; gradients are the
element-constant gradients of the linear (1D) / bilinear (2D) shape
functions evaluated at the element center.  The one-dimensional grid
exists for analytic and shooting oracles only.
"""

from __future__ import annotations

import functools
import io
from dataclasses import dataclass
from typing import Callable, TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .exponents import ExponentConfig


class Grid:
    """Uniform tensor grid on the unit interval or unit square.

    Immutable after construction.  ``n`` is the number of nodes per axis,
    so the mesh width is h = 1/(n-1).
    """

    def __init__(self, dimension: int, n: int):
        if dimension not in (1, 2):
            raise ValueError("dimension must be 1 or 2")
        if n < 3:
            raise ValueError("n must be at least 3")
        self.dimension = dimension
        self.n = n
        self.h = 1.0 / (n - 1)
        self.cell_volume = self.h ** dimension
        self.num_cells = (n - 1) ** dimension
        self._boundary = np.ones(self.node_shape, dtype=bool)
        self._boundary[(slice(1, -1),) * dimension] = False
        self._boundary.flags.writeable = False
        # The cell corners in the order of jacobian_pattern.  offsets[a, c]
        # is corner c's offset on axis a, _signs[a, c] its side (+1 far, -1
        # near) and _slices[c] the nodes at corner c of every cell.  In the
        # raveled nodes of a stack, _corners[c] is corner c's offset from
        # the node that starts its cell, and _gradient_terms[a] holds axis
        # a's first far-side offset and the ufuncs that add its other
        # far-side corners and subtract its near-side ones, in the
        # stencil's order.  _cells picks the kept cells out of node-sized
        # arrays, and _probe is the interior node next to the origin.
        offsets = (np.arange(2 ** dimension)
                   >> np.arange(dimension)[:, None]) & 1
        self._signs = 2.0 * offsets - 1.0
        self._slices = [(...,) + tuple(slice(1, None) if b else slice(None, -1)
                                       for b in o) for o in offsets.T]
        self._corners = [int(o) for o in
                         n ** np.arange(dimension)[::-1] @ offsets]
        sides = [[[o for o, b in zip(self._corners, row) if b == side]
                  for side in (1, 0)] for row in offsets]
        self._gradient_terms = [
            (far[0], [(np.add, o) for o in far[1:]]
             + [(np.subtract, o) for o in near]) for far, near in sides]
        self._cells = (...,) + (slice(None, -1),) * dimension
        self._probe = (...,) + (1,) * dimension
        self._axis = np.linspace(0.0, 1.0, n)
        self.centers = self._mesh(0.5 * (self._axis[:-1] + self._axis[1:]))
        number = np.full(self.node_shape, -1)
        number[~self._boundary] = np.arange((n - 2) ** dimension)
        self._jac_pattern = (
            np.vstack([np.full(2 ** dimension, 0.5 ** dimension),
                       self._signs * 0.5 ** (dimension - 1) / self.h]),
            np.stack([number[s].ravel() for s in self._slices], axis=1))
        lam = 2.0 * np.cos(np.arange(1, n - 1) * np.pi / (n - 1))
        if dimension == 1:
            self._eigenvalues = (2.0 - lam) / self.h
        else:
            li, lj = lam[:, None], lam[None, :]
            self._eigenvalues = 8.0 / 3.0 - (li + lj + li * lj) / 3.0
        # the inverse transform's one factor 1/prod(2(m+1)), m = n-2 per
        # axis, rounded as pocketfft rounds it: in long double, then to double
        self._inverse_dst_scale = float(
            1 / np.longdouble((2 * (n - 1)) ** dimension))

    # -- nodal bookkeeping -------------------------------------------------

    @property
    def node_shape(self) -> tuple[int, ...]:
        return (self.n,) * self.dimension

    def _mesh(self, axis: np.ndarray) -> np.ndarray:
        """Row-major points of the mesh axis^dim, shape (len^dim, dim)."""
        return np.stack(np.meshgrid(*(axis,) * self.dimension, indexing="ij"),
                        axis=-1).reshape(-1, self.dimension)

    def node_coords(self) -> np.ndarray:
        return self._mesh(self._axis)

    def boundary_mask(self) -> np.ndarray:
        """Mask of the boundary nodes, one read-only array per grid."""
        return self._boundary

    def zeros(self) -> np.ndarray:
        return np.zeros(self.node_shape)

    # -- element operations --------------------------------------------------

    def _all_plus_zero(self, values: np.ndarray) -> bool:
        """True when every entry of ``values`` is +0.0, so that every sum
        of the stencils is +0.0 too; -0.0 sums to -0.0 and is not taken.

        One interior node is looked at first: a field that is nonzero
        there, as almost every nonzero field is, costs no full scan.
        """
        return not (values[self._probe].any() or values.any()
                    or np.signbit(values).any())

    def midpoint_values(self, values: np.ndarray) -> np.ndarray:
        """Interpolated field values at element centers.

        The node axes of ``values`` come last; leading axes index a stack
        of fields, as in ``element_gradients``.  An exactly zero field
        (no bit set, so not -0.0) gives zeros without the stencil.

        The stack is raveled once and each corner is one slice of it, so
        the sums also fill spare cells, those with some index n - 1,
        which read only boundary nodes and are never returned.  Their
        arithmetic can still raise under ``np.errstate`` when boundary
        values overflow or are not finite.
        """
        dtype = np.result_type(values, 0.5)
        if self._all_plus_zero(values):
            return np.zeros(values.shape[:values.ndim - self.dimension]
                            + (self.n - 1,) * self.dimension, dtype)
        flat, nodes = values.ravel(), np.empty(values.shape, dtype)
        span = flat.size - self._corners[-1]
        total = nodes.reshape(-1)[:span]
        first, second, *rest = self._corners
        np.add(flat[first:first + span], flat[second:second + span],
               out=total, dtype=dtype)
        for o in rest:
            total += flat[o:o + span]
        return np.multiply(nodes[self._cells], 0.5 ** self.dimension)

    def element_gradients(self, values: np.ndarray) -> np.ndarray:
        """Shape-function gradients at element centers, shape (..., *cells, dim).

        Component a is the far-side corners' sum minus the near-side
        corners', over 2^(dim-1) h.  An exactly zero field gives zeros
        without the stencil, as in ``midpoint_values``, and the numerators
        fill the same spare cells as its sums.  The result is a
        component-major view: each ``grads[..., a]`` is C-contiguous, the
        whole array is not.
        """
        lead = values.shape[:values.ndim - self.dimension]
        blocks = (self.dimension,) + lead + (self.n - 1,) * self.dimension
        width = 2 ** (self.dimension - 1) * self.h
        dtype = np.result_type(values, width)
        if self._all_plus_zero(values):
            return np.moveaxis(np.zeros(blocks, dtype), 0, -1)
        out = np.empty(blocks, dtype)
        # each numerator is summed in place in one node-sized buffer that
        # every axis reuses, and its kept cells are divided into the
        # axis's block of the result
        flat, nodes = values.ravel(), np.empty(values.shape, values.dtype)
        span = flat.size - self._corners[-1]
        num = nodes.reshape(-1)[:span]
        for a, (first, terms) in enumerate(self._gradient_terms):
            total = flat[first:first + span]
            for op, o in terms:
                total = op(total, flat[o:o + span], out=num)
            np.divide(nodes[self._cells], width, out=out[a])
        return np.moveaxis(out, 0, -1)

    def cell_integrals(self, density: np.ndarray) -> np.ndarray:
        """Midpoint-quadrature integrals of per-cell densities (..., *cells)."""
        lead = density.shape[:density.ndim - self.dimension]
        return density.reshape(lead + (-1,)).sum(axis=-1) * self.cell_volume

    def scatter(self, density: np.ndarray, gradvec: np.ndarray) -> np.ndarray:
        """Adjoint of (midpoint_values, element_gradients) with quadrature weight.

        Returns the nodal vector F with
        F_i = sum_e [gradvec(e) . grad phi_i(e) + density(e) phi_i(e)] * vol,
        zeroed on boundary nodes.  Leading axes index a stack, as in
        ``element_gradients``.
        """
        vol = self.cell_volume
        out = np.zeros(density.shape[:-self.dimension] + self.node_shape)
        # every sum below starts from out's +0.0, so zero inputs of either
        # sign, alone or in a stack, leave it +0.0: they may skip the stencils
        if not (density.any() or gradvec.any()):
            return out
        t = 0.5 ** self.dimension * vol * density
        for s in self._slices:
            out[s] += t
        # corner c gets sum_a sign_ca g_a.  The products by +-1 are exact
        # and a corner sums at most two, so this is bitwise the stencil's
        # +-g_x +- g_y.
        terms = ((gradvec * vol / (2 ** (self.dimension - 1) * self.h))
                 @ self._signs)
        for c, s in enumerate(self._slices):
            out[s] += terms[..., c]
        np.copyto(out, 0.0, where=self._boundary)
        return out

    def jacobian_pattern(self) -> tuple[np.ndarray, np.ndarray]:
        """Element-local map of the pair Jacobian, built with the grid.

        Returns (B, corners).  B, shape (dim+1, 2^dim), maps the corner
        values of every cell to its midpoint value and gradient, as
        ``midpoint_values`` and ``element_gradients`` do.  corners, shape
        (num_cells, 2^dim), holds the interior index of each cell corner,
        in the order of ``values[~boundary_mask()]``, or -1 on the boundary.
        Both number the corners axis 0 fastest, (0,0), (1,0), (0,1), (1,1)
        in 2D, the order in which the stencils add them, so that every sum
        rounds as in the explicit 1D and 2D stencils the tests keep.
        """
        return self._jac_pattern

    # -- discrete Laplacian ----------------------------------------------------

    @property
    def element_stiffness(self) -> np.ndarray:
        """Exact c x c element stiffness of the linear/bilinear elements.

        c = 2^dim corners, in the order of ``jacobian_pattern``.  It is
        the sum over axes a of the 1D element stiffness
        [[1,-1],[-1,1]]/h along a times the 1D mass h [[1/3,1/6],[1/6,1/3]]
        along every other axis; summed over the cells, it is the Dirichlet
        stiffness matrix K that ``laplacian_solve`` inverts.
        """
        dim = self.dimension
        stiff = np.array([[1.0, -1.0], [-1.0, 1.0]])
        mass = np.array([[1 / 3, 1 / 6], [1 / 6, 1 / 3]])
        # np.kron takes the last axis, the slowest corner axis, first
        return sum(functools.reduce(np.kron, [
            stiff if b == a else mass for b in reversed(range(dim))])
            for a in range(dim)) / self.h ** (2 - dim)

    def laplacian_eigenvalues(self) -> np.ndarray:
        """Eigenvalues of K in the type-I sine basis, shape (n-2,)*dim.

        With l_k = 2 cos(k pi/(n-1)), k = 1..n-2: (2 - l_k)/h in 1D and
        8/3 - (l_i + l_j + l_i l_j)/3 in 2D.  Built with the grid.
        """
        return self._eigenvalues

    def laplacian_solve(self, rhs_nodal: np.ndarray) -> np.ndarray:
        """Solve K y = rhs on interior nodes (homogeneous Dirichlet).

        K is diagonal in the type-I discrete sine basis (the fast Poisson
        solver of Buzbee, Golub and Nielson, 1970), so the solve is a DST,
        a division by ``laplacian_eigenvalues`` and the inverse DST, the
        same transform scaled by 1/prod(2(m+1)); there is no
        factorization.  Both transforms are ``_dst1``, on numpy's FFT,
        which on numpy >= 2 rounds as ``scipy.fft.dstn`` and
        ``idstn(type=1)`` do.  Leading axes index a stack of loads, each
        solved bitwise as alone; an exactly zero one (the idle component's
        at a semitrivial point) gives +0.0 without a transform.
        """
        out = np.zeros(rhs_nodal.shape)
        rows = rhs_nodal.reshape((-1,) + self.node_shape)
        live = np.flatnonzero(rows.any(axis=tuple(range(1, rows.ndim))))
        if live.size:
            inner = (live,) + (slice(1, -1),) * self.dimension
            out.reshape(rows.shape)[inner] = _dst1(
                _dst1(rows[inner], self.dimension)
                / self.laplacian_eigenvalues(),
                self.dimension, self._inverse_dst_scale)
        return out


def _dst1(x: np.ndarray, dimension: int, scale: float = 1.0) -> np.ndarray:
    """Type-I DST along each of the last ``dimension`` axes, times ``scale``.

    An axis of length m transforms as pocketfft forms the DST inside
    ``scipy.fft``: minus the imaginary part of the real FFT of the odd
    extension (0, x, 0, -x reversed) of length 2(m+1), at frequencies
    1..m.  The first of those axes goes first and ``scale`` multiplies the
    first pass only, so that with numpy's pocketfft (numpy >= 2) every bit
    is that of ``scipy.fft.dstn(x, type=1)`` times ``scale``.  Leading
    axes index a stack; pocketfft transforms each row alone.
    """
    # each pass moves the first transformed axis last and transforms it,
    # so the axes go in order and are back in place after the last pass
    lead = x.ndim - dimension
    cycle = (*range(lead), *range(lead + 1, x.ndim), lead)
    for _ in range(dimension):
        x = x.transpose(cycle)
        zero = np.zeros(x.shape[:-1] + (1,))
        ext = np.concatenate([zero, x, zero, -x[..., ::-1]], axis=-1)
        x = np.fft.rfft(ext).imag[..., 1:x.shape[-1] + 1] * -scale
        scale = 1.0
    return x


def integrate(f, grid: Grid) -> float:
    """Composite midpoint quadrature over (0,1)^N.

    ``f`` is either a callable on quadrature-point coordinates (array of
    shape (ncells, dim)) or an array of per-element values.  Exact for
    elementwise-constant integrands.
    """
    if callable(f):
        vals = np.asarray(f(grid.centers), dtype=float).ravel()
    else:
        vals = np.asarray(f, dtype=float).ravel()
    if vals.size != grid.num_cells:
        raise ValueError(f"expected {grid.num_cells} element values, got {vals.size}")
    return float(grid.cell_integrals(vals.reshape((grid.n - 1,) * grid.dimension)))


@dataclass
class GridFunction:
    """Nodal field on a grid with zero boundary trace."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.grid.node_shape:
            raise ValueError(
                f"values shape {self.values.shape} != grid {self.grid.node_shape}")
        if np.any(self.values[self.grid.boundary_mask()] != 0.0):
            raise ValueError("GridFunction must vanish on boundary nodes")

    @classmethod
    def from_callable(cls, grid: Grid, f: Callable) -> "GridFunction":
        """Nodal values of f(x) (1D) or f(x, y) (2D), zero on the boundary."""
        vals = np.asarray(f(*grid.node_coords().T),
                          dtype=float).reshape(grid.node_shape)
        vals[grid.boundary_mask()] = 0.0
        return cls(grid, vals)

    @classmethod
    def zero(cls, grid: Grid) -> "GridFunction":
        return cls(grid, grid.zeros())

    def copy(self) -> "GridFunction":
        return GridFunction(self.grid, self.values.copy())

    def __add__(self, other: "GridFunction") -> "GridFunction":
        return GridFunction(self.grid, self.values + other.values)

    def __sub__(self, other: "GridFunction") -> "GridFunction":
        return GridFunction(self.grid, self.values - other.values)

    def __mul__(self, c: float) -> "GridFunction":
        return GridFunction(self.grid, self.values * c)

    __rmul__ = __mul__

    def __neg__(self) -> "GridFunction":
        return GridFunction(self.grid, -self.values)


@dataclass
class FieldPair:
    """A pair (u, v) of fields on grids of one size."""

    u: GridFunction
    v: GridFunction

    def __post_init__(self):
        if self.u.grid.node_shape != self.v.grid.node_shape:
            raise ValueError("FieldPair components must share a grid size")

    @property
    def grid(self) -> Grid:
        return self.u.grid

    @classmethod
    def zero(cls, grid: Grid) -> "FieldPair":
        return cls(GridFunction.zero(grid), GridFunction.zero(grid))

    def copy(self) -> "FieldPair":
        return FieldPair(self.u.copy(), self.v.copy())

    def __add__(self, other: "FieldPair") -> "FieldPair":
        return FieldPair(self.u + other.u, self.v + other.v)

    def __sub__(self, other: "FieldPair") -> "FieldPair":
        return FieldPair(self.u - other.u, self.v - other.v)

    def __mul__(self, c: float) -> "FieldPair":
        return FieldPair(self.u * c, self.v * c)

    __rmul__ = __mul__

    def __neg__(self) -> "FieldPair":
        return FieldPair(-self.u, -self.v)


def norm_W(gf: GridFunction, p: float) -> float:
    """Gradient p-norm (integral of |grad|^p)^(1/p) by midpoint quadrature."""
    if p < 1:
        raise ValueError("norm_W requires p >= 1")
    return float(_w_norms(gf.grid, gf.values, p))


def squared_magnitude(vec: np.ndarray) -> np.ndarray:
    """|vec|^2 over the last axis, equal to np.sum(vec * vec, axis=-1).

    The components are added one by one: numpy reduces over a short last
    axis about ten times slower.
    """
    out = vec[..., 0] * vec[..., 0]
    for k in range(1, vec.shape[-1]):
        out += vec[..., k] * vec[..., k]
    return out


def magnitude_power(vec: np.ndarray, p: float) -> np.ndarray:
    """|vec|^p over the last axis."""
    return np.sqrt(squared_magnitude(vec)) ** p


def _w_norms(grid: Grid, values: np.ndarray, p: float) -> np.ndarray:
    """Gradient p-norms of stacked nodal fields (node axes last)."""
    return _gradient_norms(grid, grid.element_gradients(values), p)


def _gradient_norms(grid: Grid, grads: np.ndarray, p: float) -> np.ndarray:
    """(int |grad|^p)^(1/p) of stacked element gradients (..., *cells, dim)."""
    return grid.cell_integrals(magnitude_power(grads, p)) ** (1.0 / p)


def norm_Lp(gf: GridFunction, p: float) -> float:
    """Lebesgue p-norm by midpoint quadrature."""
    if p < 1:
        raise ValueError("norm_Lp requires p >= 1")
    m = gf.grid.midpoint_values(gf.values)
    return integrate(np.abs(m) ** p, gf.grid) ** (1.0 / p)


def norm_Linf(gf: GridFunction) -> float:
    """Max of absolute nodal values."""
    return float(np.max(np.abs(gf.values)))


def power_map(gf: GridFunction, s: float) -> GridFunction:
    """Nodal map t -> |t|^s t; boundary trace stays zero."""
    if s < 0:
        raise ValueError("power_map requires s >= 0")
    return GridFunction(gf.grid, _power_mapped(gf.values, s))


def _power_mapped(values: np.ndarray, s: float) -> np.ndarray:
    """|t|^s t of nodal values; bitwise the values for s = 0."""
    return np.abs(values) ** s * values


def pair_norm_W(fp: FieldPair, p1: float, p2: float) -> float:
    """Product-space gradient norm: the sum of the component norms."""
    return norm_W(fp.u, p1) + norm_W(fp.v, p2)


def ell_coefficients(grid: Grid, u: np.ndarray, v: np.ndarray,
                     ug: np.ndarray, vg: np.ndarray, cfg: "ExponentConfig",
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Coefficients (a, b1, b2) of the ell-norm along the rays through pairs.

    ``u`` and ``v`` are stacked nodal values, node axes last, and ``ug``,
    ``vg`` their ``element_gradients``, which callers that also evaluate
    the energy already hold.  a is the W-norm of w = (u, v), and b1, b2
    are the W-norms of the power-mapped components |u|^s1 u and
    |v|^s2 v, so that
    ell(tau w) = max(tau a, tau^(s1+1) b1 + tau^(s2+1) b2) for tau >= 0.
    """
    return (_gradient_norms(grid, ug, cfg.p1)
            + _gradient_norms(grid, vg, cfg.p2),
            _w_norms(grid, _power_mapped(u, cfg.s1), cfg.p1),
            _w_norms(grid, _power_mapped(v, cfg.s2), cfg.p2))


def ray_coefficients(fp: FieldPair, cfg: "ExponentConfig",
                     ) -> tuple[float, float, float]:
    """``ell_coefficients`` of the one ray through ``fp``."""
    grid, u, v = fp.grid, fp.u.values, fp.v.values
    a, b1, b2 = ell_coefficients(grid, u, v, grid.element_gradients(u),
                                 grid.element_gradients(v), cfg)
    return float(a), float(b1), float(b2)


def ell_norm(fp: FieldPair, cfg: "ExponentConfig") -> float:
    """max of the W-norm of (u,v) and the W-norm of the power-mapped pair."""
    a, b1, b2 = ray_coefficients(fp, cfg)
    return max(a, b1 + b2)


def sine_modes(grid: Grid, n_modes: int) -> np.ndarray:
    """Nodal values of sin(k pi x), k = 1..n_modes, along one axis.

    Shape (n_modes, n); the same table serves every axis of the grid.
    """
    return np.sin((np.arange(1, n_modes + 1) * np.pi)[:, None] * grid._axis)


def sine_product(grid: Grid, *wavenumbers: int) -> GridFunction:
    """The field prod_a sin(k_a pi x_a), one wavenumber k_a per axis.

    Built from the rows of the :func:`sine_modes` table and zeroed on the
    boundary.  Wavenumbers start at 1.
    """
    if len(wavenumbers) != grid.dimension:
        raise ValueError("need one wavenumber per axis")
    if min(wavenumbers) < 1:
        raise ValueError("wavenumbers must be at least 1")
    vals = functools.reduce(np.multiply.outer, sine_modes(
        grid, max(wavenumbers))[np.array(wavenumbers) - 1])
    vals[grid.boundary_mask()] = 0.0
    return GridFunction(grid, vals)


def sine_mode_fields(grid: Grid, coeffs: np.ndarray,
                     modes: np.ndarray) -> np.ndarray:
    """Nodal values of sine-mode combinations, zero on the boundary.

    ``coeffs`` has one coefficient per mode (per mode pair in 2D, in
    row-major order) in its trailing axes; leading axes index a stack of
    fields.  ``modes`` is the table of :func:`sine_modes`.
    """
    if grid.dimension == 1:
        vals = coeffs @ modes
    else:
        vals = modes.T @ coeffs @ modes
    vals[..., grid.boundary_mask()] = 0.0
    return vals


def random_field_pair(grid: Grid, rng: np.random.Generator,
                      modes: np.ndarray) -> FieldPair:
    """Seeded random pair of sine-mode combinations, u drawn before v.

    Each component draws one standard normal coefficient per mode
    (per mode pair in 2D, in row-major order) for
    :func:`sine_mode_fields`.
    """
    coeffs = rng.standard_normal((2,) + (modes.shape[0],) * grid.dimension)
    u, v = sine_mode_fields(grid, coeffs, modes)
    return FieldPair(GridFunction(grid, u), GridFunction(grid, v))


def dump_field(gf: GridFunction) -> str:
    """Plain-text field dump: one node per line, row-major, 17 significant digits."""
    buf = io.StringIO()
    np.savetxt(buf, np.column_stack([gf.grid.node_coords(), gf.values.ravel()]),
               fmt="%.17g")
    return buf.getvalue()
