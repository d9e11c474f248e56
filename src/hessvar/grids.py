"""Uniform Cartesian grids, finite-difference Hessians, and ball families.

The computational domain is a square/cube ``[-a, a]^n`` sampled on a uniform
lattice.  Nodes are classified by their layer index L = distance (in node
steps) to the grid edge:

* ghost     L = 0                   (outermost ring)
* boundary  1 <= L < boundary_width
* interior  L >= boundary_width

Ghost and boundary rings together carry clamped data: prescribing both rings
fixes the solution value and its normal derivative at the edge to second
order.  With the default ``boundary_width = 2`` every interior node supports
the full second-difference Hessian stencil plus one forward difference
quotient shift.

Grids additionally carry a ``valid`` mask: difference quotients shrink the
region where values are meaningful without changing the lattice, and all
downstream operators intersect their stencil footprint with ``valid``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import symmat


class GridError(ValueError):
    """Invalid grid construction or grid operation."""


class EmptyRegionError(GridError):
    """An integration / oscillation region contains no nodes."""


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


def shifted(a: np.ndarray, off, fill) -> np.ndarray:
    """Array with ``out[x] = a[x + off]``, `fill` where x + off leaves the grid."""
    out = np.full(a.shape, fill, dtype=a.dtype)
    src = tuple(
        slice(max(0, o), s + min(0, o)) for o, s in zip(off, a.shape)
    )
    dst = tuple(
        slice(max(0, -o), s + min(0, -o)) for o, s in zip(off, a.shape)
    )
    out[dst] = a[src]
    return out


@dataclass(frozen=True)
class ScalarGrid:
    """Scalar samples on a uniform lattice with clamped-data rings."""

    h: float
    origin: np.ndarray          # (n,) coordinate of node index 0 per axis
    values: np.ndarray          # (N1, ..., Nn)
    boundary_width: int = 2
    valid: np.ndarray = None    # bool (N1, ..., Nn); defaults to all-True

    def __post_init__(self):
        if self.h <= 0:
            raise GridError(f"grid spacing must be positive, got {self.h}")
        if self.boundary_width < 2:
            raise GridError("boundary_width must be >= 2")
        values = np.asarray(self.values, dtype=float)
        if values.ndim not in (2, 3):
            raise GridError(f"grid dimension must be 2 or 3, got {values.ndim}")
        need = 2 * self.boundary_width + 3
        if min(values.shape) < need:
            raise GridError(
                f"every axis needs >= {need} nodes for boundary_width="
                f"{self.boundary_width}, got extents {values.shape}"
            )
        valid = self.valid
        if valid is None:
            valid = np.ones(values.shape, dtype=bool)
        valid = np.asarray(valid, dtype=bool)
        if valid.shape != values.shape:
            raise GridError("valid mask shape must match values")
        origin = np.asarray(self.origin, dtype=float).reshape(values.ndim)
        object.__setattr__(self, "values", _freeze(values))
        object.__setattr__(self, "valid", _freeze(valid))
        object.__setattr__(self, "origin", _freeze(origin))

    @property
    def dim(self) -> int:
        return self.values.ndim

    @property
    def extents(self) -> tuple[int, ...]:
        return self.values.shape

    def axis_coords(self, axis: int) -> np.ndarray:
        return self.origin[axis] + self.h * np.arange(self.extents[axis])

    def coords(self) -> list[np.ndarray]:
        """Meshgrid coordinate arrays, one per axis, shaped like values."""
        return list(
            np.meshgrid(*(self.axis_coords(i) for i in range(self.dim)), indexing="ij")
        )

    def layer_index(self) -> np.ndarray:
        """Chebyshev distance of each node to the grid edge."""
        L = None
        for axis, N in enumerate(self.extents):
            idx = np.arange(N)
            d = np.minimum(idx, N - 1 - idx)
            shape = [1] * self.dim
            shape[axis] = N
            d = d.reshape(shape)
            L = d if L is None else np.minimum(L, d)
        return np.broadcast_to(L, self.extents).copy()

    @property
    def domain_mask(self) -> np.ndarray:
        """0 = interior, 1 = boundary, 2 = ghost."""
        L = self.layer_index()
        mask = np.zeros(self.extents, dtype=np.uint8)
        mask[L < self.boundary_width] = 1
        mask[L == 0] = 2
        return mask

    @property
    def interior(self) -> np.ndarray:
        return self.layer_index() >= self.boundary_width

    @property
    def prescribed(self) -> np.ndarray:
        return self.layer_index() < self.boundary_width

    def with_values(self, values: np.ndarray) -> "ScalarGrid":
        return replace(self, values=values)

    def cropped(self) -> "ScalarGrid":
        """Restrict to the bounding box of the valid region (all-valid result)."""
        if not self.valid.any():
            raise GridError("cannot crop a grid with empty valid region")
        sl = []
        for axis in range(self.dim):
            proj = self.valid.any(axis=tuple(a for a in range(self.dim) if a != axis))
            idx = np.nonzero(proj)[0]
            sl.append(slice(idx[0], idx[-1] + 1))
        sl = tuple(sl)
        if not self.valid[sl].all():
            raise GridError("valid region is not a box; cannot crop")
        origin = self.origin + self.h * np.array([s.start for s in sl])
        return ScalarGrid(
            h=self.h,
            origin=origin,
            values=self.values[sl].copy(),
            boundary_width=self.boundary_width,
        )


@dataclass(frozen=True)
class SymMatField:
    """A symmetric matrix per node, packed storage (see :mod:`hessvar.symmat`)."""

    h: float
    origin: np.ndarray
    values: np.ndarray          # (N1, ..., Nn, m)
    valid: np.ndarray = None

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        n = symmat.dim_from_packed(values.shape[-1])
        if values.ndim - 1 != n:
            raise GridError(
                f"field with packed size {values.shape[-1]} must live on a "
                f"{n}-dimensional lattice, got shape {values.shape}"
            )
        valid = self.valid
        if valid is None:
            valid = np.ones(values.shape[:-1], dtype=bool)
        valid = np.asarray(valid, dtype=bool)
        if valid.shape != values.shape[:-1]:
            raise GridError("valid mask shape must match node extents")
        origin = np.asarray(self.origin, dtype=float).reshape(values.ndim - 1)
        object.__setattr__(self, "values", _freeze(values))
        object.__setattr__(self, "valid", _freeze(valid))
        object.__setattr__(self, "origin", _freeze(origin))

    @property
    def dim(self) -> int:
        return self.values.ndim - 1

    @property
    def extents(self) -> tuple[int, ...]:
        return self.values.shape[:-1]

    axis_coords = ScalarGrid.axis_coords
    coords = ScalarGrid.coords

    def matrices(self) -> np.ndarray:
        """Full (N1, ..., Nn, n, n) view of the field."""
        return symmat.unpack(self.values, self.dim)

    def with_values(self, values: np.ndarray) -> "SymMatField":
        return replace(self, values=values)

    def constant_shifted(self, C: np.ndarray) -> "SymMatField":
        """Field plus a constant symmetric matrix."""
        return self.with_values(self.values + symmat.pack(np.asarray(C, dtype=float)))


@dataclass(frozen=True)
class Ball:
    """Euclidean ball given by center coordinates and radius."""

    center: tuple
    radius: float

    def __post_init__(self):
        if self.radius <= 0:
            raise GridError(f"ball radius must be positive, got {self.radius}")
        object.__setattr__(self, "center", tuple(float(c) for c in self.center))


@dataclass(frozen=True)
class BallFamily:
    """Finite ball collection standing in for 'all balls' in oscillation suprema."""

    balls: tuple

    def __post_init__(self):
        if len(self.balls) == 0:
            raise EmptyRegionError("ball family is empty")
        object.__setattr__(self, "balls", tuple(self.balls))

    def __len__(self):
        return len(self.balls)

    def __iter__(self):
        return iter(self.balls)


@dataclass(frozen=True)
class TestFunctionSet:
    """Compactly supported discrete test functions (zero off the interior)."""

    functions: tuple            # of (N1, ..., Nn) arrays
    labels: tuple = ()

    def __post_init__(self):
        fns = tuple(_freeze(np.asarray(f, dtype=float)) for f in self.functions)
        if not fns:
            raise GridError("test function set is empty")
        labels = tuple(self.labels) if self.labels else tuple(
            f"test{k}" for k in range(len(fns))
        )
        if len(labels) != len(fns):
            raise GridError("labels length must match functions")
        object.__setattr__(self, "functions", fns)
        object.__setattr__(self, "labels", labels)

    def __len__(self):
        return len(self.functions)

    def __iter__(self):
        return iter(self.functions)

    @staticmethod
    def validate_against(grid: ScalarGrid, functions) -> None:
        interior = grid.interior
        for k, f in enumerate(functions):
            f = np.asarray(f)
            if f.shape != grid.extents:
                raise GridError(f"test function {k} shape {f.shape} != grid extents")
            if np.any(f[~interior] != 0.0):
                raise GridError(f"test function {k} does not vanish off the interior")


def make_grid(
    dim: int, nodes_per_axis: int, half_width: float, boundary_width: int = 2
) -> ScalarGrid:
    """Zero-valued grid covering ``[-half_width, half_width]^dim``."""
    if dim not in (2, 3):
        raise GridError(f"dim must be 2 or 3, got {dim}")
    if nodes_per_axis < 11:
        raise GridError(
            f"nodes_per_axis must be >= 11 (got {nodes_per_axis}) so that "
            f"boundary rings leave a usable interior"
        )
    if half_width <= 0:
        raise GridError(f"half_width must be positive, got {half_width}")
    h = 2.0 * half_width / (nodes_per_axis - 1)
    origin = np.full(dim, -half_width)
    values = np.zeros((nodes_per_axis,) * dim)
    return ScalarGrid(h=h, origin=origin, values=values, boundary_width=boundary_width)


def sample(grid: ScalarGrid, fn) -> ScalarGrid:
    """Grid with values ``fn(x1, ..., xn)`` evaluated at every node."""
    return grid.with_values(np.asarray(fn(*grid.coords()), dtype=float))


def _hessian_stencil(n: int, h: float):
    """Per packed component: list of (offset, weight) — all self-adjoint."""
    stencils = []
    for i, j in symmat.PACKED_PAIRS[n]:
        if i == j:
            e = np.zeros(n, dtype=int)
            e[i] = 1
            stencils.append([(tuple(e), 1.0 / h**2),
                             (tuple(-e), 1.0 / h**2),
                             ((0,) * n, -2.0 / h**2)])
        else:
            ei = np.zeros(n, dtype=int)
            ej = np.zeros(n, dtype=int)
            ei[i] = 1
            ej[j] = 1
            w = 1.0 / (4.0 * h**2)
            stencils.append([(tuple(ei + ej), w),
                             (tuple(-ei - ej), w),
                             (tuple(ei - ej), -w),
                             (tuple(-ei + ej), -w)])
    return stencils


def hessian_field(u: ScalarGrid) -> SymMatField:
    """Second-order central-difference Hessian of ``u``.

    Diagonal entries use the three-point second difference, mixed entries the
    four-point cross stencil; the result is symmetric by packed storage.  The
    output is valid where the whole stencil footprint lies in ``u.valid``.
    """
    n = u.dim
    stencils = _hessian_stencil(n, u.h)
    m = symmat.packed_size(n)
    out = np.empty(u.extents + (m,))
    valid = np.array(u.valid, copy=True)
    for a, st in enumerate(stencils):
        acc = np.zeros(u.extents)
        for off, w in st:
            acc += w * shifted(u.values, off, np.nan)
            if any(off):
                valid &= shifted(u.valid, off, False)
        out[..., a] = acc
    out[~valid] = np.nan
    return SymMatField(h=u.h, origin=u.origin, values=out, valid=valid)


def hessian_adjoint(G: np.ndarray, mask: np.ndarray, h: float) -> np.ndarray:
    """Adjoint of the Hessian stencil map restricted to ``mask`` nodes.

    Given packed matrix data ``G`` supported on ``mask`` (zeros assumed
    elsewhere), returns the scalar node field ``y -> sum_x <G(x), dH(x)/du(y)>``
    with off-diagonal slots weighted twice.  Every stencil is symmetric under
    offset negation, so the adjoint is the same stencil applied to the
    zero-padded data.
    """
    n = G.ndim - 1
    stencils = _hessian_stencil(n, h)
    dup = symmat.duplication_weights(n)
    out = np.zeros(G.shape[:-1])
    for a, st in enumerate(stencils):
        comp = np.where(mask, G[..., a], 0.0)
        for off, w in st:
            out += (dup[a] * w) * shifted(comp, off, 0.0)
    return out


def difference_quotient(u: ScalarGrid, direction: int, step: int = 1) -> ScalarGrid:
    """Forward difference quotient ``(u(x + step*h*e_m) - u(x)) / (step*h)``.

    ``step`` counts grid spacings; the valid region shrinks by ``step`` nodes
    on the far side of axis ``direction``.
    """
    if not (0 <= direction < u.dim):
        raise GridError(f"direction {direction} out of range for dim {u.dim}")
    if step < 1 or step != int(step):
        raise GridError(f"step must be a positive integer multiple of h, got {step}")
    if step >= u.extents[direction]:
        raise GridError("difference-quotient shift exceeds the grid")
    off = [0] * u.dim
    off[direction] = int(step)
    vals = (shifted(u.values, off, np.nan) - u.values) / (step * u.h)
    valid = u.valid & shifted(u.valid, off, False)
    if not valid.any():
        raise GridError("difference-quotient shift leaves no valid nodes")
    vals = np.where(valid, vals, np.nan)
    return ScalarGrid(
        h=u.h, origin=u.origin, values=vals,
        boundary_width=u.boundary_width, valid=valid,
    )


def field_difference_quotient(f: SymMatField, direction: int, step: int = 1) -> SymMatField:
    """Component-wise forward difference quotient of a matrix field."""
    off = [0] * f.dim
    off[direction] = int(step)
    vals = (shifted(f.values, tuple(off) + (0,), np.nan) - f.values) / (step * f.h)
    valid = f.valid & shifted(f.valid, off, False)
    vals = np.where(valid[..., None], vals, np.nan)
    return SymMatField(h=f.h, origin=f.origin, values=vals, valid=valid)


def _usable(grid_like) -> np.ndarray:
    """Nodes that integrals and ball averages use: valid, and interior for a ScalarGrid."""
    if isinstance(grid_like, ScalarGrid):
        return grid_like.valid & grid_like.interior
    return grid_like.valid


def ball_window(grid_like, ball: Ball):
    """Bounding-box window ``(box, mask)`` of the nodes with ``|x - center| <= radius``.

    ``box`` is a tuple of slices; ``mask`` is the distance test on that box, so
    ``values[box][mask]`` lists the ball's nodes in C order.  A ball that
    misses the grid gives an empty window.
    """
    r2 = ball.radius**2 * (1.0 + 1e-12)
    box, dist2 = [], 0.0
    for axis in range(grid_like.dim):
        # a node inside the ball passes this per-axis test, so the box holds it
        d2 = (grid_like.axis_coords(axis) - ball.center[axis]) ** 2
        idx = np.nonzero(d2 <= r2)[0]
        sl = slice(idx[0], idx[-1] + 1) if idx.size else slice(0, 0)
        shape = [1] * grid_like.dim
        shape[axis] = -1
        dist2 = dist2 + d2[sl].reshape(shape)
        box.append(sl)
    return tuple(box), dist2 <= r2


def integrate(values: np.ndarray, grid_like, region=None) -> float:
    """Midpoint-rule integral over the usable nodes of ``region`` (None: all, or a Ball)."""
    vals = np.asarray(values)
    if vals.shape != grid_like.extents:
        raise GridError("values shape does not match the grid")
    usable = _usable(grid_like)
    if region is None:
        picked = vals[usable]
    elif isinstance(region, Ball):
        box, inside = ball_window(grid_like, region)
        picked = vals[box][inside & usable[box]]
    else:
        raise GridError(f"unsupported region spec {region!r}")
    if picked.size == 0:
        raise EmptyRegionError("integration region contains no nodes")
    return float(grid_like.h ** grid_like.dim * picked.sum())


def inner_box_nodes(mask: np.ndarray, fraction: float) -> np.ndarray:
    """Indices of the ``mask`` nodes in the concentric ``fraction`` sub-box of its bounding box.

    Rows of ``np.argwhere`` output, in C order.
    """
    idx = np.argwhere(mask)
    if len(idx) == 0:
        raise EmptyRegionError("mask has no nodes")
    lo = idx.min(axis=0)
    hi = idx.max(axis=0)
    mid = 0.5 * (lo + hi)
    half = 0.5 * fraction * (hi - lo)
    return idx[np.all(np.abs(idx - mid) <= half + 1e-9, axis=1)]


def _bounds(grid_like, usable: np.ndarray):
    """Per-axis coordinate bounds of the ``usable`` nodes."""
    idx = np.argwhere(usable)
    if len(idx) == 0:
        raise EmptyRegionError("no usable nodes")
    return (grid_like.origin + grid_like.h * idx.min(axis=0),
            grid_like.origin + grid_like.h * idx.max(axis=0))


def _fits(lo, hi, ball: Ball) -> bool:
    c = np.array(ball.center)
    return bool(np.all(c - ball.radius >= lo - 1e-12) and np.all(c + ball.radius <= hi + 1e-12))


def ball_fits(grid_like, ball: Ball) -> bool:
    """True if the ball sits inside the usable-region bounding box."""
    return _fits(*_bounds(grid_like, _usable(grid_like)), ball)


def dyadic_radii(r_max: float, r_min: float) -> list:
    """Radii ``r_max, r_max/2, ...`` down to ``r_min`` (relative slack 1e-12)."""
    radii = []
    r = float(r_max)
    while r >= r_min * (1.0 - 1e-12):
        radii.append(r)
        r /= 2.0
    return radii


def ball_family(
    grid_like, center_stride: int, r_min: float, r_max: float
) -> BallFamily:
    """Dyadic ball family on a strided center lattice.

    Radii ``r_max, r_max/2, ...`` down to ``r_min`` at every center; chains
    are clipped to balls that fit the usable region.  ``center_stride = 0``
    places a single center at the domain midpoint.
    """
    if r_min > r_max:
        raise GridError(f"r_min {r_min} exceeds r_max {r_max}")
    if r_min < 3.0 * grid_like.h:
        raise GridError(f"r_min must be at least 3h = {3 * grid_like.h:g}")
    usable = _usable(grid_like)
    lo, hi = _bounds(grid_like, usable)
    radii = dyadic_radii(r_max, r_min)
    centers = []
    if center_stride <= 0:
        centers.append(tuple(0.5 * (lo + hi)))
    else:
        axes = []
        for axis in range(grid_like.dim):
            coords = grid_like.axis_coords(axis)
            inside = np.nonzero((coords >= lo[axis] - 1e-12) & (coords <= hi[axis] + 1e-12))[0]
            axes.append(coords[inside[::center_stride]])
        for c in np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, grid_like.dim):
            centers.append(tuple(c))
    balls = []
    for c in centers:
        for r in radii:
            b = Ball(center=c, radius=r)
            if _fits(lo, hi, b):
                box, inside = ball_window(grid_like, b)
                if (inside & usable[box]).any():
                    balls.append(b)
    if not balls:
        raise EmptyRegionError("ball family is empty for the given parameters")
    return BallFamily(balls=tuple(balls))


def nodal_tests(grid: ScalarGrid, stride: int = 1) -> TestFunctionSet:
    """Nodal hat functions (single-node indicators) on a strided interior lattice."""
    interior = grid.interior & grid.valid
    idx = np.argwhere(interior)[:: max(1, stride)]
    fns, labels = [], []
    for node in idx:
        f = np.zeros(grid.extents)
        f[tuple(node)] = 1.0
        fns.append(f)
        labels.append("hat" + "_".join(str(i) for i in node))
    TestFunctionSet.validate_against(grid, fns)
    return TestFunctionSet(functions=tuple(fns), labels=tuple(labels))


def bump_tests(grid: ScalarGrid, centers, scale: float) -> TestFunctionSet:
    """Smooth compactly supported bumps ``exp(1 - 1/(1 - |x-c|^2/s^2))``.

    Each bump must fit strictly inside the interior region at the given scale.
    """
    lo, hi = _bounds(grid, _usable(grid))
    X = grid.coords()
    fns, labels = [], []
    for c in centers:
        c = np.asarray(c, dtype=float)
        if np.any(c - scale < lo) or np.any(c + scale > hi):
            raise GridError(f"bump at {tuple(c)} with scale {scale} leaves the interior")
        t2 = sum((X[a] - c[a]) ** 2 for a in range(grid.dim)) / scale**2
        with np.errstate(divide="ignore", over="ignore"):
            f = np.where(t2 < 1.0, np.exp(1.0 - 1.0 / np.maximum(1.0 - t2, 1e-300)), 0.0)
        f[~grid.interior] = 0.0
        fns.append(f)
        labels.append(f"bump@{tuple(round(v, 6) for v in c)}")
    TestFunctionSet.validate_against(grid, fns)
    return TestFunctionSet(functions=tuple(fns), labels=tuple(labels))
