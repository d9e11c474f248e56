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


def bounding_box(mask: np.ndarray) -> tuple:
    """Slices of the smallest box holding every node of ``mask``."""
    box = []
    for axis in range(mask.ndim):
        idx = np.flatnonzero(mask.any(axis=tuple(a for a in range(mask.ndim) if a != axis)))
        if idx.size == 0:
            raise EmptyRegionError("mask has no nodes")
        box.append(slice(int(idx[0]), int(idx[-1]) + 1))
    return tuple(box)


def offset_slices(off, shape):
    """Slice pair ``(src, dst)`` of the lattice offset ``off`` on an array of ``shape``.

    ``a[src]`` holds the values at ``x + off`` for the nodes ``x`` in
    ``a[dst]``: the nodes whose shifted position stays on the grid.  Offsets
    are clamped to the extents, so ``|off| >= extent`` on some axis gives empty
    slices.  Axes of ``shape`` past ``len(off)`` are left whole.  Difference
    quotients read their neighbours through these views, with no full-grid
    copy.
    """
    src, dst = [], []
    for o, s in zip(off, shape):
        o = max(-s, min(s, o))
        src.append(slice(max(0, o), s + min(0, o)))
        dst.append(slice(max(0, -o), s + min(0, -o)))
    return tuple(src), tuple(dst)


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
    def interior(self) -> np.ndarray:
        return self.layer_index() >= self.boundary_width

    @property
    def prescribed(self) -> np.ndarray:
        return self.layer_index() < self.boundary_width

    def with_values(self, values: np.ndarray) -> "ScalarGrid":
        return replace(self, values=values)


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
        return symmat.unpack(self.values)

    def with_values(self, values: np.ndarray) -> "SymMatField":
        return replace(self, values=values)


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


def hessian_stencil(extents, h: float):
    """The packed Hessian stencil on a lattice of ``extents``: ``(scales, stencils)``.

    Slot a of ``S u`` at flat node x is ``scales[a] * sum(sign * u[x + delta])``
    over the C-order flat offsets and signs +-1 ``(delta, sign)`` of
    ``stencils[a]``: the three-point second difference (scale 1/h^2, the
    centre as two -1 entries) or the four-point cross (scale 1/(4h^2)).  Each
    stencil is its own negation, so it is also the adjoint's stencil.  An
    offset from a node of the outer ring wraps to the next row.
    """
    strides = [int(np.prod(extents[k + 1:])) for k in range(len(extents))]
    scales, stencils = [], []
    for i, j in symmat.PACKED_PAIRS[len(extents)]:
        si, sj = strides[i], strides[j]
        if i == j:
            scales.append(1.0 / h**2)
            stencils.append([(si, 1), (-si, 1), (0, -1), (0, -1)])
        else:
            scales.append(1.0 / (4.0 * h**2))
            stencils.append([(si + sj, 1), (-si - sj, 1), (si - sj, -1), (sj - si, -1)])
    return np.array(scales), stencils


def add_stencil(out: np.ndarray, src: np.ndarray, first: int, stencil) -> None:
    """``out += stencil(src)`` at the flat nodes ``first, first + 1, ...``.

    ``stencil`` is a list of (flat offset, sign) pairs, each a weight of +-1.
    """
    for delta, sign in stencil:
        piece = src[first + delta:first + delta + out.size]
        (np.add if sign > 0 else np.subtract)(out, piece, out=out)


def hessian_field(u: ScalarGrid) -> SymMatField:
    """Second-order central-difference Hessian of ``u`` by :func:`hessian_stencil`.

    The result is symmetric by packed storage.  It is valid off the outer
    ring, where the whole stencil footprint lies in ``u.valid``.
    """
    scales, stencils = hessian_stencil(u.extents, u.h)
    footprint = sorted({d for st in stencils for d, _ in st})
    size, reach = u.values.size, footprint[-1]
    vals, ok = np.ravel(u.values), np.ravel(u.valid)
    out = np.empty((size, len(stencils)))
    # a full-size buffer: the inner range of a 129^2 grid is 24 B under glibc's
    # 128 KiB mmap threshold, and on the brk heap raised a solve's peak RSS
    acc = np.empty(size)[reach:size - reach]
    for a, st in enumerate(stencils):
        acc[:] = 0.0
        add_stencil(acc, vals, reach, st)
        np.multiply(acc, scales[a], out=out[reach:size - reach, a])
    valid = np.zeros(u.extents, dtype=bool)
    valid[(slice(1, -1),) * u.dim] = True   # offsets from the ring wrap
    inner = valid.reshape(-1)[reach:size - reach]
    for d in footprint:
        inner &= ok[reach + d:size - reach + d]
    out[~valid.reshape(-1)] = np.nan
    return SymMatField(h=u.h, origin=u.origin, values=out.reshape(u.extents + (-1,)),
                       valid=valid)


def hessian_adjoint(G, region: np.ndarray, h: float) -> np.ndarray:
    """Adjoint of the Hessian stencil map restricted to the ``region`` nodes.

    ``G`` holds packed components on the K region nodes (C order), shape
    ``(m, K)``.  Returns the node field ``y -> sum_x <G(x), dS u(x)/du(y)>``,
    off-diagonal slots weighted twice: each slot scattered once into a
    zero-padded flat buffer and gathered through its stencil.  The region
    must lie off the outer ring, where flat offsets wrap.
    """
    nodes = np.flatnonzero(region)
    want = (symmat.packed_size(region.ndim), nodes.size)
    if np.shape(G) != want:
        raise GridError(f"adjoint input has shape {np.shape(G)}, expected {want}")
    if region[(slice(1, -1),) * region.ndim].sum() != nodes.size:
        raise GridError("adjoint region touches the outer node ring")
    scales, stencils = hessian_stencil(region.shape, h)
    scales = scales * symmat.duplication_weights(region.ndim)
    reach = max(abs(d) for st in stencils for d, _ in st)
    buf, out = np.zeros(region.size + 2 * reach), np.zeros(region.size)
    for a, st in enumerate(stencils):
        buf[reach + nodes] = scales[a] * G[a]
        add_stencil(out, buf, reach, st)
    return out.reshape(region.shape)


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
    src, dst = offset_slices(off, u.extents)
    vals = np.full(u.extents, np.nan)
    valid = np.zeros(u.extents, dtype=bool)
    valid[dst] = u.valid[dst] & u.valid[src]
    if not valid.any():
        raise GridError("difference-quotient shift leaves no valid nodes")
    vals[dst] = np.where(valid[dst], (u.values[src] - u.values[dst]) / (step * u.h), np.nan)
    return ScalarGrid(
        h=u.h, origin=u.origin, values=vals,
        boundary_width=u.boundary_width, valid=valid,
    )


def _usable(grid_like) -> np.ndarray:
    """Nodes that integrals and ball averages use: valid, and interior for a ScalarGrid."""
    if isinstance(grid_like, ScalarGrid):
        return grid_like.valid & grid_like.interior
    return grid_like.valid


def _axis_window(coords: np.ndarray, center: float, r2: float):
    """Slice of the ``coords`` within ``sqrt(r2)`` of ``center``, and their squared distances."""
    d2 = (coords - center) ** 2
    idx = np.nonzero(d2 <= r2)[0]
    sl = slice(idx[0], idx[-1] + 1) if idx.size else slice(0, 0)
    return sl, d2[sl]


def _window_mask(rows, r2: float) -> np.ndarray:
    """Distance test on the box whose per-axis squared distances are ``rows``."""
    dist2 = 0.0
    for axis, d2 in enumerate(rows):
        shape = [1] * len(rows)
        shape[axis] = -1
        dist2 = dist2 + d2.reshape(shape)
    return dist2 <= r2


def _r2(radius: float) -> float:
    return radius**2 * (1.0 + 1e-12)


# node-ball pairs per chunk of ball_chunks, so a float64 temporary over a
# chunk is 256 KB; chunks of 128 KB-1 MB run equally fast on a 257^2 family
BALL_CHUNK = 1 << 15


def ball_chunks(grid_like, balls):
    """Yield ``(members, nodes)`` over ``balls``, in groups that share one window mask.

    ``members`` indexes ``balls``; row ``i`` of ``nodes`` holds, in C order,
    the flat indices of the nodes ``x`` with ``|x - center|^2 <= radius^2 (1 +
    1e-12)`` of ball ``members[i]`` (no nodes for a ball that misses the
    grid).  Each ball's nodes lie in its window, the box of nodes that pass
    the distance test axis by axis.  Balls whose windows have the same shape
    and mask share a group, so a family of node-centred balls forms one group
    per radius, and a ball with a window of its own (an off-node centre, a
    window cut by the grid edge) forms a group of one.  A group is cut into
    chunks of about ``BALL_CHUNK`` node-ball pairs, one ball at least.
    """
    coords = [grid_like.axis_coords(axis) for axis in range(grid_like.dim)]
    # each ball's group and window start, in arrays: per-ball lists would be
    # interleaved with the caller's objects and keep heap pages alive
    group = np.empty(len(balls), dtype=np.intp)
    starts = np.empty((len(balls), grid_like.dim), dtype=np.intp)
    windows, patterns, groups = {}, {}, {}
    for k, ball in enumerate(balls):
        r2 = _r2(ball.radius)
        rows = [r2]                     # r2, then each axis's squared distances
        for axis in range(grid_like.dim):
            c = ball.center[axis]
            if (axis, c, r2) not in windows:
                sl, d2 = _axis_window(coords[axis], c, r2)
                windows[axis, c, r2] = sl.start, d2.tobytes()
            starts[k, axis], row = windows[axis, c, r2]
            rows.append(row)
        rows = tuple(rows)
        if rows not in patterns:
            mask = _window_mask([np.frombuffer(row) for row in rows[1:]], r2)
            patterns[rows] = mask.shape, mask.tobytes()
        group[k] = groups.setdefault(patterns[rows], len(groups))
    for (shape, bits), g in groups.items():
        mask = np.frombuffer(bits, dtype=bool).reshape(shape)
        offsets = np.ravel_multi_index(np.nonzero(mask), grid_like.extents)
        members = np.flatnonzero(group == g)
        base = np.ravel_multi_index(tuple(starts[members].T), grid_like.extents)
        step = max(1, BALL_CHUNK // max(1, offsets.size))
        for i in range(0, len(members), step):
            yield members[i:i + step], base[i:i + step, None] + offsets


def node_ball_offsets(radius: float, h: float, dim: int) -> list:
    """Offsets, in C order, of the lattice nodes within ``radius`` of a node.

    The nodes of the ball about node 0 of the lattice ``h Z^dim``, by the
    distance test of :func:`ball_chunks`, so a node-centred ball's row of
    :func:`ball_chunks` is its centre plus these offsets.
    """
    reach = int(radius / h) + 1
    r2 = _r2(radius)
    sl, d2 = _axis_window(h * np.arange(-reach, reach + 1), 0.0, r2)
    offs = np.argwhere(_window_mask((d2,) * dim, r2)) + (sl.start - reach)
    return [tuple(off) for off in offs.tolist()]


def integrate(values: np.ndarray, grid_like, region=None) -> float:
    """Midpoint-rule integral over the usable nodes of ``region`` (None: all, or a Ball)."""
    vals = np.asarray(values)
    if vals.shape != grid_like.extents:
        raise GridError("values shape does not match the grid")
    usable = _usable(grid_like)
    if region is None:
        picked = vals[usable]
    elif isinstance(region, Ball):
        (_, nodes), = ball_chunks(grid_like, [region])
        picked = vals.reshape(-1)[nodes[0]][usable.reshape(-1)[nodes[0]]]
    else:
        raise GridError(f"unsupported region spec {region!r}")
    if picked.size == 0:
        raise EmptyRegionError("integration region contains no nodes")
    return float(grid_like.h ** grid_like.dim * picked.sum())


def inner_box_nodes(mask: np.ndarray, fraction: float) -> np.ndarray:
    """Indices of the ``mask`` nodes in the concentric ``fraction`` sub-box of its bounding box.

    Rows of ``np.argwhere`` output, in C order.
    """
    lo, hi = _box_corners(bounding_box(mask))
    idx = np.argwhere(mask)
    mid = 0.5 * (lo + hi)
    half = 0.5 * fraction * (hi - lo)
    return idx[np.all(np.abs(idx - mid) <= half + 1e-9, axis=1)]


def _box_corners(box):
    """First and last node index per axis of a :func:`bounding_box`."""
    return np.array([s.start for s in box]), np.array([s.stop - 1 for s in box])


def _bounds(grid_like, usable: np.ndarray):
    """Per-axis coordinate bounds of the ``usable`` nodes."""
    lo, hi = _box_corners(bounding_box(usable))
    return grid_like.origin + grid_like.h * lo, grid_like.origin + grid_like.h * hi


def _fits(lo, hi, centers, radii) -> np.ndarray:
    """Whether ``B_r(c)`` lies in the box ``[lo, hi]``, for centers ``c`` (rows) and radii ``r``."""
    cs = np.reshape(np.asarray(centers, dtype=float), (-1, 1, len(lo)))
    rs = np.asarray(radii, dtype=float)[:, None]
    return np.all(cs - rs >= lo - 1e-12, axis=-1) & np.all(cs + rs <= hi + 1e-12, axis=-1)


def balls_fit(grid_like, centers, radii) -> np.ndarray:
    """(centers, radii) table: whether ``B_r(c)`` sits inside the usable-region bounding box."""
    return _fits(*_bounds(grid_like, _usable(grid_like)), centers, radii)


def dyadic_radii(r_max: float, r_min: float) -> list:
    """Radii ``r_max, r_max/2, ...`` down to ``r_min`` (relative slack 1e-12)."""
    if not (np.isfinite(r_max) and np.isfinite(r_min) and r_min > 0):
        # halving never passes below a non-positive r_min nor leaves an infinite r_max
        raise GridError(f"dyadic radii need a finite r_max and a finite r_min > 0, "
                        f"got r_max = {r_max}, r_min = {r_min}")
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
    are clipped to balls that fit the usable region and hold a usable node,
    tested per group of :func:`ball_chunks` (one group per radius on the
    strided node lattice).  ``center_stride = 0`` places a single center at
    the domain midpoint.
    """
    if r_min > r_max:
        raise GridError(f"r_min {r_min} exceeds r_max {r_max}")
    if r_min < 3.0 * grid_like.h:
        raise GridError(f"r_min must be at least 3h = {3 * grid_like.h:g}")
    usable = _usable(grid_like)
    lo, hi = _bounds(grid_like, usable)
    radii = dyadic_radii(r_max, r_min)
    if center_stride <= 0:
        centers = [0.5 * (lo + hi)]
    else:
        axes = []
        for axis in range(grid_like.dim):
            coords = grid_like.axis_coords(axis)
            inside = np.nonzero((coords >= lo[axis] - 1e-12) & (coords <= hi[axis] + 1e-12))[0]
            axes.append(coords[inside[::center_stride]])
        centers = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, grid_like.dim)
    fitting = [Ball(center=c, radius=r) for c, row in zip(centers, _fits(lo, hi, centers, radii))
               for r, fit in zip(radii, row) if fit]
    keep = np.zeros(len(fitting), dtype=bool)
    usable = usable.reshape(-1)
    for members, nodes in ball_chunks(grid_like, fitting):
        keep[members] = usable[nodes].any(axis=1)
    balls = [b for b, k in zip(fitting, keep) if k]
    if not balls:
        raise EmptyRegionError("ball family is empty for the given parameters")
    return BallFamily(balls=tuple(balls))


def bump_tests(grid: ScalarGrid, centers, scale: float) -> TestFunctionSet:
    """Smooth compactly supported bumps ``exp(1 - 1/(1 - |x-c|^2/s^2))``.

    Each bump must fit strictly inside the interior region at the given scale.
    """
    lo, hi = _bounds(grid, _usable(grid))
    X = grid.coords()
    fns, labels = [], []
    for c in centers:
        c = np.asarray(c, dtype=float)
        at = tuple(float(v) for v in c)
        if np.any(c - scale < lo) or np.any(c + scale > hi):
            raise GridError(f"bump at {at} with scale {scale} leaves the interior")
        t2 = sum((X[a] - c[a]) ** 2 for a in range(grid.dim)) / scale**2
        with np.errstate(divide="ignore", over="ignore"):
            f = np.where(t2 < 1.0, np.exp(1.0 - 1.0 / np.maximum(1.0 - t2, 1e-300)), 0.0)
        f[~grid.interior] = 0.0
        fns.append(f)
        labels.append(f"bump@{tuple(round(v, 6) for v in at)}")
    TestFunctionSet.validate_against(grid, fns)
    return TestFunctionSet(functions=tuple(fns), labels=tuple(labels))
