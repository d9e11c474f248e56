import itertools
from dataclasses import replace

import numpy as np
import pytest

from hessvar import grids, symmat
from hessvar.grids import Ball, GridError, EmptyRegionError

import oracles


def test_make_grid_basic_2d():
    g = grids.make_grid(2, 33, 1.0)
    assert g.h == 0.0625
    assert g.extents == (33, 33)
    assert g.axis_coords(0)[0] == -1.0 and g.axis_coords(0)[-1] == 1.0


def test_make_grid_basic_3d():
    g = grids.make_grid(3, 17, 1.0)
    assert g.h == 0.125
    assert g.extents == (17, 17, 17)


def test_make_grid_rejects_tiny_grid():
    with pytest.raises(GridError):
        grids.make_grid(2, 5, 1.0)


def test_domain_mask_partitions_nodes():
    g = grids.make_grid(2, 15, 1.0)
    ghost = g.layer_index() == 0
    assert np.array_equal(g.interior, ~g.prescribed)
    # ghost ring is the outer frame
    assert ghost.sum() == 15 * 15 - 13 * 13
    # boundary is the next ring in (boundary_width = 2)
    assert (g.prescribed & ~ghost).sum() == 13 * 13 - 11 * 11
    assert g.interior.sum() == 11 * 11


def test_hessian_exact_on_quadratics():
    rng = np.random.default_rng(10)
    for dim in (2, 3):
        g = grids.make_grid(dim, 13, 1.0)
        A = rng.standard_normal((dim, dim))
        A = 0.5 * (A + A.T)
        b = rng.standard_normal(dim)

        def quad(*X):
            out = sum(b[i] * X[i] for i in range(dim))
            for i in range(dim):
                for j in range(dim):
                    out = out + 0.5 * A[i, j] * X[i] * X[j]
            return out

        H = grids.hessian_field(grids.sample(g, quad))
        M = H.matrices()[H.valid]
        np.testing.assert_allclose(M, np.broadcast_to(A, M.shape), atol=1e-11)


def test_hessian_x1_squared_and_cross_term():
    g = grids.make_grid(2, 17, 1.0)
    H = grids.hessian_field(grids.sample(g, lambda x, y: x**2))
    M = H.matrices()[H.valid]
    np.testing.assert_allclose(M[:, 0, 0], 2.0, atol=1e-12)
    np.testing.assert_allclose(M[:, 0, 1], 0.0, atol=1e-12)
    np.testing.assert_allclose(M[:, 1, 1], 0.0, atol=1e-12)

    H = grids.hessian_field(grids.sample(g, lambda x, y: x * y))
    M = H.matrices()[H.valid]
    np.testing.assert_allclose(M[:, 0, 1], 1.0, atol=1e-12)
    np.testing.assert_allclose(M[:, 1, 0], 1.0, atol=1e-12)
    np.testing.assert_allclose(M[:, 0, 0], 0.0, atol=1e-12)


def test_hessian_storage_is_symmetric():
    rng = np.random.default_rng(11)
    g = grids.make_grid(2, 13, 1.0)
    u = g.with_values(rng.standard_normal(g.extents))
    H = grids.hessian_field(u)
    M = H.matrices()[H.valid]
    assert np.array_equal(M, np.swapaxes(M, -1, -2))


@pytest.mark.parametrize("dim, nodes", [(2, 17), (3, 11)])
def test_hessian_adjoint_identity_on_masked_region_with_holes(dim, nodes):
    # <S u, G> = <u, S^T G> with off-diagonal slots counted twice; u is NaN
    # in the holes and G is nonzero off the mask, so neither may leak in
    rng = np.random.default_rng(12 + dim)
    g = grids.make_grid(dim, nodes, 1.0)
    valid = rng.random(g.extents) > 0.02
    valid[(slice(2, 5),) * dim] = False
    u = replace(g.with_values(np.where(valid, rng.standard_normal(g.extents), np.nan)),
                valid=valid)
    H = grids.hessian_field(u)
    mask = H.valid
    assert 0 < mask.sum() < (nodes - 2) ** dim
    G = rng.standard_normal(H.values.shape)
    adj = grids.hessian_adjoint(G[mask].T, mask, g.h)
    assert np.all(adj[~valid] == 0.0)
    lhs = np.sum(symmat.duplication_weights(dim) * H.values[mask] * G[mask])
    rhs = np.vdot(u.values[valid], adj[valid])
    assert lhs == pytest.approx(rhs, rel=1e-12)


def _unit_sign_stencils(n, h):
    """The weighted oracle stencil as (scale, [(offset, +-1), ...]) per slot, in
    the kernel's order: each weight repeated |w / scale| times."""
    return [(st[0][1], [(off, 1 if w > 0 else -1)
                        for off, w in st for _ in range(round(abs(w / st[0][1])))])
            for st in oracles.weighted_hessian_stencil(n, h)]


def _shifted_copy_hessian(u, unit=True):
    """Reference: the stencil sums over full-grid shifted copies, NaN off the
    grid; the unit signs summed in the kernel's order and scaled once, or
    (``unit=False``) the weighted terms summed."""
    weighted = oracles.weighted_hessian_stencil(u.dim, u.h)
    out = np.empty(u.extents + (len(weighted),))
    valid = np.array(u.valid, copy=True)
    for a, (st, (scale, unit_st)) in enumerate(
            zip(weighted, _unit_sign_stencils(u.dim, u.h))):
        for off, _ in st:
            if any(off):
                valid &= oracles.shifted(u.valid, off, False)
        if unit:
            out[..., a] = scale * sum(sign * oracles.shifted(u.values, off, np.nan)
                                      for off, sign in unit_st)
        else:
            out[..., a] = sum(w * oracles.shifted(u.values, off, np.nan) for off, w in st)
    out[~valid] = np.nan
    return out, valid


def _shifted_copy_adjoint(G, mask, h, unit=True):
    """Reference adjoint of packed data ``G`` (m, K) on the ``mask`` nodes,
    zero-padded and shifted; unit signs as the kernel, or weighted terms."""
    n = mask.ndim
    dup = symmat.duplication_weights(n)
    out = np.zeros(mask.shape)
    for a, (st, (scale, unit_st)) in enumerate(
            zip(oracles.weighted_hessian_stencil(n, h), _unit_sign_stencils(n, h))):
        comp = np.zeros(mask.shape)
        if unit:
            comp[mask] = (scale * dup[a]) * G[a]
            for off, sign in unit_st:
                out += sign * oracles.shifted(comp, off, 0.0)
        else:
            comp[mask] = G[a]
            for off, w in st:
                out += (dup[a] * w) * oracles.shifted(comp, off, 0.0)
    return out


def _holed_potential(dim, nodes, seed):
    rng = np.random.default_rng(seed)
    g = grids.make_grid(dim, nodes, 1.0)
    valid = rng.random(g.extents) > 0.05
    u = replace(g.with_values(np.where(valid, rng.standard_normal(g.extents), np.nan)),
                valid=valid)
    return u, rng


@pytest.mark.parametrize("dim, nodes", [(2, 15), (3, 11)])
def test_hessian_stencils_equal_shifted_copy_reference(dim, nodes):
    # the flat kernel over unit signs keeps every bit of the shifted-copy
    # sums in the same order, holes included
    u, rng = _holed_potential(dim, nodes, 70 + dim)
    H = grids.hessian_field(u)
    want, want_valid = _shifted_copy_hessian(u)
    assert np.array_equal(H.valid, want_valid) and 0 < H.valid.sum()
    assert np.array_equal(H.values, want, equal_nan=True)
    G = rng.standard_normal((H.values.shape[-1], int(H.valid.sum())))
    assert np.array_equal(grids.hessian_adjoint(G, H.valid, u.h),
                          _shifted_copy_adjoint(G, H.valid, u.h))


@pytest.mark.parametrize("dim, nodes", [(2, 15), (3, 11)])
def test_flat_hessian_stencil_matches_weighted_oracle(dim, nodes):
    # the flat unit-sign stencil against the weighted one (weights +-1/h^2,
    # -2/h^2, +-1/(4h^2) per N-d offset): only the summation order differs
    u, rng = _holed_potential(dim, nodes, 90 + dim)
    H = grids.hessian_field(u)
    want, want_valid = _shifted_copy_hessian(u, unit=False)
    assert np.array_equal(H.valid, want_valid) and 0 < H.valid.sum()
    assert np.array_equal(np.isnan(H.values), np.isnan(want))
    ok = H.valid
    assert np.abs(H.values[ok] - want[ok]).max() <= 1e-15 * np.abs(want[ok]).max()
    G = rng.standard_normal((H.values.shape[-1], int(ok.sum())))
    got = grids.hessian_adjoint(G, ok, u.h)
    want = _shifted_copy_adjoint(G, ok, u.h, unit=False)
    assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()
    # and stencil by stencil: the weights summed per flat offset agree
    scales, stencils = grids.hessian_stencil(u.extents, u.h)
    strides = np.array(H.valid.strides) // H.valid.itemsize
    for scale, st, weighted in zip(scales, stencils,
                                   oracles.weighted_hessian_stencil(dim, u.h)):
        flat = {}
        for d, sign in st:
            flat[d] = flat.get(d, 0.0) + scale * sign
        assert flat == {int(np.dot(off, strides)): w for off, w in weighted}


@pytest.mark.parametrize("dim", [2, 3])
def test_hessian_adjoint_rejects_bad_shape_and_ring_region(dim):
    g = grids.make_grid(dim, 11, 1.0)
    region = grids.hessian_field(g).valid
    m, K = symmat.packed_size(dim), int(region.sum())
    assert grids.hessian_adjoint(np.ones((m, K)), region, g.h).shape == g.extents
    for shape in [(m, K - 1), (K, m), (m - 1, K), (m, K, 1), (m * K,)]:
        with pytest.raises(GridError, match="shape"):
            grids.hessian_adjoint(np.ones(shape), region, g.h)
    # a flat offset from a ring node wraps to the next row
    for node in [(0,) * dim, (g.extents[0] - 1,) + (3,) * (dim - 1),
                 (3,) * (dim - 1) + (0,)]:
        ring = region.copy()
        ring[node] = True
        with pytest.raises(GridError, match="ring"):
            grids.hessian_adjoint(np.ones((m, K + 1)), ring, g.h)


def _per_node_shift(a, off):
    """Reference: per node x, the value at x + off and whether x + off is on the grid."""
    vals = np.zeros(a.shape)
    inside = np.zeros(a.shape, dtype=bool)
    for x in np.ndindex(*a.shape):
        y = tuple(i + o for i, o in zip(x, off))
        if all(0 <= j < s for j, s in zip(y, a.shape)):
            vals[x], inside[x] = a[y], True
    return vals, inside


@pytest.mark.parametrize("shape", [(5,), (4, 6), (3, 4, 5)])
def test_offset_slices_match_per_node_shift(shape):
    # offsets inside the grid, at its edge (|o| = extent - 1) and beyond it
    a = np.arange(1.0, 1.0 + np.prod(shape)).reshape(shape)
    pair = np.stack([a, -a], axis=-1)
    for off in itertools.product(*(range(-s - 1, s + 2) for s in shape)):
        want, inside = _per_node_shift(a, off)
        src, dst = grids.offset_slices(off, shape)
        got = np.zeros(shape)
        covered = np.zeros(shape, dtype=bool)
        got[dst], covered[dst] = a[src], True
        assert np.array_equal(covered, inside), off
        assert np.array_equal(got, want), off
        assert np.array_equal(oracles.shifted(a, off, -7.0), np.where(inside, want, -7.0))
        # trailing axes past the offset stay whole
        src, dst = grids.offset_slices(off, pair.shape)
        assert np.array_equal(pair[src][..., 1], -a[src])


def test_hessian_second_order_convergence_on_sine():
    # analytic oracle: d^2/dx^2 sin(x) = -sin(x)
    errs = []
    for nodes in (17, 33, 65):
        g = grids.make_grid(2, nodes, 1.0)
        H = grids.hessian_field(grids.sample(g, lambda x, y: np.sin(x)))
        X = g.coords()[0]
        err = np.abs(H.values[..., 0] - (-np.sin(X)))
        errs.append(err[H.valid].max())
    orders = [np.log2(errs[k] / errs[k + 1]) for k in range(2)]
    assert min(orders) >= 1.9


def test_difference_quotient_linear_and_quadratic():
    g = grids.make_grid(2, 17, 1.0)
    f = grids.difference_quotient(grids.sample(g, lambda x, y: 3.0 * x - y), 0)
    np.testing.assert_allclose(f.values[f.valid], 3.0, atol=1e-12)

    step = 2
    f = grids.difference_quotient(grids.sample(g, lambda x, y: x**2), 0, step=step)
    X = g.coords()[0]
    expected = 2.0 * X + step * g.h
    np.testing.assert_allclose(f.values[f.valid], expected[f.valid], atol=1e-12)


def test_difference_quotient_first_order_rate():
    # analytic gradient oracle for u = sin(x + 2y)
    g = grids.make_grid(2, 65, 1.0)
    u = grids.sample(g, lambda x, y: np.sin(x + 2 * y))
    X = g.coords()[0]
    Y = g.coords()[1]
    errs = []
    for step in (8, 4, 2, 1):
        f = grids.difference_quotient(u, 0, step=step)
        err = np.abs(f.values - np.cos(X + 2 * Y))
        errs.append(err[f.valid].max())
    rates = [errs[k] / errs[k + 1] for k in range(3)]
    assert min(rates) > 1.8  # halving the step halves the error


def test_difference_quotient_shift_too_large():
    g = grids.make_grid(2, 11, 1.0)
    with pytest.raises(GridError):
        grids.difference_quotient(grids.sample(g, lambda x, y: x), 0, step=11)


@pytest.mark.parametrize("dim, nodes", [(2, 17), (3, 11)])
def test_difference_quotient_equals_shifted_copy_reference(dim, nodes):
    # one offset-slice pair gives the bits of the two full-grid shifted copies
    rng = np.random.default_rng(20 + dim)
    g = grids.make_grid(dim, nodes, 1.0)
    for u in (g.with_values(rng.standard_normal(g.extents)),
              replace(g.with_values(rng.standard_normal(g.extents)),
                      valid=rng.random(g.extents) > 0.1)):
        u = u.with_values(np.where(u.valid, u.values, np.nan))
        for direction in range(dim):
            for step in (1, 3):
                got = grids.difference_quotient(u, direction, step)
                want = oracles.difference_quotient(u, direction, step)
                assert np.array_equal(got.valid, want.valid)
                assert 0 < got.valid.sum() < u.valid.sum()
                assert np.array_equal(got.values, want.values, equal_nan=True)


def test_difference_quotient_commutes_with_hessian():
    rng = np.random.default_rng(12)
    g = grids.make_grid(2, 21, 1.0)
    u = g.with_values(rng.standard_normal(g.extents))
    a = grids.hessian_field(grids.difference_quotient(u, 1))
    b = oracles.field_difference_quotient(grids.hessian_field(u), 1)
    both = a.valid & b.valid
    assert both.any()
    np.testing.assert_allclose(a.values[both], b.values[both], atol=1e-10)


def test_integrate_ball_area():
    g = grids.make_grid(2, 65, 1.0)  # h = 1/32, r/h = 12
    ball = Ball(center=(0.0, 0.0), radius=0.375)
    val = grids.integrate(np.ones(g.extents), g, ball)
    assert abs(val - np.pi * 0.375**2) <= 0.05 * np.pi * 0.375**2


def test_integrate_odd_function_cancels():
    g = grids.make_grid(2, 33, 1.0)
    ball = Ball(center=(0.0, 0.0), radius=0.5)
    X = g.coords()[0]
    assert abs(grids.integrate(X, g, ball)) < 1e-12


def test_integrate_square_counting_oracle():
    # Exact value of the h^n node sum of x^2 over the interior box, derived by
    # 1-d summation: sum_{k=-K..K} (kh)^2 h = 2/3 a^3 + a^2 h + a h^2 / 3 over
    # [-a, a] with a = K h.  The grid covers [-1, 1]^2 with two prescribed
    # rings, so the interior spans a = 1 - 2h per axis.
    for nodes in (33, 65):
        g = grids.make_grid(2, nodes, 1.0)
        h = g.h
        a = 1.0 - 2 * h
        X = g.coords()[0]
        val = grids.integrate(X**2, g)
        one_d_x2 = (2.0 / 3.0) * a**3 + a**2 * h + a * h**2 / 3.0
        one_d_1 = 2.0 * a + h
        np.testing.assert_allclose(val, one_d_x2 * one_d_1, rtol=1e-12)
        # node sums approximate the integral over the interior box to O(h):
        # edge nodes carry full h^n weight, an inherent half-cell overshoot
        assert abs(val - (4.0 / 3.0) * a**4) <= 3.0 * h


def test_integrate_is_linear_and_monotone():
    rng = np.random.default_rng(13)
    g = grids.make_grid(2, 17, 1.0)
    f1 = rng.random(g.extents)
    f2 = rng.random(g.extents)
    i1 = grids.integrate(f1, g)
    i2 = grids.integrate(f2, g)
    i12 = grids.integrate(2.0 * f1 + 3.0 * f2, g)
    np.testing.assert_allclose(i12, 2.0 * i1 + 3.0 * i2, rtol=1e-12)
    assert grids.integrate(f1 + f2, g) >= i1  # monotone on nonnegative data


def test_integrate_empty_region_raises():
    g = grids.make_grid(2, 17, 1.0)
    with pytest.raises(EmptyRegionError):
        grids.integrate(np.ones(g.extents), g, Ball(center=(10.0, 10.0), radius=0.1))


def _full_grid_ball_nodes(g, ball):
    """Node indices with |x - c|^2 <= r^2 (1 + 1e-12), tested on the whole grid."""
    dist2 = np.zeros(g.extents)
    for axis in range(g.dim):
        shape = [1] * g.dim
        shape[axis] = -1
        dist2 = dist2 + ((g.axis_coords(axis) - ball.center[axis]) ** 2).reshape(shape)
    return np.argwhere(dist2 <= ball.radius**2 * (1.0 + 1e-12))


@pytest.mark.parametrize("dim, nodes", [(2, 23), (3, 13)])
def test_ball_window_selects_full_grid_ball_nodes_in_order(dim, nodes):
    rng = np.random.default_rng(40 + dim)
    g = grids.make_grid(dim, nodes, 1.0)
    g = g.with_values(rng.standard_normal(g.extents))
    h = g.h
    node = g.origin + h * rng.integers(0, nodes, size=(6, dim))
    off_node = g.origin + (nodes - 1) * h * rng.random((6, dim))
    edge = np.array([[-1.0] * dim, [1.0 - 0.3 * h] * dim])
    centers = np.concatenate([node, off_node, edge])
    radii = [k * h for k in (1, 2, 3, 5, 8)] + [0.37, 1.3, 4.0]
    outside = Ball(center=(3.0,) * dim, radius=0.5)
    for ball in [Ball(center=tuple(c), radius=r) for c in centers for r in radii] + [outside]:
        (members, rows), = grids.ball_chunks(g, [ball])
        want = _full_grid_ball_nodes(g, ball)
        assert members.tolist() == [0] and rows.shape == (1, len(want))
        np.testing.assert_array_equal(rows[0], np.ravel_multi_index(tuple(want.T), g.extents))
        assert np.array_equal(g.values.reshape(-1)[rows[0]], g.values[tuple(want.T)])
    assert len(_full_grid_ball_nodes(g, outside)) == 0
    with pytest.raises(EmptyRegionError):
        grids.integrate(np.ones(g.extents), g, outside)


@pytest.mark.parametrize("dim, nodes, half_width", [
    (2, 33, 1.0), (2, 41, 1.0), (2, 30, 0.7), (2, 100, 0.5), (3, 23, 0.5), (3, 25, 1.3),
])
def test_ball_chunks_list_ball_window_nodes(dim, nodes, half_width, monkeypatch):
    g = grids.make_grid(dim, nodes, half_width)
    h = g.h
    # node-centred families at radii k h (8h/4h, 6h/3h) and off the lattice
    families = [grids.ball_family(g, 3, r_min=3 * h, r_max=k * h).balls
                for k in (8, 6, 7.3, 5.55)]
    extra = (Ball(center=(0.1 * h,) * dim, radius=3.3 * h),       # off-node centre
             Ball(center=tuple(g.origin + h), radius=4 * h),      # cut by the grid edge
             Ball(center=(3.0 * half_width,) * dim, radius=h))   # misses the grid
    balls = sum(families, ()) + extra
    seen = np.zeros(len(balls), dtype=int)
    for members, nodes_ in grids.ball_chunks(g, balls):
        assert len(members) == 1 or nodes_.size <= grids.BALL_CHUNK
        for k, row in zip(members, nodes_):
            want = np.ravel_multi_index(tuple(_full_grid_ball_nodes(g, balls[k]).T), g.extents)
            np.testing.assert_array_equal(row, want)
            seen[k] += 1
    assert (seen == 1).all()
    monkeypatch.setattr(grids, "BALL_CHUNK", 1 << 40)
    for fam in families:
        # one group, hence one chunk, per radius
        assert len(list(grids.ball_chunks(g, fam))) == len({b.radius for b in fam})
    for r in (3 * h, 4 * h, 3.3 * h, 5.55 * h):
        c = (nodes // 2,) * dim
        want = _full_grid_ball_nodes(g, Ball(center=tuple(g.origin + h * np.array(c)),
                                             radius=r)) - c
        assert grids.node_ball_offsets(r, h, dim) == [tuple(o) for o in want.tolist()]


@pytest.mark.parametrize("r_max, r_min", [
    (1.0, 0.0), (1.0, -0.25), (1.0, np.nan), (1.0, np.inf), (np.inf, 0.1), (np.nan, 0.1),
])
def test_dyadic_radii_rejects_unusable_bounds(r_max, r_min):
    # halving from r_max never ends above r_min <= 0 or from an infinite r_max
    with pytest.raises(GridError, match="dyadic radii"):
        grids.dyadic_radii(r_max, r_min)


def test_ball_family_single_ball():
    g = grids.make_grid(2, 33, 1.0)
    fam = grids.ball_family(g, center_stride=0, r_min=0.25, r_max=0.25)
    assert len(fam) == 1
    assert fam.balls[0].radius == 0.25


def test_ball_family_rejects_inverted_radii():
    g = grids.make_grid(2, 33, 1.0)
    with pytest.raises(GridError):
        grids.ball_family(g, center_stride=0, r_min=0.5, r_max=0.25)


def test_ball_family_counting_oracle():
    g = grids.make_grid(2, 65, 1.0)
    stride, r_min, r_max = 4, 0.1, 0.4
    fam = grids.ball_family(g, center_stride=stride, r_min=r_min, r_max=r_max)

    # independent enumeration: interior box, strided centers, dyadic radii
    h = g.h
    lo = -1.0 + 2 * h
    hi = 1.0 - 2 * h
    coords = g.axis_coords(0)
    inside = coords[(coords >= lo - 1e-12) & (coords <= hi + 1e-12)][::stride]
    radii = []
    r = r_max
    while r >= r_min * (1 - 1e-12):
        radii.append(r)
        r /= 2
    count = 0
    for cx in inside:
        for cy in inside:
            for r in radii:
                if (cx - r >= lo - 1e-12 and cx + r <= hi + 1e-12
                        and cy - r >= lo - 1e-12 and cy + r <= hi + 1e-12):
                    count += 1
    assert len(fam) == count
    for b in fam:
        assert grids.balls_fit(g, [b.center], [b.radius]).all()


def test_nodal_and_bump_tests_vanish_off_interior():
    g = grids.make_grid(2, 21, 1.0)
    tset = oracles.nodal_tests(g, stride=37)
    assert len(tset) >= 1
    bset = grids.bump_tests(g, centers=[(0.0, 0.0)], scale=0.5)
    f = bset.functions[0]
    assert np.all(f[~g.interior] == 0.0)
    assert f.max() > 0.1
    H = grids.hessian_field(g.with_values(f))
    assert np.isfinite(H.values[H.valid]).all()


def test_bump_must_fit_interior():
    g = grids.make_grid(2, 21, 1.0)
    with pytest.raises(GridError):
        grids.bump_tests(g, centers=[(0.5, 0.5)], scale=0.8)


def test_bump_label_and_error_print_plain_floats():
    # numpy scalars would print as np.float64(...) under numpy 2
    g = grids.make_grid(2, 21, 1.0)
    centre = np.array([0.0, 0.1])
    bset = grids.bump_tests(g, centers=[centre], scale=0.5)
    assert bset.labels == ("bump@(0.0, 0.1)",)
    with pytest.raises(GridError) as err:
        grids.bump_tests(g, centers=[centre], scale=5.0)
    assert "bump at (0.0, 0.1) with scale 5.0" in str(err.value)
    assert "np.float64" not in str(err.value)


def test_bounding_box_matches_node_extremes():
    rng = np.random.default_rng(7)
    mask = np.zeros((9, 11, 7), dtype=bool)
    mask[2:6, 3:10, 1:5] = rng.random((4, 7, 4)) < 0.3
    mask[2, 3, 1] = mask[5, 9, 4] = True
    assert grids.bounding_box(mask) == (slice(2, 6), slice(3, 10), slice(1, 5))
    with pytest.raises(EmptyRegionError):
        grids.bounding_box(np.zeros((4, 4), dtype=bool))


def test_cropped_grid_after_difference_quotient():
    g = grids.make_grid(2, 21, 1.0)
    u = grids.sample(g, lambda x, y: x**3 * y)
    f = grids.difference_quotient(u, 0)
    c = oracles.cropped(f)
    assert c.extents == (20, 21)
    assert c.valid.all()
    # cropping preserves node coordinates
    np.testing.assert_allclose(c.axis_coords(0), f.axis_coords(0)[:20])
