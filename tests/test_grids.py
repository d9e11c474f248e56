from dataclasses import replace

import numpy as np
import pytest

from hessvar import grids, symmat
from hessvar.grids import Ball, GridError, EmptyRegionError


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
    mask = g.domain_mask
    counts = {int(v): int((mask == v).sum()) for v in (0, 1, 2)}
    assert sum(counts.values()) == 15 * 15
    # ghost ring is the outer frame
    assert counts[2] == 15 * 15 - 13 * 13
    # boundary is the next ring in (boundary_width = 2)
    assert counts[1] == 13 * 13 - 11 * 11
    assert counts[0] == 11 * 11
    assert g.interior.sum() == counts[0]


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
    adj = grids.hessian_adjoint(G, mask, g.h)
    assert np.all(adj[~valid] == 0.0)
    lhs = np.sum(symmat.duplication_weights(dim) * H.values[mask] * G[mask])
    rhs = np.vdot(u.values[valid], adj[valid])
    assert lhs == pytest.approx(rhs, rel=1e-12)


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


def test_difference_quotient_commutes_with_hessian():
    rng = np.random.default_rng(12)
    g = grids.make_grid(2, 21, 1.0)
    u = g.with_values(rng.standard_normal(g.extents))
    a = grids.hessian_field(grids.difference_quotient(u, 1))
    b = grids.field_difference_quotient(grids.hessian_field(u), 1)
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
    for c in centers:
        for r in radii:
            ball = Ball(center=tuple(c), radius=r)
            box, mask = grids.ball_window(g, ball)
            start = np.array([sl.start for sl in box])
            want = _full_grid_ball_nodes(g, ball)
            np.testing.assert_array_equal(np.argwhere(mask) + start, want)
            assert np.array_equal(g.values[box][mask], g.values[tuple(want.T)])
    outside = Ball(center=(3.0,) * dim, radius=0.5)
    box, mask = grids.ball_window(g, outside)
    assert mask.size == 0 and len(_full_grid_ball_nodes(g, outside)) == 0
    with pytest.raises(EmptyRegionError):
        grids.integrate(np.ones(g.extents), g, outside)


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
        assert grids.ball_fits(g, b)


def test_nodal_and_bump_tests_vanish_off_interior():
    g = grids.make_grid(2, 21, 1.0)
    tset = grids.nodal_tests(g, stride=37)
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
    c = f.cropped()
    assert c.extents == (20, 21)
    assert c.valid.all()
    # cropping preserves node coordinates
    np.testing.assert_allclose(c.axis_coords(0), f.axis_coords(0)[:20])
