import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import sympy

from hessvar import grids, hamstat, models, solver, symmat

import oracles


def random_sym(rng, count, n, scale=1.0):
    A = rng.standard_normal((count, n, n)) * scale
    return 0.5 * (A + np.swapaxes(A, -1, -2))


def harmonic_cubic(x, y):
    return x**3 - 3.0 * x * y**2


def geometry(u):
    return hamstat.graph_geometry(grids.hessian_field(u))


# ------------------------------------------------------------------ metric

def test_induced_metric_flat_and_diagonal():
    g = grids.make_grid(2, 17, 1.0)
    zero = grids.SymMatField(h=g.h, origin=g.origin,
                             values=np.zeros(g.extents + (3,)))
    met = hamstat.graph_geometry(zero)
    np.testing.assert_allclose(met.sqrt_det, 1.0)
    np.testing.assert_allclose(symmat.unpack(met.g),
                               np.broadcast_to(np.eye(2), g.extents + (2, 2)))
    a, b = 0.8, -0.4
    diag = zero.with_values(np.broadcast_to(
        symmat.pack(np.diag([a, b])), g.extents + (3,)).copy())
    met = hamstat.graph_geometry(diag)
    want = np.sqrt((1 + a**2) * (1 + b**2))
    np.testing.assert_allclose(met.sqrt_det, want, rtol=1e-14)


def test_induced_metric_against_lapack_oracle():
    rng = np.random.default_rng(70)
    g = grids.make_grid(2, 13, 1.0)
    vals = rng.standard_normal(g.extents + (3,))
    f = grids.SymMatField(h=g.h, origin=g.origin, values=vals)
    met = hamstat.graph_geometry(f)
    M = f.matrices()
    G = np.broadcast_to(np.eye(2), M.shape) + M @ M
    np.testing.assert_allclose(symmat.unpack(met.g_inv), np.linalg.inv(G),
                               rtol=1e-12, atol=1e-14)
    np.testing.assert_allclose(met.sqrt_det, np.sqrt(np.linalg.det(G)),
                               rtol=1e-12)


def test_volume_integrand_values_and_eigen_oracle():
    assert hamstat.volume_integrand(np.zeros((2, 2))) == 1.0
    assert hamstat.volume_integrand(np.diag([1.0, 1.0])) == pytest.approx(2.0)
    rng = np.random.default_rng(71)
    M = random_sym(rng, 40, 3, scale=1.2)
    lam = np.linalg.eigvalsh(M)
    want = np.sqrt(np.prod(1 + lam**2, axis=-1))
    np.testing.assert_allclose(hamstat.volume_integrand(M), want, rtol=1e-12)


def test_volume_and_phase_rotation_invariance():
    rng = np.random.default_rng(72)
    for n in (2, 3):
        M = random_sym(rng, 30, n)
        R = symmat.haar_rotations(rng, 30, n)
        M_rot = np.einsum("bji,bjk,bkl->bil", R, M, R)
        np.testing.assert_allclose(hamstat.volume_integrand(M_rot),
                                   hamstat.volume_integrand(M), rtol=1e-12)
        th = np.arctan(symmat.sym_eigvals(M)).sum(axis=-1)
        th_rot = np.arctan(symmat.sym_eigvals(M_rot)).sum(axis=-1)
        np.testing.assert_allclose(th_rot, th, atol=1e-12)


# ------------------------------------------------------------------- phase

def test_phase_simple_values():
    g = grids.make_grid(2, 17, 1.0)
    zeros = grids.SymMatField(h=g.h, origin=g.origin,
                              values=np.zeros(g.extents + (3,)))
    assert np.all(hamstat.graph_geometry(zeros).theta == 0.0)
    ident = zeros.with_values(np.broadcast_to(
        symmat.pack(np.eye(2)), g.extents + (3,)).copy())
    np.testing.assert_allclose(hamstat.graph_geometry(ident).theta,
                               np.pi / 2, rtol=1e-14)


def test_phase_vanishes_for_harmonic_cubic():
    g = grids.make_grid(2, 33, 1.0)
    phase = geometry(grids.sample(g, harmonic_cubic))
    assert np.abs(phase.theta[phase.valid]).max() < 1e-12


def test_phase_strictly_below_bound():
    rng = np.random.default_rng(73)
    g = grids.make_grid(2, 13, 1.0)
    f = grids.SymMatField(h=g.h, origin=g.origin,
                          values=20.0 * rng.standard_normal(g.extents + (3,)))
    phase = hamstat.graph_geometry(f)
    assert np.abs(phase.theta[phase.valid]).max() < 2 * np.pi / 2
    # recomputable from the stored eigenvalues
    np.testing.assert_allclose(
        phase.theta[phase.valid],
        np.arctan(phase.eigenvalues[phase.valid]).sum(axis=-1), rtol=1e-14)


# ------------------------------------------------------- weak residual

def test_hamstat_residual_zero_for_constant_hessian():
    g = grids.make_grid(2, 21, 1.0)
    u = grids.sample(g, lambda x, y: 0.2 * x**2 - 0.1 * x * y + 0.3 * y**2)
    tests = grids.bump_tests(g, [(0.0, 0.0), (0.2, -0.1)], scale=0.4)
    res = hamstat.hamstat_residual(geometry(u), tests)
    assert np.abs(res).max() < 1e-13


def test_hamstat_residual_equals_area_gradient_pairing():
    rng = np.random.default_rng(74)
    for dim, nodes in ((2, 17), (3, 11)):
        g = grids.make_grid(dim, nodes, 1.0)
        tests = grids.bump_tests(g, [(0.0,) * dim, (0.15, 0.1) + (0.0,) * (dim - 2)],
                                 scale=0.35)
        for _ in range(5):
            u = g.with_values(0.2 * rng.standard_normal(g.extents))
            res = hamstat.hamstat_residual(geometry(u), tests)
            grad = solver.energy_gradient(u, models.area_model(dim))
            want = np.array([float((grad * eta).sum()) for eta in tests])
            np.testing.assert_allclose(res, want, rtol=1e-11, atol=1e-13)


@pytest.mark.parametrize("dim, nodes", [(2, 17), (3, 11)])
def test_hamstat_residual_equals_double_divergence_oracle(dim, nodes):
    # sqrt(det g) g^{-1} D^2 u is the coefficient tensor contracted with D^2 u
    rng = np.random.default_rng(81 + dim)
    g = grids.make_grid(dim, nodes, 1.0)
    tests = grids.bump_tests(g, [(0.0,) * dim, (-0.1,) * dim], scale=0.3)
    for _ in range(3):
        u = g.with_values(0.2 * rng.standard_normal(g.extents))
        np.testing.assert_allclose(hamstat.hamstat_residual(geometry(u), tests),
                                   oracles.hamstat_residual(u, tests), rtol=1e-12)


def test_hamstat_residual_memory_stays_a_few_matrix_fields():
    # the per-node (n, n, n, n) coefficient tensor alone is 9 (K, 3, 3) arrays
    rng = np.random.default_rng(83)
    g = grids.make_grid(3, 17, 1.0)
    u = g.with_values(0.2 * rng.standard_normal(g.extents))
    tests = grids.bump_tests(g, [(0.0, 0.0, 0.0)], scale=0.5)
    K = int(grids.hessian_field(u).valid.sum())
    tracemalloc.start()
    try:
        hamstat.hamstat_residual(geometry(u), tests)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 12 * np.zeros((K, 3, 3)).nbytes


def test_graph_geometry_peak_memory_is_within_seven_field_copies():
    # the record's arrays and the component-major copy; every kernel
    # temporary is one node block
    g = grids.make_grid(3, 33, 1.0)
    H = grids.hessian_field(grids.sample(g, lambda x, y, z: 0.3 * (x**3 * y + x * y**3)))
    tracemalloc.start()
    try:
        geom = hamstat.graph_geometry(H)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.isfinite(geom.theta[H.valid]).all()
    assert peak <= 7 * H.values.nbytes, peak / H.values.nbytes


def test_hamstat_residual_roundoff_on_harmonic_cubic():
    # the harmonic cubic has zero phase, hence is volume-critical; its
    # discrete Hessian is exact and trace-free, so the residual sits at
    # round-off for every h (the area gradient of a trace-free 2x2 matrix
    # collapses to the matrix itself, and the stencils annihilate cubics)
    for nodes in (33, 65):
        g = grids.make_grid(2, nodes, 1.0)
        u = grids.sample(g, lambda x, y: 0.1 * harmonic_cubic(x, y))
        tests = grids.bump_tests(g, [(0.0, 0.0)], scale=0.5)
        assert np.abs(hamstat.hamstat_residual(geometry(u), tests)).max() < 1e-13


def test_hamstat_residual_hats_match_gradient_nodewise():
    rng = np.random.default_rng(79)
    g = grids.make_grid(2, 13, 1.0)
    u = g.with_values(0.3 * rng.standard_normal(g.extents))
    hats = oracles.nodal_tests(g, stride=5)
    res = hamstat.hamstat_residual(geometry(u), hats)
    grad = solver.energy_gradient(u, models.area_model(2))
    picked = np.argwhere(g.interior & g.valid)[::5]
    want = np.array([grad[tuple(node)] for node in picked])
    np.testing.assert_allclose(res, want, rtol=1e-12, atol=1e-14)


def test_hamstat_residual_second_order_on_transcendental_harmonic():
    # every 2D harmonic potential is volume-critical; exp(x) cos(y) is not
    # annihilated by the stencils, so the residual decays at second order
    vals = {}
    for nodes in (33, 65):
        g = grids.make_grid(2, nodes, 1.0)
        u = grids.sample(g, lambda x, y: 0.1 * np.exp(x) * np.cos(y))
        tests = grids.bump_tests(g, [(0.0, 0.0)], scale=0.5)
        vals[nodes] = np.abs(hamstat.hamstat_residual(geometry(u), tests)).max()
    order = np.log2(vals[33] / vals[65])
    assert order >= 1.8


def test_hamstat_linearization_is_legendre_positive_for_small_hessian():
    rng = np.random.default_rng(75)
    dd = oracles.hamstat_dd_model(2)
    for _ in range(5):
        M = random_sym(rng, 1, 2, scale=0.05)[0]
        Ms = random_sym(rng, 1, 2, scale=0.05)[0]
        b = oracles.linearized_coefficients_dd(dd, M, Ms, quad_nodes=4)
        # eigen-solver oracle over sampled directions
        sig = random_sym(rng, 200, 2)
        vals = oracles.tensor_pair(np.broadcast_to(b, (200,) + b.shape), sig, sig)
        norms = symmat.hs_inner(sig, sig)
        assert (vals / norms).min() > 0.5
        assert oracles.tensor_min_eig(b) > 0.5


def test_hamstat_linearization_degenerate_segment_matches_area_tensor():
    rng = np.random.default_rng(76)
    dd = oracles.hamstat_dd_model(2)
    M = random_sym(rng, 1, 2, scale=0.2)[0]
    b = oracles.linearized_coefficients_dd(dd, M, M, quad_nodes=4)
    T = models.eval_d2F(models.area_model(2), M)
    np.testing.assert_allclose(b, T, rtol=1e-5, atol=1e-7)


# -------------------------------------------------------- Laplace-Beltrami

def flat_metric(g):
    zero = grids.SymMatField(h=g.h, origin=g.origin,
                             values=np.zeros(g.extents + (3,)))
    return hamstat.graph_geometry(zero)


def test_laplace_beltrami_flat_quadratics_exact():
    g = grids.make_grid(2, 17, 1.0)
    met = flat_metric(g)
    X, Y = g.coords()
    vals, valid = hamstat.laplace_beltrami(X**2, met)
    np.testing.assert_allclose(vals[valid], 2.0, atol=1e-11)
    vals, valid = hamstat.laplace_beltrami(X**2 - Y**2, met)
    np.testing.assert_allclose(vals[valid], 0.0, atol=1e-11)


def test_laplace_beltrami_conformal_metric_symbolic_oracle():
    # g = c I from the Hessian diag(s, s) with c = 1 + s^2; for quadratic
    # scalars the flux scheme reproduces the symbolic value c^{-1} Lap(phi)
    s = 0.75
    c = 1.0 + s * s
    g = grids.make_grid(2, 17, 1.0)
    conf = grids.SymMatField(
        h=g.h, origin=g.origin,
        values=np.broadcast_to(symmat.pack(np.diag([s, s])),
                               g.extents + (3,)).copy())
    met = hamstat.graph_geometry(conf)

    xs, ys = sympy.symbols("x y")
    for expr in (xs * ys, xs**2 + xs * ys - 0.5 * ys**2):
        lap = sympy.diff(expr, xs, 2) + sympy.diff(expr, ys, 2)
        want_fn = sympy.lambdify((xs, ys), lap / c, "numpy")
        phi_fn = sympy.lambdify((xs, ys), expr, "numpy")
        X, Y = g.coords()
        vals, valid = hamstat.laplace_beltrami(phi_fn(X, Y), met)
        want = np.broadcast_to(np.asarray(want_fn(X, Y), dtype=float), g.extents)
        np.testing.assert_allclose(vals[valid], want[valid], atol=1e-10)


def laplace_beltrami_expanded(phi, u):
    """Non-divergence expansion g^{ij} d_ij - g^{jp} Theta_q u_{pq} d_j.

    Reference for the conservative form, with central differences for the
    phase gradient and the first derivatives of phi.
    """
    geom = geometry(u)
    H, theta = geom.H, geom.theta
    n, h = u.dim, u.h
    ginv = symmat.unpack(geom.g_inv)
    Hphi = grids.hessian_field(u.with_values(phi)).matrices()
    term1 = np.einsum("...ij,...ij->...", ginv, Hphi)
    unit = np.eye(n, dtype=int)

    def central(v, q):
        return (oracles.shifted(v, tuple(unit[q]), np.nan)
                - oracles.shifted(v, tuple(-unit[q]), np.nan)) / (2 * h)

    dtheta = np.stack([central(theta, q) for q in range(n)], axis=-1)
    dphi = np.stack([central(phi, j) for j in range(n)], axis=-1)
    drift = np.einsum("...jp,...q,...pq->...j", ginv, dtheta, H.matrices())
    out = term1 - np.einsum("...j,...j->...", drift, dphi)
    valid = np.array(H.valid)
    for off in np.ndindex(*(3,) * n):
        d = tuple(int(v) - 1 for v in off)
        if any(d):
            valid &= oracles.shifted(H.valid, d, False)
    out[~valid] = np.nan
    return out, valid


def test_laplace_beltrami_expanded_form_cross_validates():
    diffs = {}
    for nodes in (33, 65):
        g = grids.make_grid(2, nodes, 1.0)
        u = grids.sample(g, lambda x, y: 0.2 * np.sin(x) * np.cos(y))
        X, Y = g.coords()
        phi = np.sin(X + 0.5 * Y)
        met = geometry(u)
        a, va = hamstat.laplace_beltrami(phi, met)
        b, vb = laplace_beltrami_expanded(phi, u)
        both = va & vb
        diffs[nodes] = np.abs(a - b)[both].max()
    assert diffs[33] / diffs[65] >= 3.0  # both are O(h^2) of the same operator


@pytest.mark.parametrize("dim, nodes, holes", [(2, 33, False), (2, 33, True),
                                               (3, 15, False), (3, 15, True)])
def test_laplace_beltrami_equals_shifted_copy_reference(dim, nodes, holes):
    # padded views give the bits of the full-grid shifted copies, holes included
    rng = np.random.default_rng(80 + dim)
    g = grids.make_grid(dim, nodes, 1.0)
    u = grids.sample(g, lambda *x: 0.3 * x[0] ** 3 * x[1] + 0.1 * np.sin(2 * x[-1]))
    if holes:
        valid = rng.random(g.extents) > 0.02
        u = replace(u.with_values(np.where(valid, u.values, np.nan)), valid=valid)
    geom = geometry(u)
    phi = geom.theta
    got, got_valid = hamstat.laplace_beltrami(phi, geom)
    want, want_valid = oracles.laplace_beltrami(phi, geom)
    assert np.array_equal(got_valid, want_valid)
    assert 0 < got_valid.sum() < geom.valid.sum()
    assert np.array_equal(got, want, equal_nan=True)


# ------------------------------------------------ phase harmonicity

def test_phase_harmonicity_zero_for_quadratic():
    g = grids.make_grid(2, 21, 1.0)
    u = grids.sample(g, lambda x, y: 0.15 * x**2 + 0.05 * x * y - 0.1 * y**2)
    res = hamstat.phase_harmonicity_residual(geometry(u))
    # constant phase up to round-off, amplified by the 1/h^2 of the operator
    assert res.sup < 1e-11


def test_phase_harmonicity_roundoff_for_harmonic_cubic():
    g = grids.make_grid(2, 33, 1.0)
    u = grids.sample(g, lambda x, y: 0.1 * harmonic_cubic(x, y))
    res = hamstat.phase_harmonicity_residual(geometry(u))
    assert res.sup < 1e-11  # identically zero phase, not merely O(h^2)


# ---------------------------------------------------- volume derivatives

def test_closed_form_dV_simple_values():
    dv = hamstat.closed_form_dV(np.zeros(2))
    assert np.all(dv.first == 0.0)
    np.testing.assert_allclose(dv.second, np.eye(2))

    dv = hamstat.closed_form_dV(np.array([1.0, 1.0]))
    assert dv.V == pytest.approx(2.0)
    np.testing.assert_allclose(dv.second,
                               np.array([[0.5, 0.5], [0.5, 0.5]]), rtol=1e-14)


def test_closed_form_dV_matches_finite_differences():
    rng = np.random.default_rng(77)
    for n in (2, 3):
        lam = rng.uniform(-1.5, 1.5, size=(20, n))
        dv = hamstat.closed_form_dV(lam)

        def V(l):
            return np.sqrt(np.prod(1 + l**2, axis=-1))

        eps = 1e-5
        for i in range(n):
            ei = np.zeros(n)
            ei[i] = 1.0
            fd = (V(lam + eps * ei) - V(lam - eps * ei)) / (2 * eps)
            fd2 = (V(lam + eps / 2 * ei) - V(lam - eps / 2 * ei)) / eps
            rich = (4 * fd2 - fd) / 3
            np.testing.assert_allclose(dv.first[:, i], rich, rtol=1e-8)
            for j in range(n):
                ej = np.zeros(n)
                ej[j] = 1.0

                def hess(e):
                    return (
                        V(lam + e * (ei + ej)) - V(lam + e * (ei - ej))
                        - V(lam - e * (ei - ej)) + V(lam - e * (ei + ej))
                    ) / (4 * e * e)

                rich2 = (4 * hess(1e-3) - hess(2e-3)) / 3
                np.testing.assert_allclose(dv.second[:, i, j], rich2,
                                           rtol=1e-7, atol=1e-9)


def test_closed_form_dV_rewriting_identity():
    rng = np.random.default_rng(78)
    lam = rng.uniform(-2.0, 2.0, size=(50, 3))
    dv = hamstat.closed_form_dV(lam)
    e = lam / (1 + lam * lam)
    lhs = dv.second / dv.V[..., None, None]
    want = e[..., :, None] * e[..., None, :]
    for i in range(3):
        want[..., i, i] = 1.0 / (1 + lam[..., i] ** 2) - 2 * e[..., i] ** 2 \
            + e[..., i] ** 2
    np.testing.assert_allclose(lhs, want, rtol=1e-12, atol=1e-14)


# ------------------------------------------------------------- certificate

def test_certificate_near_degenerate_margin():
    cert = hamstat.convexity_certificate(0.999, 2, 200, seed=5)
    assert cert.C_eta == pytest.approx(1.0, abs=5e-3)
    assert cert.min_eig == pytest.approx(1.0, abs=5e-3)
    assert cert.diagonal_check


def test_certificate_eta_point_one():
    cert = hamstat.convexity_certificate(0.1, 2, 2000, seed=6)
    assert cert.C_eta == pytest.approx(0.0580, abs=5e-4)
    assert cert.diagonal_check
    assert cert.min_eig > 0.0


def test_certificate_deterministic_and_serializable():
    a = hamstat.convexity_certificate(0.25, 3, 500, seed=7)
    b = hamstat.convexity_certificate(0.25, 3, 500, seed=7)
    assert a == b
    d = a.to_dict()
    assert d["diagonal_check"] == "pass"
    assert d["samples"] == 500


def test_certificate_rejects_bad_eta():
    with pytest.raises(ValueError):
        hamstat.convexity_certificate(1.5, 2, 10)
