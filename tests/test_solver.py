from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from hessvar import grids, models, solver, symmat
from hessvar.grids import Ball
from hessvar.models import AdmissibilityError
from hessvar.solver import ClampedBoundaryData

# independent 13-point stencil of the 2D energy operator:
# (d_xx)^2 + (d_yy)^2 + 2 * (wide d_xx)(wide d_yy), weights in units of 1/h^4
BILAPLACIAN_13 = {
    (0, 0): 12.5,
    (1, 0): -4.0, (-1, 0): -4.0, (0, 1): -4.0, (0, -1): -4.0,
    (2, 0): 0.75, (-2, 0): 0.75, (0, 2): 0.75, (0, -2): 0.75,
    (2, 2): 0.125, (2, -2): 0.125, (-2, 2): 0.125, (-2, -2): 0.125,
}


def cubic_biharmonic(x, y):
    return x**3 * y


def apply_13point(values, h):
    out = np.zeros_like(values)
    for (di, dj), w in BILAPLACIAN_13.items():
        out += w * grids.shifted(values, (di, dj), 0.0)
    return out / h**4


def assemble_13point_system(grid, bc):
    """Sparse oracle: rows of h^n * 13-point operator at interior nodes."""
    h = grid.h
    interior = grid.interior
    idx = -np.ones(grid.extents, dtype=int)
    nodes = np.argwhere(interior)
    for k, node in enumerate(nodes):
        idx[tuple(node)] = k
    N = len(nodes)
    rows, cols, vals = [], [], []
    rhs = np.zeros(N)
    ubc = bc.apply(grid).values
    scale = h**2 / h**4  # h^n weight over h^4 stencil scale, n = 2
    for k, node in enumerate(nodes):
        for (di, dj), w in BILAPLACIAN_13.items():
            ni, nj = node[0] + di, node[1] + dj
            if interior[ni, nj]:
                rows.append(k)
                cols.append(idx[ni, nj])
                vals.append(w * scale)
            else:
                rhs[k] -= w * scale * ubc[ni, nj]
    A = sp.csr_matrix((vals, (rows, cols)), shape=(N, N))
    return A, rhs, nodes


# --------------------------------------------------------------- energies

def test_energy_zero_potential():
    g = grids.make_grid(2, 17, 1.0)
    assert solver.assemble_energy(g, models.quadratic_model(2)) == 0.0


def test_energy_area_flat_graph_counting_oracle():
    # F(0) = 1, so the energy equals the discrete measure of the quadrature
    # region: h^2 (N-2)^2, which tends to the square's area 4 with an O(h)
    # half-cell bias
    for nodes in (33, 65):
        g = grids.make_grid(2, nodes, 1.0)
        E = solver.assemble_energy(g, models.area_model(2))
        expected = (g.h * (nodes - 2)) ** 2
        assert E == pytest.approx(expected, rel=1e-12)
        assert abs(E - 4.0) <= 4.5 * g.h


def test_energy_quadratic_halfx2():
    g = grids.make_grid(2, 33, 1.0)
    u = grids.sample(g, lambda x, y: 0.5 * x**2)
    E = solver.assemble_energy(u, models.quadratic_model(2))
    expected = 0.5 * (g.h * (33 - 2)) ** 2
    assert E == pytest.approx(expected, rel=1e-12)
    assert abs(E - 2.0) <= 2.5 * g.h


def test_energy_reports_offending_node():
    g = grids.make_grid(2, 17, 1.0)
    u = grids.sample(g, lambda x, y: 2.0 * x**2)
    with pytest.raises(AdmissibilityError) as err:
        solver.assemble_energy(u, models.area_model(2, rho_U=1.0))
    assert err.value.index is not None


# --------------------------------------------------------------- gradient

def test_gradient_matches_13point_stencil_nodewise():
    rng = np.random.default_rng(50)
    g = grids.make_grid(2, 21, 1.0)
    u = g.with_values(rng.standard_normal(g.extents))
    grad = solver.energy_gradient(u, models.quadratic_model(2))
    oracle = g.h**2 * apply_13point(u.values, g.h)
    interior = g.interior
    np.testing.assert_allclose(grad[interior], oracle[interior],
                               rtol=1e-12, atol=1e-12)
    assert np.all(grad[~interior] == 0.0)


def test_gradient_zero_potential():
    g = grids.make_grid(2, 17, 1.0)
    assert np.all(solver.energy_gradient(g, models.quadratic_model(2)) == 0.0)


@pytest.mark.parametrize("kind", ["quadratic", "area"])
def test_gradient_matches_energy_finite_differences(kind):
    rng = np.random.default_rng(51)
    g = grids.make_grid(2, 15, 1.0)
    u = g.with_values(0.05 * rng.standard_normal(g.extents))
    model = models.quadratic_model(2) if kind == "quadratic" else models.area_model(2)
    grad = solver.energy_gradient(u, model)
    interior_nodes = np.argwhere(g.interior)
    picks = interior_nodes[rng.choice(len(interior_nodes), 10, replace=False)]
    for node in picks:
        delta = np.zeros(g.extents)
        delta[tuple(node)] = 1.0

        def E(t, eps):
            return solver.assemble_energy(u.with_values(u.values + t * eps * delta), model)

        eps = 1e-5
        d1 = (E(1, eps) - E(-1, eps)) / (2 * eps)
        d2 = (E(1, eps / 2) - E(-1, eps / 2)) / eps
        fd = (4 * d2 - d1) / 3
        assert grad[tuple(node)] == pytest.approx(fd, rel=1e-6, abs=1e-12)


# --------------------------------------------------------------- minimize

def test_minimize_recovers_cubic_biharmonic_and_matches_sparse_solve():
    g = grids.make_grid(2, 33, 0.5)
    bc = ClampedBoundaryData.from_potential(g, cubic_biharmonic)
    u, rep = solver.minimize_clamped(models.quadratic_model(2), bc, g)
    assert rep.converged

    # the discrete operator annihilates cubics, so recovery is exact up to
    # the linear-solver tolerance
    exact = grids.sample(g, cubic_biharmonic)
    assert np.abs(u.values - exact.values).max() < 1e-9

    # independent oracle: direct sparse solve of the same equations
    A, rhs, nodes = assemble_13point_system(g, bc)
    direct = spla.spsolve(A.tocsc(), rhs)
    got = np.array([u.values[tuple(node)] for node in nodes])
    np.testing.assert_allclose(got, direct, atol=1e-9)


def test_minimize_quadratic_boundary_needs_zero_iterations():
    g = grids.make_grid(2, 17, 1.0)
    q = lambda x, y: 0.08 * x**2 - 0.03 * x * y + 0.05 * y**2
    bc = ClampedBoundaryData.from_potential(g, q)
    init = grids.sample(g, q)
    for model in (models.quadratic_model(2), models.area_model(2, rho_U=0.9)):
        u, rep = solver.minimize_clamped(model, bc, init)
        assert rep.converged
        assert rep.iterations == 0


def test_minimize_zero_boundary_gives_zero():
    g = grids.make_grid(2, 17, 1.0)
    bc = ClampedBoundaryData.from_potential(g, lambda x, y: 0.0 * x)
    init = g.with_values(np.random.default_rng(52).standard_normal(g.extents) * 0.01)
    u, rep = solver.minimize_clamped(models.quadratic_model(2), bc, init)
    assert np.abs(u.values).max() < 1e-11


def test_minimize_unique_up_to_tolerance():
    g = grids.make_grid(2, 21, 0.5)
    bc = ClampedBoundaryData.from_potential(g, cubic_biharmonic)
    tol = 1e-11
    u1, _ = solver.minimize_clamped(models.quadratic_model(2), bc, g, grad_tol=tol)
    rng = np.random.default_rng(53)
    init2 = g.with_values(0.01 * rng.standard_normal(g.extents))
    u2, _ = solver.minimize_clamped(models.quadratic_model(2), bc, init2, grad_tol=tol)
    assert np.abs(u1.values - u2.values).max() <= 10 * tol


def test_minimize_area_energy_decreases_monotonically():
    g = grids.make_grid(2, 21, 0.5)
    bc = ClampedBoundaryData.from_potential(g, lambda x, y: 0.15 * np.sin(2 * x) * y)
    init = grids.sample(g, lambda x, y: 0.15 * np.sin(2 * x) * y)
    u, rep = solver.minimize_clamped(models.area_model(2, rho_U=0.9), bc, init,
                                     grad_tol=1e-12)
    assert rep.converged
    energies = np.array(rep.energies)
    assert np.all(np.diff(energies) < 0.0)
    assert rep.iterations >= 1


def test_minimize_inadmissible_init_names_node():
    g = grids.make_grid(2, 17, 1.0)
    f = lambda x, y: x**2  # Hessian diag(2, 0), operator norm 2
    bc = ClampedBoundaryData.from_potential(g, f)
    init = grids.sample(g, f)
    with pytest.raises(AdmissibilityError) as err:
        solver.minimize_clamped(models.area_model(2, rho_U=1.0), bc, init)
    assert err.value.index is not None


def test_boundary_data_satisfaction_check():
    g = grids.make_grid(2, 17, 1.0)
    bc = ClampedBoundaryData.from_potential(g, lambda x, y: x + y)
    assert bc.satisfied_by(bc.apply(g))
    assert not bc.satisfied_by(g)


def test_minimize_3d_recovers_cubic():
    g = grids.make_grid(3, 13, 0.5)
    fn = lambda x, y, z: x**3 * y + 0.5 * z**2 * 0  # cubic, z-independent
    bc = ClampedBoundaryData.from_potential(g, fn)
    u, rep = solver.minimize_clamped(models.quadratic_model(3), bc, g)
    assert rep.converged
    exact = grids.sample(g, fn)
    assert np.abs(u.values - exact.values).max() < 1e-9


def test_minimize_max_iter_flag_not_fatal():
    g = grids.make_grid(2, 33, 0.5)
    bc = ClampedBoundaryData.from_potential(g, cubic_biharmonic)
    u, rep = solver.minimize_clamped(models.quadratic_model(2), bc, g, max_iter=0)
    assert not rep.converged
    assert rep.iterations == 0


def test_newton_operator_matches_independent_tensor_chain():
    # the assembled operator against S^T [T : S v] built from hessian_field,
    # tensor_apply and hessian_adjoint, on a tensor field without major
    # symmetry so that the input/output slot convention is pinned
    rng = np.random.default_rng(58)
    masked = grids.make_grid(2, 17, 1.0)
    valid = np.ones(masked.extents, dtype=bool)
    valid[11:, 9:] = False
    masked = replace(masked, valid=valid)
    for g in (grids.make_grid(2, 17, 1.0), grids.make_grid(3, 11, 1.0), masked):
        dim = g.dim
        region = grids.hessian_field(g).valid
        unknowns = g.interior & g.valid
        K = int(region.sum())
        Tfield = models.symmetrize_tensor(
            2.0 * models.identity_tensor(dim)
            + 0.3 * rng.standard_normal((K,) + (dim,) * 4))
        assert np.abs(Tfield - Tfield.transpose(0, 3, 4, 1, 2)).max() > 0.1
        op = solver.NewtonOperator(Tfield, region, unknowns, g.h)

        v = rng.standard_normal(g.extents)
        sig = grids.hessian_field(g.with_values(v)).matrices()[region]
        W = np.zeros(g.extents + (symmat.packed_size(dim),))
        W[region] = symmat.pack(models.tensor_apply(Tfield, sig))
        want = g.h**dim * grids.hessian_adjoint(W, region, g.h)
        want[~unknowns] = 0.0
        np.testing.assert_allclose(op.matvec(v), want, rtol=1e-12,
                                   atol=1e-12 * np.abs(want).max())

        diag = op.jacobi_diagonal()
        assert np.all(diag[~unknowns] == 1.0)
        for node in np.argwhere(unknowns)[::7]:
            y = tuple(node)
            e = np.zeros(g.extents)
            e[y] = 1.0
            assert diag[y] == op.matvec(e)[y]


def _area_newton_point_3d():
    """A non-trivial admissible 3D area iterate and its assembled Newton operator."""
    g = grids.make_grid(3, 11, 0.5)
    f = lambda x, y, z: 0.3 * (x**3 * y + x * y**3) + 0.2 * np.sin(2 * z) * x
    u = ClampedBoundaryData.from_potential(g, f).apply(grids.sample(g, f))
    model = models.area_model(3, rho_U=0.9)
    H = grids.hessian_field(u)
    M = H.matrices()[H.valid]
    assert 0.05 < symmat.op_norm(M).max() < 0.9
    unknowns = u.interior & u.valid
    op = solver.NewtonOperator(models.eval_d2F(model, M), H.valid, unknowns, u.h)
    return u, model, unknowns, op


def test_newton_operator_symmetric_for_3d_area_model():
    u, _, unknowns, op = _area_newton_point_3d()
    rng = np.random.default_rng(59)
    for _ in range(3):
        v, w = (np.where(unknowns, rng.standard_normal(u.extents), 0.0) for _ in "vw")
        Av, Aw = op.matvec(v), op.matvec(w)
        assert np.vdot(Av, w) == pytest.approx(np.vdot(v, Aw), rel=1e-12)
        assert np.vdot(Av, v) > 0.0


def test_newton_operator_matches_gradient_finite_differences():
    # A v against the Richardson-extrapolated central difference of the
    # energy gradient along v
    u, model, unknowns, op = _area_newton_point_3d()
    rng = np.random.default_rng(60)

    def grad_along(v, eps):
        plus = solver.energy_gradient(u.with_values(u.values + eps * v), model)
        minus = solver.energy_gradient(u.with_values(u.values - eps * v), model)
        return (plus - minus) / (2 * eps)

    for _ in range(3):
        v = np.where(unknowns, rng.standard_normal(u.extents), 0.0)
        eps = 1e-3 * u.h**2 / np.abs(v).max()   # moves D^2 u by about 1e-3
        fd = (4 * grad_along(v, eps / 2) - grad_along(v, eps)) / 3
        Av = op.matvec(v)
        assert np.abs(Av - fd).max() <= 1e-9 * np.abs(Av).max()


def test_solve_report_records_admissibility_margins():
    g = grids.make_grid(2, 21, 0.5)
    f = lambda x, y: 0.15 * np.sin(2 * x) * y
    bc = ClampedBoundaryData.from_potential(g, f)
    u, rep = solver.minimize_clamped(models.area_model(2, rho_U=0.9), bc,
                                     grids.sample(g, f), grad_tol=1e-12)
    margins = rep.admissibility_margins
    assert rep.iterations >= 1
    assert len(margins) == len(rep.steps)
    assert all(0.0 < m < 1.0 - solver.ADMISSIBILITY_MARGIN / 0.9 for m in margins)
    H = grids.hessian_field(u)
    assert margins[-1] == symmat.op_norm(H.matrices()[H.valid]).max() / 0.9
    assert rep.to_dict()["admissibility_margins"] == margins

    _, rep = solver.minimize_clamped(models.quadratic_model(2), bc, g)
    assert rep.admissibility_margins == [0.0] * len(rep.steps)


# --------------------------------------------------------- preconditioner

def dirichlet_laplacian(v, h):
    """(2n+1)-point negative Laplacian of v with zero values outside the array."""
    out = 2 * v.ndim * v
    for axis in range(v.ndim):
        for s in (-1, 1):
            off = tuple(s if k == axis else 0 for k in range(v.ndim))
            out = out - grids.shifted(v, off, 0.0)
    return out / h**2


@pytest.mark.parametrize("box", [(5, 7), (4, 5, 6)])
def test_preconditioner_inverts_squared_laplacian_on_box(box):
    rng = np.random.default_rng(59)
    h = 0.1
    unknowns = np.zeros(tuple(m + 4 for m in box), dtype=bool)
    inner = tuple(slice(2, m + 2) for m in box)
    unknowns[inner] = True
    r = np.where(unknowns, rng.standard_normal(unknowns.shape), 0.0)
    z = solver.squared_laplacian_preconditioner(unknowns, h)(r)
    assert np.all(z[~unknowns] == 0.0)
    back = h**len(box) * dirichlet_laplacian(dirichlet_laplacian(z[inner], h), h)
    np.testing.assert_allclose(back, r[inner], rtol=0, atol=1e-12 * np.abs(r).max())


def test_preconditioner_symmetric_positive_on_masked_unknowns():
    rng = np.random.default_rng(60)
    unknowns = rng.random((13, 17)) < 0.6
    unknowns[:, :2] = False
    P = solver.squared_laplacian_preconditioner(unknowns, 0.05)
    r, s = (np.where(unknowns, rng.standard_normal(unknowns.shape), 0.0)
            for _ in range(2))
    Pr, Ps = P(r), P(s)
    assert np.all(Pr[~unknowns] == 0.0)
    assert np.vdot(Pr, s) == pytest.approx(np.vdot(r, Ps), rel=1e-12)
    assert np.vdot(r, Pr) > 0.0


def _area_newton_system(g):
    f = lambda x, y: 0.3 * cubic_biharmonic(x, y)
    u = ClampedBoundaryData.from_potential(g, f).apply(grids.sample(g, f))
    model = models.area_model(2, rho_U=0.9)
    return u, model, solver.energy_gradient(u, model)


def test_preconditioned_cg_iterations_grow_slowly_on_area_newton_system():
    iters = {}
    for nodes in (65, 129):
        u, model, grad = _area_newton_system(grids.make_grid(2, nodes, 0.5))
        _, iters[nodes], res = solver._newton_direction(
            u, model, grad, cg_rtol=1e-10, cg_maxiter=10_000, atol=0.0)
        assert res <= 1e-10
    assert max(iters.values()) < 150
    assert iters[129] < 2 * iters[65]


def test_preconditioner_beats_jacobi_on_masked_l_shape():
    g = grids.make_grid(2, 49, 0.5)
    valid = np.ones(g.extents, dtype=bool)
    valid[25:, 25:] = False
    u, model, grad = _area_newton_system(replace(g, valid=valid))
    H = grids.hessian_field(u)
    unknowns = u.interior & u.valid
    op = solver.NewtonOperator(models.eval_d2F(model, H.matrices()[H.valid]),
                               H.valid, unknowns, u.h)
    diag = op.jacobi_diagonal()
    iters = {}
    for name, precond in (
            ("jacobi", lambda r: r / diag),
            ("squared_laplacian",
             solver.squared_laplacian_preconditioner(unknowns, u.h))):
        _, iters[name], _ = solver.conjugate_gradient(
            op.matvec, -grad, np.zeros_like(grad), 1e-10, 10_000,
            precond=precond)
    assert iters["squared_laplacian"] < iters["jacobi"]


# --------------------------------------------------------- second order

def test_constant_coeff_bvp_second_order_on_transcendental_solution():
    # exp(x) cos(y) is harmonic, hence a true solution of the fourth-order
    # equation, and is not annihilated exactly by the stencils
    errs = {}
    for nodes in (17, 33, 65):
        g = grids.make_grid(2, nodes, 0.5)
        f = lambda x, y: np.exp(x) * np.cos(y)
        bc = ClampedBoundaryData.from_potential(g, f)
        w = solver.solve_constant_coeff_bvp(models.Tensor4.identity(2), bc, g)
        errs[nodes] = np.abs(w.values - grids.sample(g, f).values).max()
    order1 = np.log2(errs[17] / errs[33])
    order2 = np.log2(errs[33] / errs[65])
    assert min(order1, order2) >= 1.8


def test_constant_coeff_bvp_examples():
    g = grids.make_grid(2, 33, 0.5)
    bc = ClampedBoundaryData.from_potential(g, cubic_biharmonic)
    w = solver.solve_constant_coeff_bvp(models.Tensor4.identity(2), bc, g)
    exact = grids.sample(g, cubic_biharmonic)
    assert np.abs(w.values - exact.values).max() < 1e-9

    zero_bc = ClampedBoundaryData.from_potential(g, lambda x, y: 0.0 * x)
    w0 = solver.solve_constant_coeff_bvp(models.Tensor4.identity(2), zero_bc, g)
    assert np.abs(w0.values).max() == 0.0

    # positive scaling of the coefficient leaves the minimizer unchanged
    w5 = solver.solve_constant_coeff_bvp(5.0 * models.identity_tensor(2), bc, g)
    np.testing.assert_allclose(w5.values, w.values, atol=1e-9)


def test_constant_coeff_bvp_rejects_indefinite_tensor():
    g = grids.make_grid(2, 17, 1.0)
    bc = ClampedBoundaryData.from_potential(g, lambda x, y: 0.0 * x)
    with pytest.raises(models.ModelError):
        solver.solve_constant_coeff_bvp(-models.identity_tensor(2), bc, g)


def test_minimize_agrees_with_bvp_for_quadratic_model():
    g = grids.make_grid(2, 21, 0.5)
    bc = ClampedBoundaryData.from_potential(g, cubic_biharmonic)
    u, _ = solver.minimize_clamped(models.quadratic_model(2), bc, g,
                                   grad_tol=1e-13)
    w = solver.solve_constant_coeff_bvp(models.Tensor4.identity(2), bc, g)
    assert np.abs(u.values - w.values).max() < 1e-10


# --------------------------------------------------------- weak residuals

def test_weak_residual_zero_potential():
    g = grids.make_grid(2, 17, 1.0)
    tests = grids.bump_tests(g, [(0.0, 0.0)], scale=0.5)
    res = solver.weak_residual(g, models.quadratic_model(2), tests)
    assert np.all(res == 0.0)


def test_weak_residual_nodal_hats_reproduce_gradient():
    rng = np.random.default_rng(54)
    g = grids.make_grid(2, 15, 1.0)
    u = g.with_values(rng.standard_normal(g.extents))
    tests = grids.nodal_tests(g, stride=7)
    res = solver.weak_residual(u, models.quadratic_model(2), tests)
    grad = solver.energy_gradient(u, models.quadratic_model(2))
    picked = np.argwhere(g.interior & g.valid)[::7]
    want = np.array([grad[tuple(node)] for node in picked])
    np.testing.assert_allclose(res, want, rtol=1e-12, atol=1e-15)


def test_weak_residual_of_converged_minimizer_is_small():
    g = grids.make_grid(2, 21, 0.5)
    bc = ClampedBoundaryData.from_potential(g, cubic_biharmonic)
    tol = 1e-11
    u, rep = solver.minimize_clamped(models.quadratic_model(2), bc, g, grad_tol=tol)
    tests = grids.bump_tests(g, [(0.0, 0.0), (0.1, -0.05)], scale=0.2)
    res = solver.weak_residual(u, models.quadratic_model(2), tests)
    for k, eta in enumerate(tests):
        assert abs(res[k]) <= tol * np.abs(eta).sum()


def test_weak_residual_exact_on_cubic():
    g = grids.make_grid(2, 33, 0.5)
    u = grids.sample(g, cubic_biharmonic)
    tests = grids.bump_tests(g, [(0.0, 0.0)], scale=0.3)
    res = solver.weak_residual(u, models.quadratic_model(2), tests)
    assert np.abs(res).max() < 1e-13


def test_dd_residual_identity_matches_weak_residual():
    rng = np.random.default_rng(55)
    g = grids.make_grid(2, 15, 1.0)
    u = g.with_values(rng.standard_normal(g.extents))
    tests = grids.bump_tests(g, [(0.0, 0.0)], scale=0.5)
    dd = models.constant_dd_model(2, models.Tensor4.identity(2))
    a = solver.dd_weak_residual(u, dd, tests)
    b = solver.weak_residual(u, models.quadratic_model(2), tests)
    np.testing.assert_allclose(a, b, rtol=1e-12)


def test_dd_residual_vanishes_for_constant_hessian():
    g = grids.make_grid(2, 21, 1.0)
    u = grids.sample(g, lambda x, y: 0.3 * x**2 + 0.2 * x * y - 0.1 * y**2)
    tests = grids.bump_tests(g, [(0.0, 0.0), (0.2, 0.1)], scale=0.4)

    def coeff(M):
        s = symmat.hs_inner(M, M)
        return models.identity_tensor(2) * (1.0 + s)[..., None, None, None, None]

    dd = models.DoubleDivergenceModel(n=2, coeff=coeff)
    res = solver.dd_weak_residual(u, dd, tests)
    assert np.abs(res).max() < 1e-13


def test_summation_by_parts_moves_derivatives_onto_test_function():
    # with a constant tensor the pairing sum_x <T D^2 u, D^2 eta> equals
    # sum_y u(y) * (S^T T S eta)(y): both derivative pairs land on eta
    rng = np.random.default_rng(56)
    g = grids.make_grid(2, 17, 1.0)
    u = g.with_values(rng.standard_normal(g.extents))
    eta = grids.bump_tests(g, [(0.0, 0.0)], scale=0.4).functions[0]
    T = models.identity_tensor(2) * 2.5
    dd = models.constant_dd_model(2, T)
    lhs = solver.dd_weak_residual(u, dd, grids.TestFunctionSet((eta,)))[0]
    Seta = 2.5 * g.h**2 * apply_13point(eta, g.h)
    rhs = float((u.values * Seta).sum())
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_linearized_residual_constant_identity_quadratic_f():
    g = grids.make_grid(2, 17, 1.0)
    f = grids.sample(g, lambda x, y: 0.5 * x**2 - 0.25 * x * y)
    tests = grids.bump_tests(g, [(0.0, 0.0)], scale=0.5)
    b = np.broadcast_to(models.identity_tensor(2), g.extents + (2, 2, 2, 2)).copy()
    res = solver.linearized_residual(f, b, tests)
    assert np.abs(res).max() < 1e-13


def test_linearized_residual_matches_triple_loop():
    rng = np.random.default_rng(57)
    g = grids.make_grid(2, 13, 1.0)
    f = g.with_values(rng.standard_normal(g.extents))
    eta = grids.bump_tests(g, [(0.0, 0.0)], scale=0.4).functions[0]
    b = rng.standard_normal(g.extents + (2, 2, 2, 2))
    b = models.symmetrize_tensor(b)
    res = solver.linearized_residual(f, b, grids.TestFunctionSet((eta,)))[0]

    # naive summation oracle
    H = grids.hessian_field(f)
    He = grids.hessian_field(g.with_values(eta))
    Mf = H.matrices()
    Me = He.matrices()
    total = 0.0
    for node in np.argwhere(H.valid):
        t = tuple(node)
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    for l in range(2):
                        total += b[t][i, j, k, l] * Mf[t][i, j] * Me[t][k, l]
    total *= g.h**2
    assert res == pytest.approx(total, rel=1e-12)


def test_linearized_residual_of_difference_quotient():
    # one difference quotient of a converged critical point solves the
    # linearized equation up to solver tolerance scaled by 1/h
    g = grids.make_grid(2, 21, 0.5)
    bc = ClampedBoundaryData.from_potential(g, cubic_biharmonic)
    tol = 1e-12
    u, _ = solver.minimize_clamped(models.quadratic_model(2), bc, g, grad_tol=tol)
    f = grids.difference_quotient(u, 0)
    quad = models.quadratic_model(2)
    beta = models.linearized_coefficients(quad, np.zeros((2, 2)), np.zeros((2, 2)))
    b = np.broadcast_to(beta, g.extents + (2, 2, 2, 2)).copy()
    tests = grids.bump_tests(g, [(0.0, 0.0)], scale=0.2)
    res = solver.linearized_residual(f, b, tests)
    eta = tests.functions[0]
    bound = 2.0 * tol / g.h * np.abs(eta).max() * 4.0
    assert np.abs(res).max() <= bound
