from dataclasses import replace
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings, strategies as st

from hessvar import grids, models, reports, solver, symmat
from hessvar.models import AdmissibilityError

import oracles

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
        out += w * oracles.shifted(values, (di, dj), 0.0)
    return out / h**4


def assemble_13point_system(grid):
    """Sparse oracle: rows of h^n * 13-point operator at interior nodes, with
    the prescribed rings of ``grid`` moved to the right-hand side."""
    h = grid.h
    interior = grid.interior
    idx = -np.ones(grid.extents, dtype=int)
    nodes = np.argwhere(interior)
    for k, node in enumerate(nodes):
        idx[tuple(node)] = k
    N = len(nodes)
    rows, cols, vals = [], [], []
    rhs = np.zeros(N)
    scale = h**2 / h**4  # h^n weight over h^4 stencil scale, n = 2
    for k, node in enumerate(nodes):
        for (di, dj), w in BILAPLACIAN_13.items():
            ni, nj = node[0] + di, node[1] + dj
            if interior[ni, nj]:
                rows.append(k)
                cols.append(idx[ni, nj])
                vals.append(w * scale)
            else:
                rhs[k] -= w * scale * grid.values[ni, nj]
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
    u0 = oracles.clamped(g, cubic_biharmonic)
    u, rep = solver.minimize_clamped(models.quadratic_model(2), u0)
    assert rep.converged

    # the discrete operator annihilates cubics, so recovery is exact up to
    # the linear-solver tolerance
    exact = grids.sample(g, cubic_biharmonic)
    assert np.abs(u.values - exact.values).max() < 1e-9

    # independent oracle: direct sparse solve of the same equations
    A, rhs, nodes = assemble_13point_system(u0)
    direct = spla.spsolve(A.tocsc(), rhs)
    got = np.array([u.values[tuple(node)] for node in nodes])
    np.testing.assert_allclose(got, direct, atol=1e-9)


def test_minimize_quadratic_boundary_needs_zero_iterations():
    g = grids.make_grid(2, 17, 1.0)
    q = lambda x, y: 0.08 * x**2 - 0.03 * x * y + 0.05 * y**2
    init = grids.sample(g, q)
    for model in (models.quadratic_model(2), models.area_model(2, rho_U=0.9)):
        u, rep = solver.minimize_clamped(model, init)
        assert rep.converged
        assert rep.iterations == 0


def test_minimize_zero_boundary_gives_zero():
    g = grids.make_grid(2, 17, 1.0)
    start = g.with_values(np.random.default_rng(52).standard_normal(g.extents) * 0.01)
    init = oracles.clamped(g, lambda x, y: 0.0 * x, start)
    u, rep = solver.minimize_clamped(models.quadratic_model(2), init)
    assert np.abs(u.values).max() < 1e-11


def test_minimize_unique_up_to_tolerance():
    g = grids.make_grid(2, 21, 0.5)
    tol = 1e-11
    u1, _ = solver.minimize_clamped(models.quadratic_model(2),
                                    oracles.clamped(g, cubic_biharmonic), grad_tol=tol)
    rng = np.random.default_rng(53)
    init2 = oracles.clamped(g, cubic_biharmonic,
                            g.with_values(0.01 * rng.standard_normal(g.extents)))
    u2, _ = solver.minimize_clamped(models.quadratic_model(2), init2, grad_tol=tol)
    assert np.abs(u1.values - u2.values).max() <= 10 * tol


def test_minimize_area_energy_decreases_monotonically():
    g = grids.make_grid(2, 21, 0.5)
    init = grids.sample(g, lambda x, y: 0.15 * np.sin(2 * x) * y)
    u, rep = solver.minimize_clamped(models.area_model(2, rho_U=0.9), init,
                                     grad_tol=1e-12)
    assert rep.converged
    energies = np.array(rep.energies)
    assert np.all(np.diff(energies) < 0.0)
    assert rep.iterations >= 1


def test_minimize_inadmissible_init_names_node():
    g = grids.make_grid(2, 17, 1.0)
    f = lambda x, y: x**2  # Hessian diag(2, 0), operator norm 2
    init = grids.sample(g, f)
    with pytest.raises(AdmissibilityError) as err:
        solver.minimize_clamped(models.area_model(2, rho_U=1.0), init)
    assert err.value.index is not None


def test_check_admissible_names_the_node_the_solve_rejects():
    g = grids.make_grid(2, 17, 1.0)
    f = lambda x, y: 0.15 * x**3  # ||D^2 f||_op = 0.9 |x|
    model = models.area_model(2, rho_U=0.7)
    u = grids.sample(g, f)
    with pytest.raises(AdmissibilityError) as solve:
        solver.minimize_clamped(model, u)
    assert str(solve.value).startswith("Hessian operator norm not below rho_U = 0.7 at node")
    for evaluate in _routed_evaluators(u):
        with pytest.raises(AdmissibilityError) as direct:
            evaluate(u, model)
        assert str(solve.value) == str(direct.value)
        assert solve.value.index == direct.value.index
        evaluate(u, replace(model, rho_U=0.95))


def _routed_evaluators(u):
    """assemble_energy, energy_gradient and weak_residual on nodal tests of u."""
    tests = oracles.nodal_tests(u, stride=7)
    return (solver.assemble_energy, solver.energy_gradient,
            lambda u, model: solver.weak_residual(u, model, tests))


def test_custom_model_error_passes_through_the_routed_evaluators():
    # rho_U above 1.5: the node passes the operator-norm test and the
    # integrand's own domain check raises, with no node index
    def F(M):
        if np.abs(M).max() > 1.0:
            raise AdmissibilityError("matrix entries leave [-1, 1]")
        return 0.5 * symmat.hs_inner(M, M)

    model = models.custom_model(2, F, rho_U=10.0)
    g = grids.make_grid(2, 17, 1.0)
    u = grids.sample(g, lambda x, y: 0.75 * (x**2 + y**2))   # D^2 u = 1.5 I
    for evaluate in _routed_evaluators(u):
        with pytest.raises(AdmissibilityError) as err:
            evaluate(u, model)
        assert str(err.value) == "matrix entries leave [-1, 1]"
        assert err.value.index is None


def test_boundary_data_satisfaction_check():
    # the prescribed rings of the start are the clamped data: both solvers
    # return them bit for bit and move only the unknowns
    g = grids.make_grid(2, 17, 1.0)
    f = lambda x, y: 0.1 * x**3 * y + 0.05 * (x + y)
    u0 = oracles.clamped(g, f)
    X, Y = g.coords()
    assert np.array_equal(u0.values[g.prescribed], f(X, Y)[g.prescribed])
    assert np.all(u0.values[g.interior] == 0.0)
    u, rep = solver.minimize_clamped(models.quadratic_model(2), u0)
    w = solver.solve_constant_coeff_bvp(models.packed_identity(2), u0)
    assert rep.converged and rep.iterations >= 1
    for out in (u, w):
        assert np.array_equal(out.values[g.prescribed], u0.values[g.prescribed])
        assert np.any(out.values[g.interior] != 0.0)


def assert_energy_contract(rep):
    """The energy record of a converged solve, as minimize_clamped states it:
    every step but the last passes the Armijo test, and the last, a step on
    the round-off floor taken for the gradient, raises E by at most the
    floor."""
    dE = np.diff(rep.energies)
    assert np.all(dE[:-1] < 0.0)
    assert np.all(dE <= 64.0 * np.finfo(float).eps * (1.0 + abs(rep.energy)))


def test_minimize_backtracks_on_the_armijo_test():
    # rho_U is infinite, so no step is halved for admissibility: the 0.5 step
    # is the Armijo test's
    g = grids.make_grid(2, 17, 0.5)
    model = models.area_model(2)
    assert model.rho_U == np.inf
    u, rep = solver.minimize_clamped(model, oracles.clamped(g, lambda x, y: 0.6 * x**3 * y))
    assert rep.converged
    assert min(rep.steps) < 1.0
    assert_energy_contract(rep)


def test_minimize_3d_recovers_cubic():
    g = grids.make_grid(3, 13, 0.5)
    fn = lambda x, y, z: x**3 * y + 0.5 * z**2 * 0  # cubic, z-independent
    u, rep = solver.minimize_clamped(models.quadratic_model(3), oracles.clamped(g, fn))
    assert rep.converged
    exact = grids.sample(g, fn)
    assert np.abs(u.values - exact.values).max() < 1e-9


def test_minimize_max_iter_flag_not_fatal():
    g = grids.make_grid(2, 33, 0.5)
    u, rep = solver.minimize_clamped(models.quadratic_model(2),
                                     oracles.clamped(g, cubic_biharmonic), max_iter=0)
    assert not rep.converged
    assert rep.iterations == 0


def test_minimize_max_iter_zero_judges_the_start_point():
    # the exact cubic has a zero discrete gradient, so no step is needed
    g = grids.make_grid(2, 33, 0.5)
    init = grids.sample(g, cubic_biharmonic)
    model = models.quadratic_model(2)
    _, rep = solver.minimize_clamped(model, init, max_iter=0)
    assert rep.iterations == 0
    assert rep.grad_norm == 0.0
    assert np.isfinite(rep.grad_tol)
    assert rep.converged
    _, rep5 = solver.minimize_clamped(model, init, max_iter=5)
    assert reports.sanitize(rep5) == reports.sanitize(rep)


# (nodes, potential, energy, total CG iterations, Newton steps) of the library
# area solves with CG run to cg_rtol = 1e-12 at every step, before forcing
AREA_LIBRARY_SOLVES = {
    2: (65, lambda x, y: 0.3 * (x**3 * y + x * y**3), 1.0154852397425085, 55, 3),
    3: (17, lambda x, y, z: 0.3 * (x**3 * y + x * y**3), 0.8569412233308882, 27, 2),
}


@pytest.mark.parametrize("dim", [2, 3])
def test_forced_area_solve_keeps_its_energy_with_fewer_cg_iterations(dim):
    nodes, f, energy, cg_total, steps = AREA_LIBRARY_SOLVES[dim]
    g = grids.make_grid(dim, nodes, 0.5)
    _, rep = solver.minimize_clamped(models.area_model(dim, rho_U=0.9),
                                     grids.sample(g, f))
    assert rep.converged and not rep.stagnated
    assert abs(rep.energy - energy) <= 1e-14 * energy
    assert sum(rep.cg_iterations) < cg_total
    assert rep.iterations <= steps
    assert len(rep.cg_forcing) == rep.iterations
    assert rep.cg_forcing[0] == solver.FORCING_START
    assert all(1e-12 <= eta <= 0.9 for eta in rep.cg_forcing)
    assert reports.sanitize(rep)["cg_forcing"] == rep.cg_forcing


@pytest.mark.parametrize("dim, nodes, f, cg_iterations, energy", [
    (2, 65, lambda x, y: 0.3 * np.exp(x) * np.cos(y), [1], 0.10198790204839177),
    (3, 17, lambda x, y, z: 0.3 * np.exp(x) * np.cos(y) * np.cos(z), [12, 3],
     0.12239217429466373),
], ids=["2d", "3d"])
def test_quadratic_solve_runs_every_cg_solve_to_cg_rtol(dim, nodes, f,
                                                        cg_iterations, energy):
    # its Newton equation is its minimizer equation: forcing has nothing to
    # trade against, and the counts and energies are those before forcing
    g = grids.make_grid(dim, nodes, 0.5)
    _, rep = solver.minimize_clamped(models.quadratic_model(dim), oracles.clamped(g, f))
    assert rep.converged
    assert rep.cg_forcing == [1e-12] * len(cg_iterations)
    assert rep.cg_iterations == cg_iterations
    assert rep.energy == energy


def test_forcing_term_follows_the_gradient_decrease_with_its_safeguard():
    assert solver._forcing(None, 1.0, None) == solver.FORCING_START
    assert solver._forcing(1e-3, 1.0, 1.0) == 0.9
    assert solver._forcing(0.3, 1.0, 100.0) == 0.9 * 1e-4
    # 0.9 * 0.5^2 = 0.225 > 0.1: the term may not drop below it
    assert solver._forcing(0.5, 1.0, 100.0) == 0.9 * 0.5**2


def test_forcing_is_floored_at_cg_rtol():
    nodes, f, energy, _, _ = AREA_LIBRARY_SOLVES[2]
    g = grids.make_grid(2, nodes, 0.5)
    _, rep = solver.minimize_clamped(models.area_model(2, rho_U=0.9),
                                     grids.sample(g, f), cg_rtol=1e-2)
    assert rep.converged
    assert rep.cg_forcing == [1e-2] * rep.iterations
    assert abs(rep.energy - energy) <= 1e-14 * energy


def test_minimize_stops_when_floor_steps_stop_halving_the_gradient():
    # grad_tol = 1e-12 lies below the round-off floor of this gradient
    # (about 3e-12): Armijo-floor steps then move the energy in its last
    # digits and leave ||g||_inf where it is
    g = grids.make_grid(2, 65, 0.5)
    f = lambda x, y: 0.3 * np.exp(x) * np.cos(y)
    _, rep = solver.minimize_clamped(models.area_model(2, rho_U=0.9),
                                     grids.sample(g, f), grad_tol=1e-12, max_iter=8)
    assert rep.stagnated and not rep.converged
    assert rep.iterations < 8
    assert rep.grad_norm > rep.grad_tol
    assert reports.sanitize(rep)["stagnated"] is True


def test_minimize_keeps_going_while_loose_cg_solves_cut_the_gradient():
    # CG to 0.5 relative cuts the gradient by about half a step: slow, not
    # stagnant, so the floor steps run on to grad_tol
    nodes, f, _, _, _ = AREA_LIBRARY_SOLVES[2]
    g = grids.make_grid(2, nodes, 0.5)
    _, rep = solver.minimize_clamped(models.area_model(2, rho_U=0.9),
                                     grids.sample(g, f), cg_rtol=0.5)
    assert rep.converged and not rep.stagnated


# ------------------------------------------------------ iterate record

def tensor_field_operator(Tfield, region, unknowns, h):
    """The Newton operator of a full (K, n, n, n, n) tensor field on the region."""
    return solver.NewtonOperator(models.tensor_pairs(models.pack_tensor(Tfield)),
                                 region, unknowns, h)


def _area_iterate(dim, nodes):
    """An admissible area iterate on a grid of half-width 0.5."""
    g = grids.make_grid(dim, nodes, 0.5)
    f = (lambda x, y: 0.3 * cubic_biharmonic(x, y)) if dim == 2 else (
        lambda x, y, z: 0.3 * (x**3 * y + x * y**3) + 0.2 * np.sin(2 * z) * x)
    u = grids.sample(g, f)
    return solver._Iterate(u, models.area_model(dim, rho_U=0.9))


def _area_field(dim):
    if dim == 2:
        g = grids.make_grid(2, 21, 0.5)
        valid = np.ones(g.extents, dtype=bool)
        valid[13:, 13:] = False     # an L-shape: the region is not a box
        g = replace(g, valid=valid)
        f = lambda x, y: 0.15 * np.sin(2 * x) * y
    else:
        g = grids.make_grid(3, 11, 0.5)
        f = lambda x, y, z: 0.2 * (x**3 * y + y * z**2 - x * z)
    u = grids.sample(g, f)
    return u, models.area_model(dim, rho_U=0.9)


@pytest.mark.parametrize("dim", [2, 3])
def test_iterate_record_matches_public_evaluators(dim):
    u, model = _area_field(dim)
    it = solver._Iterate(u, model)
    H = grids.hessian_field(u)
    assert np.array_equal(it.region, H.valid)
    assert it.peak == symmat.op_norm(H.matrices()[H.valid]).max()
    assert it.energy() == oracles.full_matrix_energy(u, model)
    assert np.array_equal(it.gradient(), oracles.full_matrix_gradient(u, model))
    op = it.newton_operator()
    ref = tensor_field_operator(models.eval_d2F(model, H.matrices()[H.valid]),
                                H.valid, u.interior & u.valid, u.h)
    rng = np.random.default_rng(57)
    for _ in range(3):
        v = rng.standard_normal(u.extents)
        assert np.array_equal(op.matvec(v), ref.matvec(v))
    assert solver._Iterate(u, replace(model, rho_U=np.inf)).peak == 0.0


def _hs_root(M):
    """sqrt(1 + |M|^2), a convex custom integrand."""
    return np.sqrt(1.0 + np.sum(M * M, axis=(-2, -1)))


@pytest.mark.parametrize("holed", [False, True])
@pytest.mark.parametrize("kind", ["quadratic", "area", "custom_dF", "custom_fd"])
@pytest.mark.parametrize("dim", [2, 3])
def test_public_energy_family_has_the_full_matrix_bits(dim, kind, holed):
    g = grids.make_grid(dim, 33 if dim == 2 else 13, 0.5)
    if holed:                   # a masked corner: the region is not a box
        valid = np.ones(g.extents, dtype=bool)
        valid[(slice(-6, None),) * dim] = False
        g = replace(g, valid=valid)
    f = (lambda x, y: 0.15 * np.sin(2 * x) * y + 0.1 * x**3) if dim == 2 else (
        lambda x, y, z: 0.2 * (x**3 * y + y * z**2 - x * z))
    u = grids.sample(g, f)
    model = {"quadratic": models.quadratic_model(dim),
             "area": models.area_model(dim, rho_U=0.9),
             "custom_dF": models.custom_model(
                 dim, _hs_root, dF=lambda M: M / _hs_root(M)[..., None, None]),
             "custom_fd": models.custom_model(dim, _hs_root)}[kind]
    tests = oracles.nodal_tests(u, stride=5)
    assert solver.assemble_energy(u, model) == oracles.full_matrix_energy(u, model)
    assert np.array_equal(solver.energy_gradient(u, model),
                          oracles.full_matrix_gradient(u, model))
    assert np.array_equal(solver.weak_residual(u, model, tests),
                          oracles.full_matrix_weak_residual(u, model, tests))


# ------------------------------------------------------ screened peak

@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_iterate_rejects_a_non_finite_entry_at_its_node(dim, bad, monkeypatch):
    # a NaN compares false with every bound, so the screen must keep the node
    u, model = _area_field(dim)
    H = grids.hessian_field(u)
    region = np.argwhere(H.valid)
    fro = symmat.hs_norm_packed(H.values[H.valid])
    node = tuple(int(v) for v in region[np.argmin(fro)])   # far below the peak
    vals = np.array(H.values)
    vals[node + (symmat.packed_size(dim) - 1,)] = bad
    monkeypatch.setattr(solver, "hessian_field", lambda _: replace(H, values=vals))
    it = solver._Iterate(u, model)
    assert not it.peak < model.rho_U
    with pytest.raises(AdmissibilityError) as err:
        it.require_admissible()
    assert err.value.index == node
    for evaluate in _routed_evaluators(u):
        with pytest.raises(AdmissibilityError) as direct:
            evaluate(u, model)
        assert str(direct.value) == str(err.value)
    # the nodewise public evaluator rejects the same node
    with pytest.raises(AdmissibilityError) as nodewise:
        models.eval_F(model, symmat.unpack(vals[H.valid]))
    assert tuple(region[nodewise.value.index[0]]) == node


@st.composite
def packed_fields(draw):
    """(m, K) packed Hessians: random, all zero, with exact ties at the
    argmax, or rank-one nodes whose norms agree to 1e-12 or a few ulps."""
    n = draw(st.sampled_from([2, 3]))
    K = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["random", "zero", "ties", "rank one"]))
    M = draw(st.sampled_from([1e-3, 1.0, 1e3])) * rng.standard_normal((K, n, n))
    M = 0.5 * (M + np.swapaxes(M, -1, -2))
    if kind == "zero":
        M[:] = 0.0
    elif kind == "ties":
        top = M[np.argmax(symmat.op_norm(M))]
        picks = rng.integers(0, K, size=draw(st.integers(1, 3)))
        M[picks] = top * rng.choice([-1.0, 1.0], size=(len(picks), 1, 1))
    elif kind == "rank one":
        v = rng.standard_normal((K, n))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        step = draw(st.sampled_from([1e-12, np.finfo(float).eps]))
        M = (1.0 + step * rng.integers(-4, 5, size=(K, 1, 1))) * v[:, :, None] * v[:, None, :]
        M[0] = np.diag([1.0] + [0.0] * (n - 1))
    return np.ascontiguousarray(symmat.pack(M).T)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(packed_fields())
def test_screened_peak_keeps_the_bits_of_the_full_op_norm(c):
    n = symmat.dim_from_packed(len(c))
    H = grids.SymMatField(h=1.0, origin=np.zeros(n),
                          values=c.T.reshape((c.shape[1],) + (1,) * (n - 1) + (len(c),)))
    u = grids.make_grid(n, 11, 1.0)   # only its spacing is read
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "hessian_field", lambda _: H)
        it = solver._Iterate(u, models.area_model(n, rho_U=0.9))
    assert it.peak == symmat.op_norm(symmat.unpack(c.T)).max()


def _traced_area_newton_operator_3d():
    """(op, held, peak, K): the Newton operator of a 17^3 area iterate, with
    the bytes it holds and the peak bytes its build allocated."""
    it = _area_iterate(3, 17)
    tracemalloc.start()
    try:
        op = it.newton_operator()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return op, held, peak, it.c.shape[1]


def test_newton_operator_holds_at_most_m_squared_grid_arrays():
    # matrix-free and major-symmetric: one coefficient array per packed pair
    # a <= b of the 3D tensor, m (m + 1) / 2 = 21, shared with its mirror,
    # and no coefficient row per stencil offset
    op, held, _, _ = _traced_area_newton_operator_3d()
    assert len(op.terms) == 21
    assert [(a, b) for a, b, _, _ in op.terms] == [
        (a, b) for a in range(6) for b in range(a, 6)]
    assert all(mirror is (None if a == b else c) for a, b, c, mirror in op.terms)
    assert all(c.any() for _, _, c, _ in op.terms)
    assert held <= 21 * op.unknowns.size * 8      # 21 float64 grid arrays


def test_newton_operator_build_allocates_no_full_packed_tensor():
    # the area pairs are evaluated one at a time: the build's transient
    # memory stays below one (m, m, K) array of the 3D packed tensor
    _, held, peak, K = _traced_area_newton_operator_3d()
    assert peak - held < 36 * K * 8


def test_minimize_runs_op_norm_once_per_evaluated_iterate(monkeypatch):
    calls = {"op_norm": 0, "hessian_field": 0, "preconditioner": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(symmat, "op_norm", counted("op_norm", symmat.op_norm))
    monkeypatch.setattr(solver, "hessian_field",
                        counted("hessian_field", solver.hessian_field))
    monkeypatch.setattr(solver, "clamped_box_preconditioner",
                        counted("preconditioner", solver.clamped_box_preconditioner))
    g = grids.make_grid(2, 21, 0.5)
    f = lambda x, y: 0.15 * np.sin(2 * x) * y
    _, rep = solver.minimize_clamped(models.area_model(2, rho_U=0.9),
                                     grids.sample(g, f), grad_tol=1e-12)
    assert rep.converged and rep.iterations >= 2
    # the start point, then one iterate per line-search trial; one
    # preconditioner serves every Newton step
    iterates = 1 + sum(round(-np.log2(t)) + 1 for t in rep.steps)
    assert calls == {"op_norm": iterates, "hessian_field": iterates,
                     "preconditioner": 1}


def _flattening_model():
    """F = sqrt(1 + 25 |M|^2): its curvature falls off, so Newton overshoots."""
    def F(M):
        return np.sqrt(1.0 + 25.0 * np.einsum("...ij,...ij->...", M, M))

    def dF(M):
        return 25.0 * M / F(M)[..., None, None]

    def d2F(M):
        s = F(M)[..., None, None, None, None]
        MM = np.einsum("...ij,...kl->...ijkl", M, M)
        return 25.0 * oracles.identity_tensor(M.shape[-1]) / s - 625.0 * MM / s**3

    return models.custom_model(2, F, dF, d2F, rho_U=0.99)


def test_minimize_backtracked_steps_keep_the_accepted_trial():
    g = grids.make_grid(2, 21, 0.5)
    f = lambda x, y: 0.1 * x**3 * y
    bump = lambda x, y: np.where((abs(x) < 0.4) & (abs(y) < 0.4),
                                 (0.16 - x**2)**3 * (0.16 - y**2)**3, 0.0)
    init = oracles.clamped(g, f, grids.sample(g, lambda x, y: f(x, y) + 1000.0 * bump(x, y)))
    model = _flattening_model()
    u, rep = solver.minimize_clamped(model, init, grad_tol=1e-8)
    assert rep.converged
    assert min(rep.steps) < 1.0
    assert_energy_contract(rep)
    assert rep.energy == solver.assemble_energy(u, model)
    H = grids.hessian_field(u)
    assert rep.admissibility_margins[-1] == \
        symmat.op_norm(H.matrices()[H.valid]).max() / model.rho_U


def full_tensor_newton_rows(Tfield, region, unknowns, h):
    """Oracle: (start, deltas, coeffs) of the Newton operator from the full (K, n, n, n, n) field.

    One coefficient row per composed stencil offset, over the flat index
    range of the unknowns from ``start``; :func:`row_product` applies them.
    The assembly scans the 36 (3D) or 9 (2D) packed slots of the full tensor.
    """
    n = region.ndim
    stencils = oracles.weighted_hessian_stencil(n, h)
    dup = symmat.duplication_weights(n)
    pairs = symmat.PACKED_PAIRS[n]
    strides = [int(np.prod(region.shape[k + 1:])) for k in range(n)]
    flat = lambda off: sum(o * s for o, s in zip(off, strides))
    rows = np.flatnonzero(unknowns)
    start, stop = int(rows[0]), int(rows[-1]) + 1
    terms = [(a, b) for a, (k, l) in enumerate(pairs)
             for b, (i, j) in enumerate(pairs) if np.any(Tfield[:, i, j, k, l])]
    offsets = sorted({(0,) * n} | {
        tuple(x + y for x, y in zip(oa, ob))
        for a, b in terms for oa, _ in stencils[a] for ob, _ in stencils[b]})
    row_of = {off: r for r, off in enumerate(offsets)}
    coeffs = np.zeros((len(offsets), stop - start))
    full = np.zeros(region.size)
    for a, b in terms:
        (k, l), (i, j) = pairs[a], pairs[b]
        full[np.ravel(region)] = dup[a] * dup[b] * Tfield[:, i, j, k, l]
        for oa, wa in stencils[a]:
            src = full[start + flat(oa):stop + flat(oa)]
            for ob, wb in stencils[b]:
                coeffs[row_of[tuple(x + y for x, y in zip(oa, ob))]] += (wa * wb) * src
    coeffs *= h**n * np.ravel(unknowns)[start:stop]
    return start, [flat(off) for off in offsets], coeffs


def row_product(rows, v):
    """(A v) from the oracle rows: sum_d C_d(y) v(y + d) on the unknowns' range."""
    start, deltas, coeffs = rows
    vflat = np.ravel(v)
    out = np.zeros(vflat.size)
    stop = start + coeffs.shape[1]
    for delta, c in zip(deltas, coeffs):
        out[start:stop] += c * vflat[start + delta:stop + delta]
    return out.reshape(v.shape)


@pytest.mark.parametrize("dim", [2, 3])
def test_newton_rows_equal_full_tensor_assembly_for_every_kind(dim):
    u, area = _area_field(dim)
    bumpy = lambda X: (0.5 * symmat.hs_inner(X, X)
                       + 0.1 * np.exp(0.3 * np.einsum("...ii->...", X)))
    H = grids.hessian_field(u)
    M = H.matrices()[H.valid]
    rng = np.random.default_rng(56)
    for model in (area, models.quadratic_model(dim),
                  models.custom_model(dim, bumpy)):
        op = solver._Iterate(u, model).newton_operator()
        rows = full_tensor_newton_rows(
            models.eval_d2F(model, M), H.valid, u.interior & u.valid, u.h)
        for _ in range(3):
            v = rng.standard_normal(u.extents)
            want = row_product(rows, v)
            np.testing.assert_allclose(op.matvec(v), want, rtol=1e-12,
                                       atol=1e-12 * np.abs(want).max())


def tensor_chain(Tfield, g, region, unknowns, v):
    """h^n 1_U S^T [T : S v] from hessian_field, tensor_apply and hessian_adjoint."""
    sig = grids.hessian_field(g.with_values(v)).matrices()[region]
    W = symmat.pack(oracles.tensor_apply(Tfield, sig)).T
    want = g.h**g.dim * grids.hessian_adjoint(W, region, g.h)
    want[~unknowns] = 0.0
    return want


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
        Tfield = oracles.symmetrize_tensor(
            2.0 * oracles.identity_tensor(dim)
            + 0.3 * rng.standard_normal((K,) + (dim,) * 4))
        assert np.abs(Tfield - Tfield.transpose(0, 3, 4, 1, 2)).max() > 0.1
        op = tensor_field_operator(Tfield, region, unknowns, g.h)

        v = rng.standard_normal(g.extents)
        want = tensor_chain(Tfield, g, region, unknowns, v)
        np.testing.assert_allclose(op.matvec(v), want, rtol=1e-12,
                                   atol=1e-12 * np.abs(want).max())

        diag = op.jacobi_diagonal()
        assert np.all(diag[~unknowns] == 1.0)
        for node in np.argwhere(unknowns)[::7]:
            y = tuple(node)
            e = np.zeros(g.extents)
            e[y] = 1.0
            assert diag[y] == op.matvec(e)[y]


@pytest.mark.parametrize("dim", [2, 3])
def test_pair_built_newton_operator_equals_per_slot_builder(dim):
    # h = 1/16 or 1/32: shared pairs give the per-(a, b) builder's bits,
    # for the closed-form area pairs and the broadcast quadratic identity
    rng = np.random.default_rng(61)
    it = _area_iterate(dim, 33 if dim == 2 else 17)
    u = it.u
    unknowns = u.interior & u.valid
    for model in (it.model, models.quadratic_model(dim)):
        op = solver._Iterate(u, model).newton_operator()
        ref = oracles.PerSlotNewtonOperator(models._d2F_packed_body(model, it.c),
                                            it.region, unknowns, u.h)
        for _ in range(3):
            v = rng.standard_normal(u.extents)
            assert np.array_equal(op.matvec(v), ref.matvec(v))
        assert np.array_equal(op.jacobi_diagonal(), ref.jacobi_diagonal())


@pytest.mark.parametrize("dim", [2, 3])
def test_pair_built_newton_operator_on_a_20_node_grid(dim):
    # h = 1/19, not a power of two: the bound leaves room for h^n s_a s_b
    # and h^n s_b s_a to round one ulp apart
    rng = np.random.default_rng(62)
    it = _area_iterate(dim, 20)
    u = it.u
    unknowns = u.interior & u.valid
    op = it.newton_operator()
    ref = oracles.PerSlotNewtonOperator(models._d2F_packed_body(it.model, it.c),
                                        it.region, unknowns, u.h)
    for _ in range(3):
        v = rng.standard_normal(u.extents)
        want = ref.matvec(v)
        assert np.abs(op.matvec(v) - want).max() <= 1e-15 * np.abs(want).max()


def test_custom_model_without_major_symmetry_keeps_one_sided_arrays():
    rng = np.random.default_rng(63)
    T0 = oracles.symmetrize_tensor(2.0 * oracles.identity_tensor(3)
                                   + 0.3 * rng.standard_normal((3,) * 4))
    assert np.abs(T0 - T0.transpose(2, 3, 0, 1)).max() > 0.1
    d2F = lambda M: T0 + 0.1 * np.einsum("...ij,...kl->...ijkl", M, M)
    model = models.custom_model(3, lambda M: 0.5 * symmat.hs_inner(M, M), d2F=d2F)
    u = _area_iterate(3, 11).u
    it = solver._Iterate(u, model)
    op = it.newton_operator()
    assert len(op.terms) == 21
    assert all(mirror is None if a == b else mirror is not None and mirror is not c
               for a, b, c, mirror in op.terms)
    region, unknowns = it.region, u.interior & u.valid
    Tfield = d2F(grids.hessian_field(u).matrices()[region])
    for _ in range(3):
        v = rng.standard_normal(u.extents)
        want = tensor_chain(Tfield, u, region, unknowns, v)
        np.testing.assert_allclose(op.matvec(v), want, rtol=1e-12,
                                   atol=1e-12 * np.abs(want).max())


def _area_newton_point_3d():
    """A non-trivial admissible 3D area iterate and its assembled Newton operator."""
    it = _area_iterate(3, 11)
    u, model = it.u, it.model
    H = grids.hessian_field(u)
    M = H.matrices()[H.valid]
    assert 0.05 < symmat.op_norm(M).max() < 0.9
    unknowns = u.interior & u.valid
    op = tensor_field_operator(models.eval_d2F(model, M), H.valid, unknowns, u.h)
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
    u, rep = solver.minimize_clamped(models.area_model(2, rho_U=0.9),
                                     grids.sample(g, f), grad_tol=1e-12)
    margins = rep.admissibility_margins
    assert rep.iterations >= 1
    assert len(margins) == len(rep.steps)
    assert all(0.0 < m < 1.0 - solver.ADMISSIBILITY_MARGIN / 0.9 for m in margins)
    H = grids.hessian_field(u)
    assert margins[-1] == symmat.op_norm(H.matrices()[H.valid]).max() / 0.9
    assert reports.sanitize(rep)["admissibility_margins"] == margins

    _, rep = solver.minimize_clamped(models.quadratic_model(2), oracles.clamped(g, f))
    assert rep.admissibility_margins == [0.0] * len(rep.steps)


# --------------------------------------------------------- preconditioner

def _dst1(x: np.ndarray, axis: int) -> np.ndarray:
    """Oracle: unnormalized DST-I along one axis from an FFT.

    The rfft of the odd extension (0, x, 0, -reversed x) of length 2(m + 1)
    has imaginary part -2 X_k at k = 1..m.
    """
    x = np.moveaxis(x, axis, -1)
    m = x.shape[-1]
    ext = np.zeros(x.shape[:-1] + (2 * (m + 1),))
    ext[..., 1:m + 1] = x
    ext[..., m + 2:] = -x[..., ::-1]
    spec = np.fft.rfft(ext)[..., 1:m + 1].imag
    return np.moveaxis(-0.5 * spec, -1, axis)


@pytest.mark.parametrize("m", [1, 2, 3, 29, 125, 253])
def test_sine_matrix_products_match_fft_dst(m):
    rng = np.random.default_rng(m)
    for shape in ((m, 7), (5, m), (m, 3, 6), (4, m, 2), (3, 5, m)):
        z = rng.standard_normal(shape)
        want = z
        for axis in range(z.ndim):
            want = _dst1(want, axis)
        got = solver._dst(z, [solver._sine_matrix(k) for k in shape])
        assert got.shape == shape
        np.testing.assert_allclose(got, want, rtol=0,
                                   atol=1e-13 * np.abs(want).max())


@pytest.mark.parametrize("m", [1, 2, 3, 29, 125, 253])
def test_sine_matrix_squares_to_scaled_identity(m):
    S = solver._sine_matrix(m)
    assert np.array_equal(S, S.T)
    np.testing.assert_allclose(S @ S, 0.5 * (m + 1) * np.eye(m), rtol=0,
                               atol=1e-12 * (m + 1))


def quadratic_box_operator(box, h):
    """The quadratic Newton operator with the nodes of ``box`` as unknowns and
    every node its stencil reaches in the region, on a grid two nodes wider;
    returns ``(operator, unknowns)``."""
    n = len(box)
    shape = tuple(m + 4 for m in box)
    unknowns = np.zeros(shape, dtype=bool)
    unknowns[(slice(2, -2),) * n] = True
    region = np.zeros(shape, dtype=bool)
    region[(slice(1, -1),) * n] = True
    I = models.packed_identity(n)
    P = np.broadcast_to(I[..., None], I.shape + (int(region.sum()),))
    return solver.NewtonOperator(models.tensor_pairs(P), region, unknowns, h), unknowns


def assert_inverts(op, unknowns, h, seed):
    rng = np.random.default_rng(seed)
    r = np.where(unknowns, rng.standard_normal(unknowns.shape), 0.0)
    z = solver.clamped_box_preconditioner(unknowns, h)(r)
    assert np.all(z[~unknowns] == 0.0)
    assert np.abs(op(z) - r).max() <= 1e-12 * np.abs(r).max()


@pytest.mark.parametrize("box", [(1, 1), (1, 5), (2, 2), (2, 7), (3, 3), (3, 8),
                                 (4, 9), (6, 11), (17, 9)])
def test_preconditioner_inverts_the_quadratic_operator_on_a_2d_box(box):
    # the boxes with sides of one and two nodes have no side interior, or
    # sides whose end nodes meet
    op, unknowns = quadratic_box_operator(box, 0.1)
    assert_inverts(op.matvec, unknowns, 0.1, seed=59)


@pytest.mark.parametrize("nodes", [11, 12, 13, 33, 34])
def test_preconditioner_inverts_the_clamped_quadratic_operator(nodes):
    g = grids.make_grid(2, nodes, 0.5)
    op = solver._Iterate(g, models.quadratic_model(2)).newton_operator()
    assert_inverts(op.matvec, g.interior & g.valid, g.h, seed=nodes)


def odd_reflection_operator(z, h):
    """Oracle: ``h^n sum_a dup_a S_a S_a z``, the quadratic operator's stencil,
    on the odd reflection of the box values z about the node past each face."""
    n = z.ndim
    ext = z
    for axis in range(n):
        ext = np.moveaxis(ext, axis, 0)
        zero = np.zeros_like(ext[:1])
        ext = np.moveaxis(np.concatenate((-ext[:1], zero, ext, zero, -ext[-1:])), 0, axis)
    out = np.zeros_like(ext)
    for dup, st in zip(symmat.duplication_weights(n), oracles.weighted_hessian_stencil(n, h)):
        apply = lambda v: sum(w * oracles.shifted(v, off, 0.0) for off, w in st)
        out += dup * apply(apply(ext))
    return h**n * out[(slice(2, -2),) * n]


def test_preconditioner_inverts_the_exact_symbol_in_3d():
    box, h = (4, 5, 6), 0.1
    _, unknowns = quadratic_box_operator(box, h)
    inner = (slice(2, -2),) * 3
    op = lambda z: np.where(unknowns, np.pad(odd_reflection_operator(z[inner], h), 2), 0.0)
    assert_inverts(op, unknowns, h, seed=61)


def test_odd_reflection_oracle_differs_from_the_operator_on_the_layer_only():
    # A_B - P' acts on the box's edge layer alone: the two agree on values
    # that vanish there, and not on a layer value
    op, unknowns = quadratic_box_operator((9, 8), 0.1)
    inner = (slice(2, -2),) * 2
    z = np.zeros(unknowns.shape)
    z[3:-3, 3:-3] = np.random.default_rng(62).standard_normal((7, 6))
    assert np.allclose(op.matvec(z)[inner], odd_reflection_operator(z[inner], 0.1),
                       rtol=0, atol=1e-9)
    z[2, 5] = 1.0
    assert not np.allclose(op.matvec(z)[inner], odd_reflection_operator(z[inner], 0.1),
                           rtol=0, atol=1e-9)


def test_preconditioner_symmetric_positive_on_masked_unknowns():
    rng = np.random.default_rng(60)
    unknowns = rng.random((13, 17)) < 0.6
    unknowns[:, :2] = False
    P = solver.clamped_box_preconditioner(unknowns, 0.05)
    r, s = (np.where(unknowns, rng.standard_normal(unknowns.shape), 0.0)
            for _ in range(2))
    Pr, Ps = P(r), P(s)
    assert np.all(Pr[~unknowns] == 0.0)
    assert np.vdot(Pr, s) == pytest.approx(np.vdot(r, Ps), rel=1e-12)
    assert np.vdot(r, Pr) > 0.0


def _area_newton_system(g):
    f = lambda x, y: 0.3 * cubic_biharmonic(x, y)
    u = grids.sample(g, f)
    model = models.area_model(2, rho_U=0.9)
    return u, model, solver.energy_gradient(u, model)


def test_preconditioned_cg_iterations_grow_slowly_on_area_newton_system():
    iters = {}
    for nodes in (65, 129):
        u, model, grad = _area_newton_system(grids.make_grid(2, nodes, 0.5))
        unknowns = u.interior & u.valid
        _, iters[nodes], res = solver._newton_direction(
            solver._Iterate(u, model), grad,
            solver.clamped_box_preconditioner(unknowns, u.h),
            cg_rtol=1e-10, cg_maxiter=10_000, atol=0.0)
        assert res <= 1e-10
    assert max(iters.values()) < 150
    assert iters[129] < 2 * iters[65]


def test_cg_counts_per_newton_step_hold_under_refinement():
    quadratic = lambda x, y: 0.3 * np.exp(x) * np.cos(y)
    area = {}
    for nodes in (33, 65, 129, 257):
        g = grids.make_grid(2, nodes, 0.5)
        _, rep = solver.minimize_clamped(models.quadratic_model(2),
                                         oracles.clamped(g, quadratic))
        assert rep.converged and max(rep.cg_iterations) <= 3
        if nodes >= 65:
            _, rep = solver.minimize_clamped(models.area_model(2, rho_U=0.9),
                                             grids.sample(g, AREA_LIBRARY_SOLVES[2][1]))
            assert rep.converged
            area[nodes] = rep.cg_iterations
    lo, hi = min(area[65]) - 3, max(area[65]) + 3
    assert all(lo <= c <= hi for counts in area.values() for c in counts), area


def test_preconditioner_beats_jacobi_on_masked_l_shape():
    g = grids.make_grid(2, 49, 0.5)
    valid = np.ones(g.extents, dtype=bool)
    valid[25:, 25:] = False
    u, model, grad = _area_newton_system(replace(g, valid=valid))
    H = grids.hessian_field(u)
    unknowns = u.interior & u.valid
    op = tensor_field_operator(models.eval_d2F(model, H.matrices()[H.valid]),
                               H.valid, unknowns, u.h)
    diag = op.jacobi_diagonal()
    iters = {}
    for name, precond in (
            ("jacobi", lambda r: r / diag),
            ("clamped_box", solver.clamped_box_preconditioner(unknowns, u.h))):
        _, iters[name], _ = solver.conjugate_gradient(
            op.matvec, -grad, np.zeros_like(grad), 1e-10, 10_000,
            precond=precond)
    assert iters["clamped_box"] < iters["jacobi"]


def test_conjugate_gradient_returns_a_start_that_meets_the_target():
    b = np.ones(5)
    x, iters, rel = solver.conjugate_gradient(lambda x: 2 * x, b, 0.5 * b, 1e-12, 10,
                                              precond=lambda r: r)
    assert np.array_equal(x, 0.5 * b) and iters == 0 and rel == 0.0
    x0 = 0.5 * b + 1e-3
    x, iters, rel = solver.conjugate_gradient(lambda x: 2 * x, b, x0, 1e-2, 10,
                                              precond=lambda r: r)
    assert np.array_equal(x, x0) and iters == 0
    assert rel == pytest.approx(2e-3, rel=1e-9)


def test_conjugate_gradient_with_no_iterations_reports_the_start_residual():
    b = np.ones(5)
    with pytest.raises(solver.SolverError, match=r"0 iterations, relative residual 1 > 1e-12"):
        solver.conjugate_gradient(lambda x: 2 * x, b, np.zeros(5), 1e-12, 0,
                                  precond=lambda r: r)


# --------------------------------------------------------- second order

def test_constant_coeff_bvp_second_order_on_transcendental_solution():
    # exp(x) cos(y) is harmonic, hence a true solution of the fourth-order
    # equation, and is not annihilated exactly by the stencils
    errs = {}
    for nodes in (17, 33, 65):
        g = grids.make_grid(2, nodes, 0.5)
        f = lambda x, y: np.exp(x) * np.cos(y)
        w = solver.solve_constant_coeff_bvp(models.packed_identity(2),
                                            oracles.clamped(g, f))
        errs[nodes] = np.abs(w.values - grids.sample(g, f).values).max()
    order1 = np.log2(errs[17] / errs[33])
    order2 = np.log2(errs[33] / errs[65])
    assert min(order1, order2) >= 1.8


def test_constant_coeff_bvp_examples():
    g = grids.make_grid(2, 33, 0.5)
    u0 = oracles.clamped(g, cubic_biharmonic)
    w = solver.solve_constant_coeff_bvp(models.packed_identity(2), u0)
    exact = grids.sample(g, cubic_biharmonic)
    assert np.abs(w.values - exact.values).max() < 1e-9

    w0 = solver.solve_constant_coeff_bvp(models.packed_identity(2),
                                         oracles.clamped(g, lambda x, y: 0.0 * x))
    assert np.abs(w0.values).max() == 0.0

    # positive scaling of the coefficient leaves the minimizer unchanged
    w5 = solver.solve_constant_coeff_bvp(5.0 * models.packed_identity(2), u0)
    np.testing.assert_allclose(w5.values, w.values, atol=1e-9)


def test_constant_coeff_bvp_rejects_indefinite_tensor():
    g = grids.make_grid(2, 17, 1.0)
    with pytest.raises(models.ModelError):
        solver.solve_constant_coeff_bvp(-models.packed_identity(2), g)


def test_constant_coeff_bvp_rejects_a_coefficient_that_is_not_finite_packed():
    g = grids.make_grid(2, 17, 1.0)
    nan_id, inf_id = models.packed_identity(2), models.packed_identity(2)
    nan_id[0, 1] = nan_id[1, 0] = np.nan
    inf_id[2, 2] = np.inf
    for bad in (oracles.identity_tensor(2), oracles.identity_tensor(3),
                models.packed_identity(3), np.ones((2, 2, 2)), nan_id, inf_id):
        with pytest.raises(models.ModelError, match="finite packed"):
            solver.solve_constant_coeff_bvp(bad, g)


def test_minimize_agrees_with_bvp_for_quadratic_model():
    g = grids.make_grid(2, 21, 0.5)
    u0 = oracles.clamped(g, cubic_biharmonic)
    u, _ = solver.minimize_clamped(models.quadratic_model(2), u0, grad_tol=1e-13)
    w = solver.solve_constant_coeff_bvp(models.packed_identity(2), u0)
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
    tests = oracles.nodal_tests(g, stride=7)
    res = solver.weak_residual(u, models.quadratic_model(2), tests)
    grad = solver.energy_gradient(u, models.quadratic_model(2))
    picked = np.argwhere(g.interior & g.valid)[::7]
    want = np.array([grad[tuple(node)] for node in picked])
    np.testing.assert_allclose(res, want, rtol=1e-12, atol=1e-15)


def test_weak_residual_of_converged_minimizer_is_small():
    g = grids.make_grid(2, 21, 0.5)
    tol = 1e-11
    u, rep = solver.minimize_clamped(models.quadratic_model(2),
                                     oracles.clamped(g, cubic_biharmonic), grad_tol=tol)
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
    dd = oracles.constant_dd_model(2, oracles.identity_tensor(2))
    a = oracles.dd_weak_residual(u, dd, tests)
    b = solver.weak_residual(u, models.quadratic_model(2), tests)
    np.testing.assert_allclose(a, b, rtol=1e-12)


def test_dd_residual_vanishes_for_constant_hessian():
    g = grids.make_grid(2, 21, 1.0)
    u = grids.sample(g, lambda x, y: 0.3 * x**2 + 0.2 * x * y - 0.1 * y**2)
    tests = grids.bump_tests(g, [(0.0, 0.0), (0.2, 0.1)], scale=0.4)

    def coeff(M):
        s = symmat.hs_inner(M, M)
        return oracles.identity_tensor(2) * (1.0 + s)[..., None, None, None, None]

    dd = oracles.DoubleDivergenceModel(n=2, coeff=coeff)
    res = oracles.dd_weak_residual(u, dd, tests)
    assert np.abs(res).max() < 1e-13


def test_summation_by_parts_moves_derivatives_onto_test_function():
    # with a constant tensor the pairing sum_x <T D^2 u, D^2 eta> equals
    # sum_y u(y) * (S^T T S eta)(y): both derivative pairs land on eta
    rng = np.random.default_rng(56)
    g = grids.make_grid(2, 17, 1.0)
    u = g.with_values(rng.standard_normal(g.extents))
    eta = grids.bump_tests(g, [(0.0, 0.0)], scale=0.4).functions[0]
    T = oracles.identity_tensor(2) * 2.5
    dd = oracles.constant_dd_model(2, T)
    lhs = oracles.dd_weak_residual(u, dd, grids.TestFunctionSet((eta,)))[0]
    Seta = 2.5 * g.h**2 * apply_13point(eta, g.h)
    rhs = float((u.values * Seta).sum())
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_linearized_residual_constant_identity_quadratic_f():
    g = grids.make_grid(2, 17, 1.0)
    f = grids.sample(g, lambda x, y: 0.5 * x**2 - 0.25 * x * y)
    tests = grids.bump_tests(g, [(0.0, 0.0)], scale=0.5)
    b = np.broadcast_to(oracles.identity_tensor(2), g.extents + (2, 2, 2, 2))
    res = solver.linearized_residual(f, models.pack_tensor(b), tests)
    assert np.abs(res).max() < 1e-13


def test_linearized_residual_matches_triple_loop():
    rng = np.random.default_rng(57)
    g = grids.make_grid(2, 13, 1.0)
    f = g.with_values(rng.standard_normal(g.extents))
    eta = grids.bump_tests(g, [(0.0, 0.0)], scale=0.4).functions[0]
    b = rng.standard_normal(g.extents + (2, 2, 2, 2))
    b = oracles.symmetrize_tensor(b)
    res = solver.linearized_residual(f, models.pack_tensor(b),
                                     grids.TestFunctionSet((eta,)))[0]

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


def test_linearized_residual_rejects_a_field_that_is_not_packed_on_the_grid():
    g = grids.make_grid(2, 13, 1.0)
    f = grids.sample(g, lambda x, y: x * y)
    tests = grids.bump_tests(g, [(0.0, 0.0)], scale=0.4)
    for shape in (g.extents + (2, 2, 2, 2), (3, 3, 12, 13), (3, 2) + g.extents,
                  (3, 3) + g.extents + (1,)):
        with pytest.raises(grids.GridError, match="coefficient field has shape"):
            solver.linearized_residual(f, np.ones(shape), tests)


def test_linearized_residual_rejects_a_valid_mask_off_the_grid():
    g = grids.make_grid(2, 13, 1.0)
    f = grids.sample(g, lambda x, y: x * y)
    tests = grids.bump_tests(g, [(0.0, 0.0)], scale=0.4)
    b = np.ones((3, 3) + g.extents)
    for shape in ((12, 13), (13, 12), (13, 13, 1), (13,)):
        with pytest.raises(grids.GridError, match="valid mask has shape"):
            solver.linearized_residual(f, b, tests, b_valid=np.ones(shape, dtype=bool))


def test_linearized_residual_of_difference_quotient():
    # one difference quotient of a converged critical point solves the
    # linearized equation up to solver tolerance scaled by 1/h
    g = grids.make_grid(2, 21, 0.5)
    tol = 1e-12
    u, _ = solver.minimize_clamped(models.quadratic_model(2),
                                   oracles.clamped(g, cubic_biharmonic), grad_tol=tol)
    f = grids.difference_quotient(u, 0)
    quad = models.quadratic_model(2)
    beta = models.linearized_coefficients(quad, np.zeros((2, 2)), np.zeros((2, 2)))
    b = np.broadcast_to(beta[..., None, None], beta.shape + g.extents)
    tests = grids.bump_tests(g, [(0.0, 0.0)], scale=0.2)
    res = solver.linearized_residual(f, b, tests)
    eta = tests.functions[0]
    bound = 2.0 * tol / g.h * np.abs(eta).max() * 4.0
    assert np.abs(res).max() <= bound


@pytest.mark.parametrize("dim, nodes", [(2, 33), (3, 17)])
def test_difference_quotient_of_area_minimizer_solves_the_segment_equation(dim, nodes):
    # the paper's linearization: with b(x) the average of D^2F along the
    # segment [D^2u(x), D^2u(x + h e_0)], b (D^2u(x + h e_0) - D^2u(x)) =
    # DF(D^2u(x + h e_0)) - DF(D^2u(x)), so the difference quotient of a
    # critical point pairs to the gradient at two shifted tests; the frozen
    # coefficient D^2F(D^2u(x)) leaves an O(h) remainder.  The bump is off
    # centre: a centred one cancels by symmetry.
    g = grids.make_grid(dim, nodes, 0.5)
    data = (lambda x, y: 0.3 * (x**3 * y + x * y**3)) if dim == 2 else (
        lambda x, y, z: 0.3 * (x**3 * y + x * y**3) + 0.2 * x * y * z)
    model = models.area_model(dim, rho_U=0.9)
    u, rep = solver.minimize_clamped(model, grids.sample(g, data), grad_tol=1e-12)
    assert rep.converged
    H = grids.hessian_field(u)
    M = H.matrices()
    both = np.zeros_like(H.valid)
    both[:-1] = H.valid[:-1] & H.valid[1:]
    M_shift = np.zeros_like(M)
    M_shift[:-1] = M[1:]
    tests = grids.bump_tests(g, [(0.1, 0.05, 0.02)[:dim]], scale=0.2)
    f = grids.difference_quotient(u, 0)
    m = symmat.packed_size(dim)
    res = {}
    for name, end in (("segment", M_shift), ("frozen", M)):
        b = np.zeros((m, m) + g.extents)
        b[:, :, both] = models.linearized_coefficients(model, M[both], end[both])
        res[name] = abs(solver.linearized_residual(f, b, tests, b_valid=both)[0])
    assert res["segment"] <= 1e-11
    assert res["frozen"] >= 1e-4
