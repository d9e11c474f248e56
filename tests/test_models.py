import numpy as np
import pytest

from hessvar import models, symmat
from hessvar.models import (
    AdmissibilityError,
    Tensor4,
    area_model,
    custom_model,
    ellipticity_constant,
    eval_F,
    eval_dF,
    eval_d2F,
    linearized_coefficients,
    linearized_coefficients_dd,
    quadratic_model,
)


def random_sym(rng, count, n, scale=1.0):
    A = rng.standard_normal((count, n, n)) * scale
    return 0.5 * (A + np.swapaxes(A, -1, -2))


def fd_directional(F, M, sigma, eps=1e-6):
    """Oracle: Richardson central difference of F along sigma."""
    def central(e):
        return (F(M + e * sigma) - F(M - e * sigma)) / (2 * e)
    return (4 * central(eps / 2) - central(eps)) / 3


# ------------------------------------------------------------- basic values

def test_quadratic_values():
    m = quadratic_model(2)
    assert eval_F(m, np.zeros((2, 2))) == 0.0
    M = np.array([[1.0, 2.0], [2.0, -1.0]])
    assert eval_F(m, M) == pytest.approx(0.5 * (1 + 4 + 4 + 1))
    np.testing.assert_array_equal(eval_dF(m, M), M)


def test_area_values():
    m = area_model(2)
    assert eval_F(m, np.zeros((2, 2))) == 1.0
    assert eval_F(m, np.diag([1.0, 1.0])) == pytest.approx(2.0, rel=1e-14)


def test_area_value_equals_eigenvalue_product():
    # independent eigenvalue routine as oracle
    rng = np.random.default_rng(30)
    m3 = area_model(3)
    M = random_sym(rng, 50, 3, scale=1.5)
    vals = eval_F(m3, M)
    lam = np.linalg.eigvalsh(M)
    ref = np.sqrt(np.prod(1.0 + lam**2, axis=-1))
    np.testing.assert_allclose(vals, ref, rtol=1e-12)


def test_area_gradient_diagonal_closed_form():
    # dV/dlam_i = lam_i / (1 + lam_i^2) * V at diagonal arguments
    m = area_model(2)
    for lams in ([0.3, -0.7], [1.5, 0.2]):
        M = np.diag(lams)
        V = np.sqrt(np.prod([1 + l**2 for l in lams]))
        expected = np.diag([l / (1 + l**2) * V for l in lams])
        np.testing.assert_allclose(eval_dF(m, M), expected, rtol=1e-13, atol=1e-14)


def test_area_second_derivative_diagonal_closed_form():
    # at diagonal M the tensor pairs with axis directions as
    #   B(E_ii, E_jj) = V / (1+lam_i^2)^2        (i = j)
    #   B(E_ii, E_jj) = V e_i e_j                (i != j)
    m = area_model(2)
    lams = [0.4, -0.8]
    M = np.diag(lams)
    V = np.sqrt(np.prod([1 + l**2 for l in lams]))
    e = [l / (1 + l**2) for l in lams]
    T = eval_d2F(m, M)
    E = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
    for i in range(2):
        for j in range(2):
            got = models.tensor_pair(T, E[i], E[j])
            want = V / (1 + lams[i] ** 2) ** 2 if i == j else V * e[i] * e[j]
            np.testing.assert_allclose(got, want, rtol=1e-11, atol=1e-13)


def test_admissibility_raises_with_index():
    m = area_model(2, rho_U=0.5)
    M = np.stack([np.zeros((2, 2)), np.diag([0.9, 0.0])])
    with pytest.raises(AdmissibilityError) as err:
        eval_F(m, M)
    assert err.value.index == (1,)


# ------------------------------------------------------- derivative oracles

def spectral_area_d2F(M):
    """Reference second derivative of sqrt(det(I + M^2)) through M = Q diag(lam) Q^T.

    In the eigenbasis the form splits into a diagonal block (second partials
    in the eigenvalues) and decoupled off-diagonal directions whose
    coefficients are the divided differences of the first partials,
    V (1 - lam_i lam_j) / ((1 + lam_i^2)(1 + lam_j^2)).
    """
    n = M.shape[-1]
    lam, Q = np.linalg.eigh(M)
    one = 1.0 + lam * lam
    V = np.sqrt(np.prod(one, axis=-1))
    e = lam / one
    fij = V[..., None, None] * (e[..., :, None] * e[..., None, :])
    for i in range(n):
        fij[..., i, i] = V / one[..., i] ** 2
    theta = V[..., None, None] * (
        (1.0 - lam[..., :, None] * lam[..., None, :])
        / (one[..., :, None] * one[..., None, :])
    )
    T = np.zeros(M.shape[:-2] + (n, n, n, n))
    for i in range(n):
        for j in range(n):
            T[..., i, i, j, j] += fij[..., i, j]
            if i != j:
                T[..., i, j, i, j] += 0.5 * theta[..., i, j]
                T[..., i, j, j, i] += 0.5 * theta[..., i, j]
    return np.einsum("...ai,...bj,...ck,...dl,...ijkl->...abcd", Q, Q, Q, Q, T)


@pytest.mark.parametrize("n", [2, 3])
def test_area_second_derivative_matches_spectral_oracle(n):
    rng = np.random.default_rng(34)
    Q = symmat.haar_rotations(rng, 1, n)[0]
    lam = np.array([0.6, 0.6, -0.3])[:n]
    M = np.concatenate([
        random_sym(rng, 200, n, scale=1.5),
        np.zeros((1, n, n)),
        0.7 * np.eye(n)[None],
        (Q * lam) @ Q.T[None],           # repeated eigenvalue in a rotated frame
    ])
    T = eval_d2F(area_model(n), M)
    ref = spectral_area_d2F(M)
    # relative to each tensor's largest entry: small entries carry the
    # oracle's eigen-solver round-off
    scale = np.abs(ref).max(axis=(-4, -3, -2, -1), keepdims=True)
    assert np.all(np.abs(T - ref) <= 1e-12 * scale)
    assert np.array_equal(T, np.swapaxes(T, -4, -3))
    assert np.array_equal(T, np.swapaxes(T, -2, -1))


@pytest.mark.parametrize("n", [2, 3])
def test_gradient_matches_directional_fd_all_kinds(n):
    rng = np.random.default_rng(31)

    def bumpy(M):
        tr = np.einsum("...ii->...", M)
        return 0.5 * symmat.hs_inner(M, M) + 0.1 * np.exp(0.3 * tr)

    kinds = [
        (quadratic_model(n), 2.0),
        (area_model(n), 0.8),
        (custom_model(n, bumpy), 1.0),
    ]
    for model, scale in kinds:
        M = random_sym(rng, 30, n, scale=scale)
        sigma = random_sym(rng, 30, n)
        G = eval_dF(model, M)
        got = symmat.hs_inner(G, sigma)
        Fc = lambda X: eval_F(model, X)
        want = fd_directional(Fc, M, sigma)
        np.testing.assert_allclose(got, want, rtol=1e-7, atol=1e-9)


@pytest.mark.parametrize("n", [2, 3])
def test_second_derivative_matches_fd_of_gradient(n):
    rng = np.random.default_rng(32)
    for model, scale in ((quadratic_model(n), 2.0), (area_model(n), 0.7)):
        M = random_sym(rng, 20, n, scale=scale)
        sigma = random_sym(rng, 20, n)
        tau = random_sym(rng, 20, n)
        T = eval_d2F(model, M)
        got = models.tensor_pair(T, sigma, tau)
        dGd = fd_directional(lambda X: eval_dF(model, X), M, tau, eps=1e-5)
        want = symmat.hs_inner(dGd, sigma)
        np.testing.assert_allclose(got, want, rtol=1e-6, atol=1e-8)


def test_second_derivative_is_symmetric_bilinear_form():
    rng = np.random.default_rng(33)
    for n in (2, 3):
        m = area_model(n)
        M = random_sym(rng, 25, n, scale=0.9)
        sigma = random_sym(rng, 25, n)
        tau = random_sym(rng, 25, n)
        T = eval_d2F(m, M)
        a = models.tensor_pair(T, sigma, tau)
        b = models.tensor_pair(T, tau, sigma)
        np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-14)


def test_custom_fd_gradient_richardson_accuracy():
    # smooth custom integrand with a known closed-form gradient
    rng = np.random.default_rng(34)

    def F(M):
        return np.exp(0.2 * symmat.hs_inner(M, M))

    def dF_exact(M):
        return 0.4 * F(M)[..., None, None] * M

    m = custom_model(2, F)  # no dF given: internal Richardson fd path
    M = random_sym(rng, 40, 2)
    got = eval_dF(m, M)
    np.testing.assert_allclose(got, dF_exact(M), rtol=1e-8, atol=1e-10)


def test_quadratic_second_derivative_is_identity_form():
    rng = np.random.default_rng(35)
    m = quadratic_model(3)
    sigma = random_sym(rng, 20, 3)
    T = eval_d2F(m, np.zeros((20, 3, 3)))
    got = models.tensor_pair(T, sigma, sigma)
    np.testing.assert_allclose(got, symmat.hs_inner(sigma, sigma), rtol=1e-13)


# ------------------------------------------------------------- ellipticity

def test_ellipticity_quadratic_is_one():
    est = ellipticity_constant(quadratic_model(2), 50, seed=1)
    assert est.convex
    assert est.value == pytest.approx(1.0, abs=1e-12)


def test_area_form_minimum_at_zero_matrix():
    # at M = 0 the second-derivative form is the identity: min eigenvalue 1
    T = eval_d2F(area_model(2), np.zeros((2, 2)))
    assert models.tensor_min_eig(T) == pytest.approx(1.0, abs=1e-12)


def test_area_ellipticity_sampled_vs_diagonal_sweep():
    rho = 0.9
    est = ellipticity_constant(area_model(2, rho_U=rho), 2000, seed=7)
    assert est.convex
    # closed-form lower bound (1 - lam^2)/(1 + lam^2)^2 at lam = rho
    bound = (1 - rho**2) / (1 + rho**2) ** 2
    assert est.value >= bound - 1e-12
    assert bound == pytest.approx(0.0580, abs=5e-4)

    # brute-force oracle: dense diagonal sweep, fd-based form matrices
    lams = np.linspace(-rho, rho, 41)
    F = lambda M: eval_F(area_model(2), M)
    sweep_min = np.inf
    B = models._orthonormal_sym_basis(2)
    for l1 in lams:
        for l2 in lams:
            M = np.diag([l1, l2])
            Gm = np.empty((3, 3))
            for a in range(3):
                for b in range(3):
                    # second difference of F along basis directions
                    e = 1e-4
                    val = (
                        F(M + e * (B[a] + B[b])) - F(M + e * (B[a] - B[b]))
                        - F(M - e * (B[a] - B[b])) + F(M - e * (B[a] + B[b]))
                    ) / (4 * e * e)
                    Gm[a, b] = val
            sweep_min = min(sweep_min, np.linalg.eigvalsh(0.5 * (Gm + Gm.T))[0])
    assert est.value >= sweep_min - 1e-4
    assert abs(est.value - sweep_min) < 0.05


def test_area_uniform_convexity_across_margins():
    for eta in (0.5, 0.25, 0.1):
        for n in (2, 3):
            est = ellipticity_constant(area_model(n, rho_U=1 - eta), 300, seed=11)
            assert est.convex, f"eta={eta}, n={n}"


def test_ellipticity_reports_nonconvex_verdict():
    saddle = custom_model(2, lambda M: -0.5 * symmat.hs_inner(M, M), rho_U=1.0)
    est = ellipticity_constant(saddle, 20, seed=0)
    assert not est.convex
    assert "not uniformly convex" in est.verdict


def test_ellipticity_deterministic_given_seed():
    m = area_model(2, rho_U=0.8)
    a = ellipticity_constant(m, 100, seed=3)
    b = ellipticity_constant(m, 100, seed=3)
    assert a.value == b.value and a.attained_at == b.attained_at


# ------------------------------------------------------- linearized tensors

def test_linearized_coefficients_quadratic_constant():
    rng = np.random.default_rng(36)
    m = quadratic_model(2)
    M = random_sym(rng, 1, 2)[0]
    Ms = random_sym(rng, 1, 2)[0]
    beta = linearized_coefficients(m, M, Ms)
    np.testing.assert_allclose(beta, models.identity_tensor(2), atol=1e-13)


def test_linearized_coefficients_degenerate_segment():
    rng = np.random.default_rng(37)
    m = area_model(2)
    M = random_sym(rng, 1, 2, scale=0.5)[0]
    beta = linearized_coefficients(m, M, M)
    np.testing.assert_allclose(beta, eval_d2F(m, M), rtol=1e-12, atol=1e-14)


def test_linearized_coefficients_quadrature_refinement():
    rng = np.random.default_rng(38)
    m = area_model(2)
    M = random_sym(rng, 1, 2, scale=0.4)[0]
    Ms = random_sym(rng, 1, 2, scale=0.4)[0]
    coarse = linearized_coefficients(m, M, Ms, quad_nodes=8)
    fine = linearized_coefficients(m, M, Ms, quad_nodes=80)
    scale = np.abs(fine).max()
    assert np.abs(coarse - fine).max() <= 1e-10 * scale


def test_linearized_coefficients_segment_leaves_ball():
    m = area_model(2, rho_U=0.5)
    with pytest.raises(AdmissibilityError):
        linearized_coefficients(m, np.zeros((2, 2)), np.diag([0.9, 0.0]))


def test_dd_linearization_constant_coefficient():
    rng = np.random.default_rng(39)
    T = models.identity_tensor(2) * 3.0
    dd = models.constant_dd_model(2, T)
    M = random_sym(rng, 1, 2)[0]
    Ms = random_sym(rng, 1, 2)[0]
    b = linearized_coefficients_dd(dd, M, Ms)
    np.testing.assert_allclose(b, models.symmetrize_tensor(T), atol=1e-10)


def test_dd_linearization_degenerate_segment_display():
    # at M_shift = M:  b^{ij,kl} = a^{ij,kl}(M) + (da^{pq,kl}/dM_ij)(M) M_pq;
    # both sides evaluated through independent finite-difference code
    rng = np.random.default_rng(40)
    n = 2

    def coeff(M):
        # smooth nonconstant test coefficient
        s = symmat.hs_inner(M, M)
        base = models.identity_tensor(n)
        extra = np.einsum("...ij,...kl->...ijkl", M, M)
        return base * (1.0 + 0.5 * s)[..., None, None, None, None] + 0.25 * extra

    dd = models.DoubleDivergenceModel(n=n, coeff=coeff)
    M = random_sym(rng, 1, n, scale=0.6)[0]
    got = linearized_coefficients_dd(dd, M, M, quad_nodes=4)

    # oracle: plain central differences with a different step
    a0 = models.symmetrize_tensor(coeff(M))
    wantT = np.array(a0)
    e = 1e-6
    for i in range(n):
        for j in range(n):
            D = np.zeros((n, n))
            if i == j:
                D[i, i] = 1.0
            else:
                D[i, j] = D[j, i] = 1.0
            da = (models.symmetrize_tensor(coeff(M + e * D))
                  - models.symmetrize_tensor(coeff(M - e * D))) / (2 * e)
            scale = 1.0 if i == j else 0.5
            wantT[i, j] += scale * np.einsum("pqkl,pq->kl", da, M)
    wantT = models.symmetrize_tensor(wantT)
    np.testing.assert_allclose(got, wantT, rtol=1e-6, atol=1e-8)


# ------------------------------------------------------------- Tensor4 type

def test_tensor4_invariants():
    T = Tensor4.identity(2)
    assert T.n == 2
    assert T.min_eigenvalue() == pytest.approx(1.0)
    with pytest.raises(models.ModelError):
        bad = np.zeros((2, 2, 2, 2))
        bad[0, 1, 0, 0] = 1.0  # breaks first-pair symmetry
        Tensor4(bad)


def test_negated_custom_model():
    concave = lambda M: -0.5 * symmat.hs_inner(M, M)
    m = custom_model(2, concave, negate=True)
    M = np.diag([1.0, 2.0])
    assert eval_F(m, M) == pytest.approx(2.5)


# ------------------------------------------------------------- table models

def test_table_model_roundtrip(tmp_path):
    path = tmp_path / "quad.csv"
    models.write_table_model(path, quadratic_model(2), lo=-1.0, hi=1.0, count=9)
    tm = models.load_table_model(path, 2)
    # exact at lattice points
    M = symmat.unpack(np.array([0.5, -0.25, 0.75]), 2)
    assert eval_F(tm, M) == pytest.approx(eval_F(quadratic_model(2), M), rel=1e-12)
    # multilinear interpolation error O(step^2) off-lattice
    M = symmat.unpack(np.array([0.3, 0.1, -0.2]), 2)
    step = 0.25
    assert abs(eval_F(tm, M) - eval_F(quadratic_model(2), M)) <= 3 * step**2


def test_table_model_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("wrong\n")
    with pytest.raises(models.ModelError):
        models.load_table_model(path, 2)
