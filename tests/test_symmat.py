from functools import partial

import numpy as np
import pytest

from hessvar import models, symmat


def random_sym(rng, count, n, scale=1.0):
    A = rng.standard_normal((count, n, n)) * scale
    return 0.5 * (A + np.swapaxes(A, -1, -2))


def test_pack_unpack_roundtrip():
    rng = np.random.default_rng(0)
    for n in (2, 3):
        M = random_sym(rng, 7, n)
        assert np.array_equal(symmat.unpack(symmat.pack(M)), M)


def test_packed_norm_matches_full_norm():
    rng = np.random.default_rng(1)
    for n in (2, 3):
        M = random_sym(rng, 5, n)
        np.testing.assert_allclose(
            symmat.hs_norm_packed(symmat.pack(M)), symmat.hs_norm(M), rtol=1e-14
        )


@pytest.mark.parametrize("n", [2, 3])
def test_component_major_layout_gives_the_full_matrix_bits(n):
    rng = np.random.default_rng(3)
    M = np.concatenate([random_sym(rng, 300, n, scale=2.0), np.zeros((1, n, n)),
                        np.round(random_sym(rng, 50, n, scale=3.0))])
    c = np.ascontiguousarray(symmat.pack(M).T)
    assert np.array_equal(symmat.eigvals_packed(c), symmat.sym_eigvals(M))
    assert np.array_equal(np.abs(symmat.eigvals_packed(c)).max(axis=-1), symmat.op_norm(M))
    assert np.array_equal(symmat.det_packed(c), symmat.det_sym(M))
    g = np.eye(n) + M @ M
    B = symmat.inv_sym(g)
    assert np.array_equal(symmat.unpack(symmat.inv_packed(symmat.pack(g).T).T), B)
    # each upper entry of the product is summed in ascending k, as einsum does
    assert np.array_equal(symmat.sym_product(c, symmat.pack(B).T),
                          symmat.pack(np.einsum("...ik,...kj->...ij", M, B)).T)


@pytest.mark.parametrize("n", [2, 3])
def test_eigenvalues_match_lapack(n):
    rng = np.random.default_rng(2)
    M = random_sym(rng, 200, n, scale=3.0)
    w = symmat.sym_eigvals(M)
    w_ref = np.linalg.eigvalsh(M)
    np.testing.assert_allclose(w, w_ref, atol=1e-12 * 3.0)


def test_eigen_handles_repeated_eigenvalues():
    M = np.array([[2.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, -1.0]])
    np.testing.assert_allclose(symmat.sym_eigvals(M), [-1.0, 2.0, 2.0], atol=1e-14)
    Q = symmat.haar_rotations(np.random.default_rng(3), 1, 3)[0]
    np.testing.assert_allclose(symmat.sym_eigvals(Q @ M @ Q.T), [-1.0, 2.0, 2.0],
                               atol=1e-14)


def _rotated(rng, lam):
    Q = symmat.haar_rotations(rng, len(lam), 3)
    return np.einsum("bij,bj,bkj->bik", Q, lam, Q)


def test_eigvals_3x3_match_lapack_on_hard_spectra():
    # no RuntimeWarning either: the suite's filterwarnings makes one an error
    rng = np.random.default_rng(8)
    lo, hi = np.sort(rng.uniform(-1.0, 1.0, (2, 300)), axis=0)
    spectra = {
        "random": rng.uniform(-1.0, 1.0, (300, 3)),
        "doubled top": np.stack([lo, hi, hi], axis=-1),
        "doubled bottom": np.stack([lo, lo, hi], axis=-1),
        "doubled extreme": np.tile([-0.89, -0.89, 0.1], (300, 1)),
        "tripled": np.stack([lo, lo, lo], axis=-1),
        "gap 1e-7": np.stack([lo, lo + 1e-7, hi], axis=-1),
        "gap 1e-9": np.stack([lo, hi, hi + 1e-9], axis=-1),
    }
    cases = {k: _rotated(rng, lam) for k, lam in spectra.items()}
    cases["diagonal"] = rng.uniform(-1.0, 1.0, (300, 3))[..., None] * np.eye(3)
    cases["zero"] = np.zeros((4, 3, 3))
    cases["unbatched"] = cases["doubled top"][0]
    cases["scale 1e-300"] = 1e-300 * cases["random"]
    cases["scale 1e150"] = 1e150 * cases["doubled bottom"]
    for name, M in cases.items():
        w = symmat.sym_eigvals(M)
        ref = np.linalg.eigvalsh(M)
        assert w.shape == ref.shape, name
        err = np.abs(w - ref).max(axis=-1)
        assert np.all(err <= 1e-14 * np.abs(ref).max(axis=-1)), (name, err.max())


def _awkward_components(rng, n):
    """Packed (m, K) components of random, zero, tied, 1e+-200-scaled and
    non-finite matrices; K spans many SIMD bodies and a tail."""
    Q = symmat.haar_rotations(rng, 20, n)
    tied = np.einsum("bij,j,bkj->bik", Q, [2.0, 2.0, -1.0][:n], Q)
    M = np.concatenate([random_sym(rng, 200, n), np.zeros((5, n, n)), tied,
                        np.broadcast_to(3.0 * np.eye(n), (5, n, n)),
                        random_sym(rng, 20, n, 1e200), random_sym(rng, 20, n, 1e-200)])
    c = np.ascontiguousarray(symmat.pack(M).T)
    c[0, 7], c[1, 8], c[-1, 9] = np.nan, np.inf, -np.inf
    return c


def _same_bits(x, y):
    """Equal bits, zero signs included, and NaN at the same entries.  Which
    of two NaN operands propagates is left open by IEEE 754, and numpy's
    loops for short and long arrays may choose differently."""
    nan = np.isnan(x)
    return (np.array_equal(nan, np.isnan(y))
            and np.array_equal(x[~nan].view(np.uint64), y[~nan].view(np.uint64)))


@pytest.mark.parametrize("n", [2, 3])
def test_blocked_kernels_keep_their_bits_at_every_block_size(n, monkeypatch):
    # every output element sees the same elementwise operations in any block,
    # so the transcendental ufuncs must agree between SIMD bodies and tails
    c = _awkward_components(np.random.default_rng(5), n)
    area = models.area_model(n)
    kernels = {
        "eigvals_packed": symmat.eigvals_packed,
        "sym_eigvals on strided views": lambda c: symmat.sym_eigvals(symmat.unpack(c.T)),
        "graph_metric_packed": partial(symmat.blockwise, models.graph_metric_packed),
        "area F": partial(models._F_body, area),
        "area dF": partial(models._dF_body, area),
        "area d2F pairs": lambda c: [T.copy() for _, _, T, _ in models._area_d2F_pairs(c)],
    }
    K = c.shape[1]
    for name, kernel in kernels.items():
        got = {}
        for block in (1, 7, symmat.NODE_BLOCK, K):
            monkeypatch.setattr(symmat, "NODE_BLOCK", block)
            with np.errstate(all="ignore"):
                out = kernel(c)
            got[block] = [np.asarray(x) for x in (out if isinstance(out, (tuple, list))
                                                  else [out])]
        # one block of K is one call on all matrices
        for block, outs in got.items():
            assert len(outs) == len(got[K])
            for x, y in zip(outs, got[K]):
                assert x.shape == y.shape and K in x.shape, (name, block)
                assert _same_bits(x, y), (name, block)


def test_blockwise_keeps_the_batch_shape(monkeypatch):
    monkeypatch.setattr(symmat, "NODE_BLOCK", 7)
    M = random_sym(np.random.default_rng(6), 60, 3)
    w = symmat.sym_eigvals(M)
    assert np.array_equal(symmat.sym_eigvals(M.reshape(5, 12, 3, 3)), w.reshape(5, 12, 3))
    assert np.array_equal(symmat.sym_eigvals(M[4]), w[4])
    assert symmat.sym_eigvals(np.zeros((0, 3, 3))).shape == (0, 3)
    g, B, F = symmat.blockwise(models.graph_metric_packed, symmat.components(M[:50]))
    assert g.shape == B.shape == (6, 50) and F.shape == (50,)


def test_nonfinite_matrix_is_not_admissible():
    model = models.area_model(3, rho_U=0.9)
    M = np.stack([0.1 * np.eye(3)] * 3)
    M[1, 0, 2] = M[1, 2, 0] = np.nan
    M[2, 1, 1] = np.inf
    assert models.admissible(model, M).tolist() == [True, False, False]


@pytest.mark.parametrize("n", [2, 3])
def test_det_and_inverse_against_lapack(n):
    rng = np.random.default_rng(4)
    M = random_sym(rng, 50, n) + 4.0 * np.eye(n)
    np.testing.assert_allclose(symmat.det_sym(M), np.linalg.det(M), rtol=1e-12)
    np.testing.assert_allclose(symmat.inv_sym(M), np.linalg.inv(M), rtol=1e-11, atol=1e-13)


def test_op_norm_is_max_abs_eigenvalue():
    rng = np.random.default_rng(5)
    for n in (2, 3):
        M = random_sym(rng, 40, n, scale=2.0)
        ref = np.abs(np.linalg.eigvalsh(M)).max(axis=-1)
        np.testing.assert_allclose(symmat.op_norm(M), ref, rtol=1e-12)


def test_haar_rotations_are_orthogonal():
    rng = np.random.default_rng(6)
    for n in (2, 3):
        Q = symmat.haar_rotations(rng, 30, n)
        I = np.einsum("bij,bkj->bik", Q, Q)
        np.testing.assert_allclose(I, np.broadcast_to(np.eye(n), I.shape), atol=1e-12)
        np.testing.assert_allclose(np.linalg.det(Q), 1.0, atol=1e-12)


def test_opnorm_ball_sampling_respects_radius():
    rng = np.random.default_rng(7)
    for n in (2, 3):
        M = symmat.random_sym_opnorm_ball(rng, 500, n, radius=0.7)
        assert symmat.op_norm(M).max() <= 0.7 + 1e-12
        # symmetric by construction
        np.testing.assert_allclose(M, np.swapaxes(M, -1, -2), atol=1e-15)
