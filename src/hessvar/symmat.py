"""Dense kernels for small symmetric matrices (n = 2 or 3).

Symmetric n x n matrices are stored either as full ``(..., n, n)`` arrays or
in packed form ``(..., m)`` with m = n(n+1)/2, listing the upper triangle
row-major: (0,0), (0,1), (1,1) for n = 2 and (0,0), (0,1), (0,2), (1,1),
(1,2), (2,2) for n = 3.  Off-diagonal entries appear once in packed form, so
Hilbert-Schmidt contractions of packed data need the duplication weights from
:func:`duplication_weights`.

All routines are batched: leading axes are broadcast untouched.  Eigenvalue
decompositions are done in closed form for n = 2 and by cyclic Jacobi sweeps
for n = 3, so the module has no LAPACK dependency and stays bit-reproducible
across BLAS builds.
"""

from __future__ import annotations

import numpy as np

# upper-triangle index pairs, row-major
PACKED_PAIRS = {
    2: ((0, 0), (0, 1), (1, 1)),
    3: ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)),
}

JACOBI_MAX_SWEEPS = 30


class EigenConvergenceError(RuntimeError):
    """Cyclic Jacobi failed to reduce the off-diagonal within the sweep cap."""


def packed_size(n: int) -> int:
    return n * (n + 1) // 2


def dim_from_packed(m: int) -> int:
    for n, pairs in PACKED_PAIRS.items():
        if len(pairs) == m:
            return n
    raise ValueError(f"no supported dimension has packed size {m}")


def duplication_weights(n: int) -> np.ndarray:
    """Multiplicity of each packed slot in full-matrix sums (1 diag, 2 off)."""
    return np.array([1.0 if i == j else 2.0 for i, j in PACKED_PAIRS[n]])


def pack(mats: np.ndarray) -> np.ndarray:
    """Full symmetric ``(..., n, n)`` -> packed ``(..., m)``."""
    n = mats.shape[-1]
    pairs = PACKED_PAIRS[n]
    out = np.empty(mats.shape[:-2] + (len(pairs),), dtype=mats.dtype)
    for a, (i, j) in enumerate(pairs):
        out[..., a] = mats[..., i, j]
    return out

def unpack(packed: np.ndarray, n: int | None = None) -> np.ndarray:
    """Packed ``(..., m)`` -> full symmetric ``(..., n, n)``."""
    if n is None:
        n = dim_from_packed(packed.shape[-1])
    out = np.empty(packed.shape[:-1] + (n, n), dtype=packed.dtype)
    for a, (i, j) in enumerate(PACKED_PAIRS[n]):
        out[..., i, j] = packed[..., a]
        out[..., j, i] = packed[..., a]
    return out


def check_symmetric(M: np.ndarray, tol: float = 0.0) -> None:
    """Raise if M is not (batched) square symmetric with finite entries."""
    M = np.asarray(M)
    if M.ndim < 2 or M.shape[-1] != M.shape[-2]:
        raise ValueError(f"expected square matrices, got shape {M.shape}")
    if M.shape[-1] not in PACKED_PAIRS:
        raise ValueError(f"dimension {M.shape[-1]} not supported (n must be 2 or 3)")
    if not np.all(np.isfinite(M)):
        raise ValueError("matrix entries must be finite")
    dev = np.abs(M - np.swapaxes(M, -1, -2)).max()
    if dev > tol:
        raise ValueError(f"matrix not symmetric (max asymmetry {dev:g})")


def hs_inner(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Hilbert-Schmidt inner product over the trailing (n, n) axes."""
    return np.sum(A * B, axis=(-2, -1))


def hs_norm(A: np.ndarray) -> np.ndarray:
    return np.sqrt(hs_inner(A, A))


def hs_norm_packed(packed: np.ndarray, n: int | None = None) -> np.ndarray:
    if n is None:
        n = dim_from_packed(packed.shape[-1])
    w = duplication_weights(n)
    return np.sqrt(np.sum(w * packed * packed, axis=-1))


def det_sym(M: np.ndarray) -> np.ndarray:
    """Determinant of symmetric 2x2 / 3x3 matrices, expanded by cofactors."""
    n = M.shape[-1]
    if n == 2:
        return M[..., 0, 0] * M[..., 1, 1] - M[..., 0, 1] * M[..., 1, 0]
    if n == 3:
        a, b, c = M[..., 0, 0], M[..., 0, 1], M[..., 0, 2]
        d, e, f = M[..., 1, 1], M[..., 1, 2], M[..., 2, 2]
        return a * (d * f - e * e) - b * (b * f - e * c) + c * (b * e - d * c)
    raise ValueError(f"dimension {n} not supported")


def inv_sym(M: np.ndarray) -> np.ndarray:
    """Adjugate inverse of symmetric 2x2 / 3x3 matrices."""
    n = M.shape[-1]
    det = det_sym(M)
    out = np.empty_like(M)
    if n == 2:
        out[..., 0, 0] = M[..., 1, 1]
        out[..., 1, 1] = M[..., 0, 0]
        out[..., 0, 1] = -M[..., 0, 1]
        out[..., 1, 0] = -M[..., 1, 0]
    elif n == 3:
        a, b, c = M[..., 0, 0], M[..., 0, 1], M[..., 0, 2]
        d, e, f = M[..., 1, 1], M[..., 1, 2], M[..., 2, 2]
        out[..., 0, 0] = d * f - e * e
        out[..., 0, 1] = out[..., 1, 0] = c * e - b * f
        out[..., 0, 2] = out[..., 2, 0] = b * e - c * d
        out[..., 1, 1] = a * f - c * c
        out[..., 1, 2] = out[..., 2, 1] = b * c - a * e
        out[..., 2, 2] = a * d - b * b
    else:
        raise ValueError(f"dimension {n} not supported")
    return out / det[..., None, None]


def _eig_2x2(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    a = M[..., 0, 0]
    b = M[..., 0, 1]
    c = M[..., 1, 1]
    mid = 0.5 * (a + c)
    rad = np.sqrt(0.25 * (a - c) ** 2 + b * b)
    w = np.stack([mid - rad, mid + rad], axis=-1)
    # rotation angle diagonalizing [[a, b], [b, c]]
    theta = 0.5 * np.arctan2(2.0 * b, a - c)
    cs, sn = np.cos(theta), np.sin(theta)
    V = np.empty(M.shape, dtype=M.dtype)
    # columns are eigenvectors; theta rotates onto the (larger, smaller) pair
    V[..., 0, 0] = -sn
    V[..., 1, 0] = cs
    V[..., 0, 1] = cs
    V[..., 1, 1] = sn
    return w, V


def _eig_3x3_jacobi(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    A = np.array(M, dtype=float, copy=True)
    V = np.broadcast_to(np.eye(3), A.shape).copy()
    scale = np.maximum(hs_norm(A), np.finfo(float).tiny)
    for _ in range(JACOBI_MAX_SWEEPS):
        off = np.sqrt(
            2.0 * (A[..., 0, 1] ** 2 + A[..., 0, 2] ** 2 + A[..., 1, 2] ** 2)
        )
        if np.all(off <= 1e-15 * scale):
            break
        for p, q in ((0, 1), (0, 2), (1, 2)):
            apq = A[..., p, q]
            active = np.abs(apq) > 1e-18 * scale
            if not active.any():
                continue
            app, aqq = A[..., p, p], A[..., q, q]
            with np.errstate(divide="ignore", invalid="ignore"):
                tau = (aqq - app) / (2.0 * apq)
            t = np.sign(tau) / (np.abs(tau) + np.sqrt(1.0 + tau * tau))
            t = np.where(tau == 0.0, 1.0, t)
            t = np.where(active, t, 0.0)
            cs = 1.0 / np.sqrt(1.0 + t * t)
            sn = t * cs
            # two-sided rotation in the (p, q) plane
            rot = np.broadcast_to(np.eye(3), A.shape).copy()
            rot[..., p, p] = cs
            rot[..., q, q] = cs
            rot[..., p, q] = sn
            rot[..., q, p] = -sn
            A = np.swapaxes(rot, -1, -2) @ A @ rot
            V = V @ rot
            # kill round-off leakage at the annihilated slot
            A[..., p, q] = np.where(active, 0.0, A[..., p, q])
            A[..., q, p] = A[..., p, q]
    else:
        off = np.sqrt(
            2.0 * (A[..., 0, 1] ** 2 + A[..., 0, 2] ** 2 + A[..., 1, 2] ** 2)
        )
        if np.any(off > 1e-12 * scale):
            raise EigenConvergenceError(
                f"Jacobi sweeps exhausted ({JACOBI_MAX_SWEEPS}) with "
                f"max relative off-diagonal {(off / scale).max():g}"
            )
    w = np.stack([A[..., 0, 0], A[..., 1, 1], A[..., 2, 2]], axis=-1)
    order = np.argsort(w, axis=-1)
    w = np.take_along_axis(w, order, axis=-1)
    V = np.take_along_axis(V, order[..., None, :].repeat(3, axis=-2), axis=-1)
    return w, V


def sym_eig(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and eigenvectors of symmetric matrices.

    Returns ``(w, V)`` with ``M = V @ diag(w) @ V.T`` column-wise.  Closed
    form for n = 2, cyclic Jacobi (sweep cap ``JACOBI_MAX_SWEEPS``) for n = 3.
    """
    M = np.asarray(M, dtype=float)
    n = M.shape[-1]
    if n == 2:
        w, V = _eig_2x2(M)
        order = np.argsort(w, axis=-1)
        w = np.take_along_axis(w, order, axis=-1)
        V = np.take_along_axis(V, order[..., None, :].repeat(2, axis=-2), axis=-1)
        return w, V
    if n == 3:
        return _eig_3x3_jacobi(M)
    raise ValueError(f"dimension {n} not supported")


def sym_eigvals(M: np.ndarray) -> np.ndarray:
    return sym_eig(M)[0]


def op_norm(M: np.ndarray) -> np.ndarray:
    """Spectral norm of symmetric matrices: max |eigenvalue|."""
    return np.abs(sym_eigvals(M)).max(axis=-1)


def haar_rotations(rng: np.random.Generator, count: int, n: int) -> np.ndarray:
    """Haar-distributed rotations via QR of Gaussian matrices, sign-fixed."""
    Z = rng.standard_normal((count, n, n))
    Q, R = np.linalg.qr(Z)
    signs = np.sign(np.einsum("...ii->...i", R))
    signs = np.where(signs == 0.0, 1.0, signs)
    Q = Q * signs[..., None, :]
    det = np.linalg.det(Q)
    Q[..., :, 0] *= det[..., None]
    return Q


def random_sym_opnorm_ball(
    rng: np.random.Generator, count: int, n: int, radius: float
) -> np.ndarray:
    """Symmetric samples with operator norm <= radius.

    Eigenvalues drawn uniformly from [-radius, radius] (their cube is exactly
    the operator-norm ball in spectral coordinates), frames Haar-rotated.
    """
    lam = rng.uniform(-radius, radius, size=(count, n))
    Q = haar_rotations(rng, count, n)
    return np.einsum("bij,bj,bkj->bik", Q, lam, Q)
