"""Dense kernels for small symmetric matrices (n = 2 or 3).

Symmetric n x n matrices are stored either as full ``(..., n, n)`` arrays or
in packed form ``(..., m)`` with m = n(n+1)/2, listing the upper triangle
row-major: (0,0), (0,1), (1,1) for n = 2 and (0,0), (0,1), (0,2), (1,1),
(1,2), (2,2) for n = 3.  Off-diagonal entries appear once in packed form, so
Hilbert-Schmidt contractions of packed data need the duplication weights from
:func:`duplication_weights`.

All routines are batched: leading axes are broadcast untouched.  Eigenvalues
(no eigenvectors) come in closed form with no iteration: ``mid -+ rad`` for
n = 2, and for n = 3 the trigonometric root of the characteristic cubic
(Smith, CACM 4(4):168, 1961) for the isolated extreme eigenvalue, followed by
the 2x2 closed form on its orthogonal complement (the deflation of Kopp,
IJMPC 19:523, 2008).  Every matrix is first scaled by its largest absolute
entry, so the 3x3 eigenvalues agree with LAPACK to a few ulps of the largest
eigenvalue -- for repeated and nearly repeated eigenvalues too -- and entry
scales from 1e-300 to 1e300 neither underflow nor overflow.  The kernels are
elementwise numpy arithmetic (no LAPACK, BLAS or ``einsum``), so results are
bit-reproducible across BLAS builds.
"""

from __future__ import annotations

import numpy as np

# upper-triangle index pairs, row-major
PACKED_PAIRS = {
    2: ((0, 0), (0, 1), (1, 1)),
    3: ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)),
}

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


def _eigvals_2x2(M: np.ndarray) -> np.ndarray:
    a = M[..., 0, 0]
    b = M[..., 0, 1]
    c = M[..., 1, 1]
    mid = 0.5 * (a + c)
    rad = np.sqrt(0.25 * (a - c) ** 2 + b * b)
    return np.stack([mid - rad, mid + rad], axis=-1)


def _eigvals_3x3(M: np.ndarray) -> np.ndarray:
    """Trigonometric root of the isolated eigenvalue, then 2x2 deflation.

    With ``A = M / max|M_ij|``, ``q = tr A / 3`` and ``B = (A - q I) / p``
    scaled to ``tr B^2 = 6``, the roots of B are ``2 cos(phi + 2 pi k / 3)``
    with ``cos 3 phi = det(B) / 2``.  The extreme root on the side of
    ``det B`` (``beta``, sign of det B times ``2 cos(arccos|det B / 2| / 3)``)
    lies at least sqrt(3) from the other two, so it is well conditioned
    even where those two coincide.  Its spectral projector is
    ``adj(B - beta I) / tr adj(B - beta I)`` (rank one, trace at least 3 in
    magnitude), and the other two roots are ``mid -+ rad`` of B restricted
    to the orthogonal complement: ``mid = (tr B - beta) / 2`` and
    ``2 rad^2 = |B - mid I - (beta - mid) P|_F^2``.
    """
    scale = np.abs(M).max(axis=(-2, -1))
    # an infinite entry gives NaN eigenvalues, like a NaN entry
    with np.errstate(invalid="ignore"):
        A = M / np.where(scale > 0.0, scale, 1.0)[..., None, None]
    q = (A[..., 0, 0] + A[..., 1, 1] + A[..., 2, 2]) / 3.0
    b00, b11, b22 = A[..., 0, 0] - q, A[..., 1, 1] - q, A[..., 2, 2] - q
    b01, b02, b12 = A[..., 0, 1], A[..., 0, 2], A[..., 1, 2]
    p = np.sqrt((b00 * b00 + b11 * b11 + b22 * b22
                 + 2.0 * (b01 * b01 + b02 * b02 + b12 * b12)) / 6.0)
    s = 1.0 / np.where(p > 0.0, p, 1.0)   # p = 0: A = qI, any B will do
    b00, b11, b22, b01, b02, b12 = (v * s for v in (b00, b11, b22, b01, b02, b12))
    half_det = 0.5 * (b00 * (b11 * b22 - b12 * b12) - b01 * (b01 * b22 - b12 * b02)
                      + b02 * (b01 * b12 - b11 * b02))
    beta = np.copysign(
        2.0 * np.cos(np.arccos(np.minimum(np.abs(half_det), 1.0)) / 3.0), half_det)
    c00, c11, c22 = b00 - beta, b11 - beta, b22 - beta
    adj = (c11 * c22 - b12 * b12, c00 * c22 - b02 * b02, c00 * c11 - b01 * b01,
           b02 * b12 - b01 * c22, b01 * b12 - b02 * c11, b01 * b02 - c00 * b12)
    mid = 0.5 * (b00 + b11 + b22 - beta)
    w = (beta - mid) / (adj[0] + adj[1] + adj[2])
    d00, d11, d22 = b00 - mid - w * adj[0], b11 - mid - w * adj[1], b22 - mid - w * adj[2]
    d01, d02, d12 = b01 - w * adj[3], b02 - w * adj[4], b12 - w * adj[5]
    rad = np.sqrt(0.5 * (d00 * d00 + d11 * d11 + d22 * d22)
                  + d01 * d01 + d02 * d02 + d12 * d12)
    mu = np.stack([mid - rad, mid + rad, beta], axis=-1)
    return np.sort((q * scale)[..., None] + (p * scale)[..., None] * mu, axis=-1)


def sym_eigvals(M: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of symmetric 2x2 / 3x3 matrices, in closed form."""
    M = np.asarray(M, dtype=float)
    n = M.shape[-1]
    if n == 2:
        return _eigvals_2x2(M)
    if n == 3:
        return _eigvals_3x3(M)
    raise ValueError(f"dimension {n} not supported")


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
