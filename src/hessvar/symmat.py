"""Dense kernels for small symmetric matrices (n = 2 or 3).

Symmetric n x n matrices are stored either as full ``(..., n, n)`` arrays or
in packed form ``(..., m)`` with m = n(n+1)/2, listing the upper triangle
row-major: (0,0), (0,1), (1,1) for n = 2 and (0,0), (0,1), (0,2), (1,1),
(1,2), (2,2) for n = 3.  Off-diagonal entries appear once in packed form, so
Hilbert-Schmidt contractions of packed data need the duplication weights from
:func:`duplication_weights`.

All routines are batched: leading axes are broadcast untouched.  Each
operation has one kernel (``*_packed``, :func:`sym_product`) over a sequence
``c`` of packed component arrays, ``c[a]`` slot a of every matrix: a
contiguous component-major ``(m, K)`` array, or the views ``M[..., i, j]`` of
:func:`components`, which the full-matrix functions pass.  The closed-form
kernels with many temporaries (the eigenvalues here, and the metric triple
and area integrand of :mod:`hessvar.models`) run through :func:`blockwise`,
``NODE_BLOCK`` matrices at a time, so each temporary is a block, not a field;
every matrix gets the bits of one unblocked call.  Eigenvalues
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

import functools
import math

import numpy as np

# upper-triangle index pairs, row-major
PACKED_PAIRS = {
    2: ((0, 0), (0, 1), (1, 1)),
    3: ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)),
}
# SLOTS[n][i][j]: the packed slot holding entry (i, j)
SLOTS = {n: [[p.index((min(i, j), max(i, j))) for j in range(n)] for i in range(n)]
         for n, p in PACKED_PAIRS.items()}

# matrices per block of :func:`blockwise`: a float64 temporary of one block
# is 32 KiB, so the dozens a kernel makes fit in a 2 MiB L2 cache
NODE_BLOCK = 4096


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


def components(M: np.ndarray) -> list:
    """The packed components of full ``(..., n, n)`` matrices, as views."""
    return [M[..., i, j] for i, j in PACKED_PAIRS[M.shape[-1]]]


def matrices(c) -> np.ndarray:
    """Full symmetric ``(..., n, n)`` matrices from packed components ``c``."""
    n = dim_from_packed(len(c))
    out = np.empty(np.shape(c[0]) + (n, n), dtype=np.asarray(c[0]).dtype)
    for a, (i, j) in enumerate(PACKED_PAIRS[n]):
        out[..., i, j] = out[..., j, i] = c[a]
    return out


def pack(mats: np.ndarray) -> np.ndarray:
    """Full symmetric ``(..., n, n)`` -> packed ``(..., m)``."""
    return np.stack(components(mats), axis=-1)


def unpack(packed: np.ndarray) -> np.ndarray:
    """Packed ``(..., m)`` -> full symmetric ``(..., n, n)``; m determines n."""
    return matrices(np.moveaxis(packed, -1, 0))


def hs_inner(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Hilbert-Schmidt inner product over the trailing (n, n) axes."""
    return np.sum(A * B, axis=(-2, -1))


def hs_norm(A: np.ndarray) -> np.ndarray:
    return np.sqrt(hs_inner(A, A))


def hs_norm_packed(packed: np.ndarray) -> np.ndarray:
    w = duplication_weights(dim_from_packed(packed.shape[-1]))
    return np.sqrt(np.sum(w * packed * packed, axis=-1))


def det_packed(c) -> np.ndarray:
    """Determinant, expanded by cofactors."""
    if len(c) == 3:
        a, b, d = c
        return a * d - b * b
    a, b, c_, d, e, f = c
    return a * (d * f - e * e) - b * (b * f - e * c_) + c_ * (b * e - d * c_)


def inv_packed(c, det=None) -> np.ndarray:
    """Adjugate inverse as an (m, ...) array; ``det`` of ``c`` if known."""
    det = det_packed(c) if det is None else det
    if len(c) == 3:
        a, b, d = c
        return np.stack([d / det, -b / det, a / det])
    a, b, c_, d, e, f = c
    return np.stack([x / det for x in (d * f - e * e, c_ * e - b * f, b * e - c_ * d,
                                       a * f - c_ * c_, b * c_ - a * e, a * d - b * b)])


def sym_product(c, d) -> np.ndarray:
    """Packed ``C D`` of commuting symmetric matrices, (m, ...): each upper
    entry is ``sum_k C_ik D_kj`` in ascending k (the product is symmetric)."""
    n = dim_from_packed(len(c))
    S, out = SLOTS[n], np.empty((len(c),) + np.shape(c[0]))
    for a, (i, j) in enumerate(PACKED_PAIRS[n]):
        np.multiply(c[S[i][0]], d[S[0][j]], out=out[a, ...])
        for k in range(1, n):
            out[a, ...] += c[S[i][k]] * d[S[k][j]]
    return out


def blockwise(kernel, c):
    """``kernel(c)``, evaluated on ``NODE_BLOCK`` matrices at a time.

    ``c`` holds the packed components, all of one shape (the matrices).
    ``kernel`` maps a sequence of 1-D component blocks to an array, or a
    tuple of arrays, whose trailing axis runs over the block's matrices.
    Each output is written block by block into its full-size array, whose
    trailing axis takes the shape of ``c[0]``, so the kernel's temporaries
    stay block-sized.  An elementwise kernel gives every matrix the bits of
    one call on all of them; reductions belong after the call.
    """
    shape = np.shape(c[0])
    K = math.prod(shape)
    flat = [np.reshape(x, K) for x in c]
    outs = None
    for lo in range(0, max(K, 1), NODE_BLOCK):
        part = kernel([x[lo:lo + NODE_BLOCK] for x in flat])
        parts = part if isinstance(part, tuple) else (part,)
        if outs is None:
            outs = [np.empty(p.shape[:-1] + (K,), p.dtype) for p in parts]
        for out, p in zip(outs, parts):
            out[..., lo:lo + NODE_BLOCK] = p
    outs = tuple(out.reshape(out.shape[:-1] + shape) for out in outs)
    return outs if isinstance(part, tuple) else outs[0]


def eigvals_packed(c) -> np.ndarray:
    """Ascending eigenvalues ``(..., n)``, in closed form, by :func:`blockwise`.

    n = 3: with ``A = M / max|M_ij|``, ``q = tr A / 3`` and ``B = (A - q I) / p``
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
    return np.moveaxis(blockwise(_eigvals, c), 0, -1)


def _eigvals(c) -> np.ndarray:
    """The kernel of :func:`eigvals_packed`: ascending eigenvalues (n, K)."""
    # an infinite entry gives NaN eigenvalues, like a NaN entry
    if len(c) == 3:
        a, b, d = c
        with np.errstate(invalid="ignore"):
            mid, rad = 0.5 * (a + d), np.sqrt(0.25 * (a - d) ** 2 + b * b)
            return np.stack([mid - rad, mid + rad])
    scale = functools.reduce(np.maximum, (np.abs(x) for x in c))
    with np.errstate(invalid="ignore"):
        a00, a01, a02, a11, a12, a22 = (x / np.where(scale > 0.0, scale, 1.0) for x in c)
    q = (a00 + a11 + a22) / 3.0
    b00, b11, b22, b01, b02, b12 = a00 - q, a11 - q, a22 - q, a01, a02, a12
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
    mu = np.stack([mid - rad, mid + rad, beta])
    return np.sort(q * scale + (p * scale) * mu, axis=0)


def det_sym(M: np.ndarray) -> np.ndarray:
    """Determinant of symmetric 2x2 / 3x3 matrices."""
    return det_packed(components(M))


def inv_sym(M: np.ndarray) -> np.ndarray:
    """Adjugate inverse of symmetric 2x2 / 3x3 matrices."""
    return matrices(inv_packed(components(M)))


def sym_eigvals(M: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of symmetric 2x2 / 3x3 matrices, in closed form."""
    return eigvals_packed(components(np.asarray(M, dtype=float)))


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
