"""Convex integrands of the Hessian and their matrix-derivative tensors.

An :class:`EnergyModel` packages an integrand F on symmetric n x n matrices
together with its first derivative (a symmetric matrix) and second derivative
(a fourth-order tensor), restricted to an admissible operator-norm ball
``U = { M : ||M||_op < rho_U }``.

Derivative convention: off-diagonal entries M_ij and M_ji are one variable.
``eval_dF`` returns the symmetric matrix G with ``<G, sigma> = d/dt F(M + t
sigma)`` for every symmetric ``sigma`` (Hilbert-Schmidt pairing with the full
index sum), and the second derivative is the tensor T with ``T^{ij,kl}
sigma_ij sigma_kl = d^2/dt^2 F(M + t sigma)``.  All contractions in the
package use this single convention.  Inside the package T exists only
packed, ``P[a, b] = T^{ij,kl}`` with a = (k, l) and b = (i, j) packed slots,
an (m, m, ...) array (:func:`pack_tensor`): the ellipticity estimate
(:func:`packed_min_eig`), the linearized coefficients and the solver read
it.  The solver takes it pair by pair, one item per a <= b, which stands
for (b, a) too where P is major-symmetric (:func:`tensor_pairs`); the area
closed form yields its pairs one at a time.  ``eval_d2F`` is the full-tensor
adapter (:func:`unpack_tensor`), and a custom ``d2F`` callback's full tensor
is packed once.

The integrand kernels take and return packed components (see
:mod:`hessvar.symmat`), as the solver holds its Hessians; ``eval_*`` and
:func:`graph_metric` are full-matrix adapters passing them the views
``M[..., i, j]``.  ``custom`` callables always see full matrices.

Built-in kinds:

* ``quadratic``  F(M) = |M|^2 / 2, derivative M, constant identity form
  (:func:`packed_identity`).
* ``area``       F(M) = sqrt(det(I + M^2)), the volume integrand of the
  gradient graph ``x -> (x, Du)``.  With the metric g = I + M^2, B = g^-1
  and A = B M, the derivatives are G = F A and
  T^{ij,kl} = F [A_ij A_kl + (B_ik B_jl + B_il B_jk)/2 - (A_ik A_jl + A_il A_jk)/2]
  (derived at ``_area_d2F_pairs``); no eigen-decomposition is needed.
* ``custom``     user callables, with matrix finite differences (Richardson
  extrapolated central differences, step ``FD_STEP * (1 + |M|)``) filling in
  missing derivatives.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import symmat


class AdmissibilityError(ValueError):
    """A matrix argument lies outside the model's admissible set."""

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index


class ModelError(ValueError):
    """Invalid model construction or usage."""


# relative step of the finite-difference derivatives of a custom model
FD_STEP = 1e-5


# ---------------------------------------------------------------- tensors

def pack_tensor(T: np.ndarray) -> np.ndarray:
    """Component-major packed copy P (m, m, ...) of a (..., n, n, n, n) tensor.

    ``P[a, b] = T^{ij,kl}`` with (k, l) the packed output slot a and (i, j)
    the packed input slot b (upper triangles, see :mod:`hessvar.symmat`).
    With the minor symmetries these m^2 entries determine T; no major
    symmetry is assumed.
    """
    I, J = np.array(symmat.PACKED_PAIRS[T.shape[-1]]).T
    return np.moveaxis(T[..., I, J, I[:, None], J[:, None]], (-2, -1), (0, 1)).copy()


def tensor_pairs(P: np.ndarray):
    """Items ``(a, b, P[a, b], mirror)`` of a packed P (m, m, ...), slots a <= b
    in lexicographic order: ``mirror`` is None where P[b, a] has the bits of
    P[a, b], else P[b, a].  All-zero pairs are left out."""
    m = len(P)
    for a in range(m):
        for b in range(a, m):
            if not np.array_equal(P[a, b], P[b, a]):
                yield a, b, P[a, b], P[b, a]
            elif P[a, b].any():
                yield a, b, P[a, b], None


def unpack_tensor(P: np.ndarray) -> np.ndarray:
    """The (..., n, n, n, n) tensor with the minor symmetries of a packed P."""
    S = np.array(symmat.SLOTS[symmat.dim_from_packed(P.shape[0])])
    return np.moveaxis(P[S, S[:, :, None, None]], (0, 1, 2, 3), (-4, -3, -2, -1)).copy()


def packed_identity(n: int) -> np.ndarray:
    """Packed (m, m) form sigma -> |sigma|^2: diag(1 / dup), dup the duplication
    weights."""
    return np.diag(1.0 / symmat.duplication_weights(n))


def packed_min_eig(P: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of the form sigma -> <T sigma, sigma> over |sigma| = 1,
    for each packed P (m, m, ...).

    In the coordinates sqrt(dup_a) sigma_a, orthonormal for the Hilbert-Schmidt
    product, the form's matrix is the symmetric part of D^1/2 P D^1/2, D the
    duplication weights; :func:`packed_identity` gives exactly I.
    """
    w = symmat.duplication_weights(symmat.dim_from_packed(len(P)))
    s = np.sqrt(np.outer(w, w))
    G = np.moveaxis(s.reshape(s.shape + (1,) * (P.ndim - 2)) * P, (0, 1), (-2, -1))
    return np.linalg.eigvalsh(0.5 * (G + np.swapaxes(G, -1, -2)))[..., 0]


# ---------------------------------------------------------------- models

@dataclass(frozen=True)
class EnergyModel:
    """Integrand F with derivatives, admissible on an operator-norm ball."""

    kind: str
    n: int
    rho_U: float
    _F: object = None
    _dF: object = None
    _d2F: object = None

    def __post_init__(self):
        if self.n not in (2, 3):
            raise ModelError(f"dimension must be 2 or 3, got {self.n}")
        if not (self.rho_U > 0):
            raise ModelError(f"rho_U must be positive, got {self.rho_U}")


def quadratic_model(n: int) -> EnergyModel:
    """F(M) = |M|^2 / 2 on all of symmetric-matrix space."""
    return EnergyModel(kind="quadratic", n=n, rho_U=np.inf)


def area_model(n: int, rho_U: float = np.inf) -> EnergyModel:
    """Volume integrand sqrt(det(I + M^2)) of a gradient graph.

    Uniform convexity holds on ``||M||_op <= 1 - eta``; pass ``rho_U = 1 -
    eta`` when that matters (solves, ellipticity estimates).  Evaluation
    itself is defined for every symmetric M.
    """
    return EnergyModel(kind="area", n=n, rho_U=rho_U)


def custom_model(n: int, F, dF=None, d2F=None, rho_U: float = np.inf) -> EnergyModel:
    """Model from user callables; missing derivatives use finite differences.

    Callables receive batched ``(..., n, n)`` arrays.
    """
    return EnergyModel(kind="custom", n=n, rho_U=rho_U, _F=F, _dF=dF, _d2F=d2F)


def admissible(model: EnergyModel, M: np.ndarray) -> np.ndarray:
    """Boolean batch: operator norm strictly inside rho_U."""
    if not np.isfinite(model.rho_U):
        return np.ones(np.asarray(M).shape[:-2], dtype=bool)
    return symmat.op_norm(M) < model.rho_U


def require_admissible(model: EnergyModel, M: np.ndarray) -> None:
    ok = admissible(model, M)
    if not np.all(ok):
        bad = np.argwhere(~ok)
        idx = tuple(int(v) for v in bad[0]) if bad.size else None
        worst = float(symmat.op_norm(np.asarray(M)[~ok]).max())
        raise AdmissibilityError(
            f"matrix outside admissible set (op norm {worst:g} >= "
            f"rho_U {model.rho_U:g}) at batch index {idx}",
            index=idx,
        )


# ---- finite differences along the symmetric-variable convention

def _packed_directions(n: int) -> np.ndarray:
    """(m, n, n) perturbations E_ii and E_ij + E_ji."""
    return symmat.matrices(np.eye(symmat.packed_size(n)))


def _richardson_central(f, M: np.ndarray, D: np.ndarray, eps):
    """Richardson-extrapolated central difference of f along direction D.

    ``eps`` is scalar or batch-shaped (matching ``M.shape[:-2]``); the output
    shape follows f, with the step divided out along the batch axes.
    """
    eps = np.asarray(eps, dtype=float)

    def central(e):
        shift = e[..., None, None] if e.ndim else e
        S = f(M + shift * D) - f(M - shift * D)
        denom = 2.0 * e
        extra = S.ndim - denom.ndim
        return S / denom.reshape(denom.shape + (1,) * extra)

    return (4.0 * central(eps / 2.0) - central(eps)) / 3.0


def _fd_dF(F, M: np.ndarray, step: float) -> list:
    """Packed components of the derivative of F (scalar or matrix valued) at M."""
    n = M.shape[-1]
    eps = step * (1.0 + symmat.hs_norm(M))
    return [_richardson_central(F, M, D, eps) / w
            for D, w in zip(_packed_directions(n), symmat.duplication_weights(n))]


def _fd_d2F(dF, M: np.ndarray, step: float) -> np.ndarray:
    """Packed P (m, m, ...) from finite differences of dF, major-symmetrized."""
    D = np.array([symmat.components(col) for col in _fd_dF(dF, M, step)])
    return 0.5 * (D + np.swapaxes(D, 0, 1))


# ---- area closed forms, on packed components (see :mod:`hessvar.symmat`)

def _metric(c) -> np.ndarray:
    """g = I + M^2 as an (m, ...) array, M^2 from :func:`symmat.sym_product`."""
    n = symmat.dim_from_packed(len(c))
    g = symmat.sym_product(c, c)
    g[[symmat.SLOTS[n][i][i] for i in range(n)]] += 1.0
    return g


def graph_metric_packed(c):
    """``(g, B, F)``: the metric g = I + M^2, its inverse B (both (m, ...)) and
    F = sqrt(det g)."""
    g = _metric(c)
    det = symmat.det_packed(g)
    return g, symmat.inv_packed(g, det), np.sqrt(det)


def graph_metric(M: np.ndarray):
    """Full-matrix ``(g, B, F)`` of :func:`graph_metric_packed`."""
    g, B, F = graph_metric_packed(symmat.components(M))
    return symmat.matrices(g), symmat.matrices(B), F


def _area_F(c) -> np.ndarray:
    return np.sqrt(symmat.det_packed(_metric(c)))


def _area_BFA(c):
    """``(B, F, A)``: the inverse metric B, F = sqrt(det g) and A = M B."""
    _, B, F = graph_metric_packed(c)
    return B, F, symmat.sym_product(c, B)


def _area_dF(c) -> np.ndarray:
    _, F, A = _area_BFA(c)
    return F * A


def _area_d2F_pairs(c):
    """The packed pairs of the volume integrand's second derivative, in closed form.

    With B = g^-1 and A = B M (B commutes with M): dF[tau] = F tr(A tau), so
    G = F A; dB[tau] = -B (M tau + tau M) B and M B M = I - B give
    dG[tau] = F (tr(A tau) A + B tau B - A tau A), hence

        T^{ij,kl} = F [A_ij A_kl + (B_ik B_jl + B_il B_jk) / 2
                                 - (A_ik A_jl + A_il A_jk) / 2].

    Yields ``(a, b, T_ab, None)`` for every packed slot pair a <= b in
    lexicographic order, the items of :func:`tensor_pairs` for this
    major-symmetric tensor.  Each pair is evaluated on the packed B, F and
    A = M B (:func:`_area_BFA`, by :func:`symmat.blockwise`) into one of
    three buffers allocated once, which the next pair overwrites.
    """
    B, F, A = symmat.blockwise(_area_BFA, c)
    n = symmat.dim_from_packed(len(c))
    S, pairs = symmat.SLOTS[n], symmat.PACKED_PAIRS[n]
    T, acc, tmp = (np.empty(np.shape(F)) for _ in range(3))
    for a, (i, j) in enumerate(pairs):
        for b, (k, l) in enumerate(pairs[a:], a):
            np.multiply(B[S[i][k]], B[S[j][l]], out=acc)
            acc += np.multiply(B[S[i][l]], B[S[j][k]], out=tmp)
            acc -= np.multiply(A[S[i][k]], A[S[j][l]], out=tmp)
            acc -= np.multiply(A[S[i][l]], A[S[j][k]], out=tmp)
            acc *= 0.5
            acc += np.multiply(A[a], A[b], out=T)
            yield a, b, np.multiply(F, acc, out=T), None


def _area_d2F_packed(c) -> np.ndarray:
    """P (m, m, ...) of :func:`pack_tensor` from :func:`_area_d2F_pairs`;
    P[a, b] and P[b, a] get the same bits."""
    m = len(c)
    P = np.empty((m, m) + np.shape(c[0]))
    for a, b, T, _ in _area_d2F_pairs(c):
        P[a, b] = P[b, a] = T
    return P


# ---- integrand bodies and public evaluators
#
# The bodies take packed components and skip the admissibility check: the
# solver calls them on Hessians whose operator norms it has already bounded.
# The public evaluators check, then pass the body their argument's views.
# The area closed forms run by node blocks (:func:`symmat.blockwise`).

def _F_body(model: EnergyModel, c) -> np.ndarray:
    if model.kind == "quadratic":
        w = symmat.duplication_weights(model.n)
        return 0.5 * sum(wa * x * x for wa, x in zip(w, c))
    if model.kind == "area":
        return symmat.blockwise(_area_F, c)
    if model.kind == "custom":
        return np.asarray(model._F(symmat.matrices(c)), dtype=float)
    raise ModelError(f"unknown model kind {model.kind!r}")


def _dF_body(model: EnergyModel, c):
    if model.kind == "quadratic":
        return c
    if model.kind == "area":
        return symmat.blockwise(_area_dF, c)
    M = symmat.matrices(c)
    if model._dF is not None:
        return symmat.components(np.asarray(model._dF(M), dtype=float))
    return _fd_dF(model._F, M, FD_STEP)


def _d2F_packed_body(model: EnergyModel, c) -> np.ndarray:
    """The second derivative packed as by :func:`pack_tensor`, shape (m, m, ...).

    The quadratic integrand gets a read-only broadcast view of
    :func:`packed_identity`; a custom ``d2F`` callback's full tensor is packed
    once, and without one the derivative is a finite difference of dF.
    """
    if model.kind == "quadratic":
        P = packed_identity(model.n)
        shape = np.shape(c[0])
        return np.broadcast_to(P.reshape(P.shape + (1,) * len(shape)), P.shape + shape)
    if model.kind == "area":
        return _area_d2F_packed(c)
    M = symmat.matrices(c)
    if model._d2F is not None:
        return pack_tensor(np.asarray(model._d2F(M), dtype=float))
    dF = model._dF if model._dF is not None else (
        lambda X: symmat.matrices(_fd_dF(model._F, X, FD_STEP)))
    return _fd_d2F(dF, M, FD_STEP)


def _d2F_pairs(model: EnergyModel, c):
    """The second derivative as :func:`tensor_pairs` items; the area ones are
    evaluated one at a time, with no (m, m, ...) array."""
    if model.kind == "area":
        return _area_d2F_pairs(c)
    return tensor_pairs(_d2F_packed_body(model, c))


def eval_F(model: EnergyModel, M: np.ndarray) -> np.ndarray:
    """Integrand value; raises AdmissibilityError off the admissible set."""
    M = np.asarray(M, dtype=float)
    require_admissible(model, M)
    return _F_body(model, symmat.components(M))


def eval_dF(model: EnergyModel, M: np.ndarray) -> np.ndarray:
    """First derivative: symmetric matrix G with <G, sigma> = D_sigma F."""
    M = np.asarray(M, dtype=float)
    require_admissible(model, M)
    return symmat.matrices(_dF_body(model, symmat.components(M)))


def eval_d2F(model: EnergyModel, M: np.ndarray) -> np.ndarray:
    """Second derivative tensor (..., n, n, n, n) with the minor symmetries:
    the full-tensor adapter, unpacking the packed body."""
    M = np.asarray(M, dtype=float)
    require_admissible(model, M)
    return unpack_tensor(_d2F_packed_body(model, symmat.components(M)))


# ---------------------------------------------------------------- ellipticity

@dataclass(frozen=True)
class EllipticityEstimate:
    """Sampled lower ellipticity bound (not a certificate)."""

    value: float
    convex: bool
    sample_count: int
    seed: int
    attained_at: tuple  # packed entries of the minimizing sample

    @property
    def verdict(self) -> str:
        return "uniformly convex on sampled set" if self.convex else (
            "not uniformly convex on sampled U"
        )


def ellipticity_constant(
    model: EnergyModel, sample_count: int, seed: int = 0
) -> EllipticityEstimate:
    """Minimum eigenvalue of the second-derivative form over sampled U.

    Samples are uniform in the operator-norm ball (eigenvalues uniform,
    frames Haar rotated); the zero matrix is always included.  Deterministic
    for a fixed seed.  A nonpositive estimate is reported, not raised.
    """
    if sample_count < 1:
        raise ModelError("sample_count must be >= 1")
    rng = np.random.default_rng(seed)
    n = model.n
    radius = model.rho_U if np.isfinite(model.rho_U) else 1.0
    xi = symmat.random_sym_opnorm_ball(rng, sample_count, n, radius * (1.0 - 1e-12))
    xi = np.concatenate([np.zeros((1, n, n)), xi], axis=0)
    eigs = packed_min_eig(_d2F_packed_body(model, symmat.components(xi)))
    k = int(np.argmin(eigs))
    value = float(eigs[k])
    return EllipticityEstimate(
        value=value,
        convex=value > 0.0,
        sample_count=sample_count,
        seed=seed,
        attained_at=tuple(float(v) for v in symmat.pack(xi[k])),
    )


# ---------------------------------------------------------------- linearization

def _gauss_legendre_01(quad_nodes: int):
    x, w = np.polynomial.legendre.leggauss(quad_nodes)
    return 0.5 * (x + 1.0), 0.5 * w


def _require_segment(model_rho: float, M: np.ndarray, M_shift: np.ndarray) -> None:
    if not np.isfinite(model_rho):
        return
    for name, X in (("start", M), ("end", M_shift)):
        if np.any(symmat.op_norm(X) >= model_rho):
            raise AdmissibilityError(
                f"segment {name} point leaves the admissible ball "
                f"(rho_U = {model_rho:g})"
            )


def linearized_coefficients(
    model: EnergyModel, M: np.ndarray, M_shift: np.ndarray, quad_nodes: int = 8
) -> np.ndarray:
    """Average of the second derivative along the segment [M, M_shift], packed.

    Gauss-Legendre quadrature in the segment parameter; this is the leading
    coefficient of the equation satisfied by a difference quotient of a
    critical point, with M and M_shift the (..., n, n) Hessians at the two
    sample points.  Returns P (m, m, ...) of :func:`pack_tensor`, symmetrized
    as (P + P^T) / 2 over the slot axes.  The operator norm is convex, so the
    segment lies in U when both ends do.
    """
    M = np.asarray(M, dtype=float)
    M_shift = np.asarray(M_shift, dtype=float)
    _require_segment(model.rho_U, M, M_shift)
    t, w = _gauss_legendre_01(quad_nodes)
    out = None
    for tq, wq in zip(t, w):
        term = wq * _d2F_packed_body(model, symmat.components(M + tq * (M_shift - M)))
        out = term if out is None else out + term
    return 0.5 * (out + np.swapaxes(out, 0, 1))
