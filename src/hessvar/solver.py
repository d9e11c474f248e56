"""Discrete energy assembly, weak residuals, and clamped convex minimization.

The discrete energy of a potential u on a grid is

    E(u) = h^n * sum_x F(D^2_h u(x))

over every node x where the Hessian stencil is defined (one ring beyond the
interior); the unknowns are the interior node values.  A clamped solve takes
one grid: its two outer rings (:attr:`grids.ScalarGrid.prescribed`) are the
data, fixing u and Du on the edge, and stay as given; its interior is the
start.  The gradient of E with respect to the interior values is the
double-divergence stencil application of F^{ij}(D^2 u) — for the quadratic
integrand it is exactly the 13-point (2D) discrete bi-Laplacian at every
interior node.

Minimization is damped inexact Newton with Armijo backtracking; the Newton
systems are symmetric positive definite by uniform convexity and are solved,
to the Eisenstat-Walker forcing tolerance of each step, with conjugate
gradients preconditioned by the quadratic (bi-Laplacian) Newton operator on
the box of the unknowns (:func:`clamped_box_preconditioner`), inverted in a
tensor basis applied as dense products, one per box axis: in 2D exactly, by
its DST-I symbol plus a capacitance correction on the box's edge layer; in
3D approximately, by the diagonal of the operator in the eigenbasis of its
clamped one-axis factors.  Steps are shortened until every node Hessian
stays inside the model's admissible set (margin 1e-6).  Each iterate is
evaluated once (:class:`_Iterate`), and so is the argument of the public
energy, gradient and weak residual: one component-major copy of its Hessian
field, which the packed integrand kernels read (custom callables get full
matrices), serves the admissibility check of :mod:`hessvar.models`, the
energy, the gradient, the weak residual and the Newton operator, and the
area integrand's closed form on it serves both the gradient and the Newton
operator.  The Newton operator is matrix-free,
``h^n 1_U S^T (P : S v)`` on the one Hessian stencil S, with the packed,
major-symmetric second derivative P of the integrand
(:func:`models.pack_tensor`) taken pair by pair (:func:`models.tensor_pairs`)
and folded into one coefficient array per slot pair a <= b, which serves
(b, a) too.  S and S^T run one kernel, :func:`grids.add_stencil`, over the
flat unit-sign stencil of :func:`grids.hessian_stencil`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import models, symmat
from .grids import (
    GridError,
    ScalarGrid,
    TestFunctionSet,
    add_stencil,
    bounding_box,
    hessian_adjoint,
    hessian_field,
    hessian_stencil,
)
from .models import EnergyModel

ADMISSIBILITY_MARGIN = 1e-6

# Eisenstat-Walker choice 2 forcing of the Newton solves (see _forcing)
FORCING_START = 1e-3
FORCING_GAMMA = 0.9
FORCING_MAX = 0.9
FORCING_SAFEGUARD = 0.1


class SolverError(RuntimeError):
    """Linear-solver or line-search breakdown."""


@dataclass
class SolveReport:
    """Convergence record of one clamped minimization."""

    iterations: int = 0
    grad_norm: float = np.inf
    energy: float = np.nan
    steps: list = field(default_factory=list)
    energies: list = field(default_factory=list)
    cg_iterations: list = field(default_factory=list)
    cg_residuals: list = field(default_factory=list)
    # per step: the relative residual its CG solve was asked for
    cg_forcing: list = field(default_factory=list)
    # per accepted step: max ||D^2 u||_op / rho_U of the new iterate
    # (0.0 when rho_U is infinite); admissible iterates stay below 1
    admissibility_margins: list = field(default_factory=list)
    converged: bool = False
    # the loop stopped because a step accepted on the Armijo floor (an energy
    # change at round-off) did not halve ||g||_inf (see minimize_clamped)
    stagnated: bool = False
    grad_tol: float = np.nan


# -------------------------------------------------------------- energy

def assemble_energy(u: ScalarGrid, model: EnergyModel) -> float:
    """h^n-weighted sum of F(D^2 u) over the Hessian-valid region."""
    return _Iterate(u, model).require_admissible().energy()


def energy_gradient(u: ScalarGrid, model: EnergyModel) -> np.ndarray:
    """Exact gradient of the discrete energy in the interior node values.

    Returns a full-extents array, zero off the interior.  Entry y equals the
    weak residual against the nodal test function at y.
    """
    return _Iterate(u, model).require_admissible().gradient()


class NewtonOperator:
    """Matrix-free second-derivative (stiffness) operator of one Newton step.

        A v = h^n 1_U S^T [T : S v]

    on the unknown nodes U, and zero elsewhere.  S is the packed Hessian
    stencil of :func:`grids.hessian_stencil` and T the per-node tensor of
    second derivatives of the integrand on the quadrature region (zero off
    it), major-symmetric, given as the packed pairs of
    :func:`models.tensor_pairs`: items ``(a, b, T_ab)`` with a <= b in
    lexicographic order, where ``T_ab = T^{ij,kl}`` over the K region nodes
    pairs input slot b = (i, j) of S v with output slot a = (k, l), as in
    :func:`models.pack_tensor`, and stands for T_ba too.  Each slot keeps
    its flat unit-sign stencil; h^n dup[a] dup[b] and both slots' stencil
    scales are folded into ``terms``, one ``(a, b, c)`` per pair, applied
    as ``W[a] += c Sv[b]`` and, off the diagonal, ``W[b] += c Sv[a]``.  In
    that order every row of W adds its terms in ascending input slot.  The
    scales differ by powers of two, so the one array has the bits of both
    one-sided ones.  The arrays span the unknowns' flat index range widened
    by the stencil reach; the unknowns must lie off the two outer node
    rings.
    """

    def __init__(self, pairs, region: np.ndarray, unknowns: np.ndarray, h: float):
        n = region.ndim
        scales, self.stencils = hessian_stencil(region.shape, h)
        reach = max(abs(d) for st in self.stencils for d, _ in st)
        rows = np.flatnonzero(unknowns)
        self.unknowns = unknowns
        self.start, self.stop = (int(rows[0]), int(rows[-1]) + 1) if rows.size else (0, 0)
        self.lo, self.hi = (self.start - reach, self.stop + reach) if rows.size else (0, 0)
        nodes = np.flatnonzero(region)
        k0, k1 = np.searchsorted(nodes, (self.lo, self.hi))
        at = nodes[k0:k1] - self.lo
        scale = symmat.duplication_weights(n) * scales
        self.terms = []
        for a, b, T in pairs:
            c = np.zeros(self.hi - self.lo)
            c[at] = h**n * scale[a] * scale[b] * T[k0:k1]
            self.terms.append((a, b, c))

    @cached_property
    def _work(self):
        """``(Sv, W, tmp)`` of :meth:`matvec`, made at its first call and reused
        by every later one; the operator as built holds only its terms."""
        span = self.hi - self.lo
        return (np.empty((len(self.stencils), span)),
                np.empty((len(self.stencils), span)), np.empty(span))

    def matvec(self, v: np.ndarray) -> np.ndarray:
        vflat = np.ravel(v)
        Sv, W, tmp = self._work
        Sv.fill(0.0)
        for row, st in zip(Sv, self.stencils):
            add_stencil(row, vflat, self.lo, st)
        W.fill(0.0)
        for a, b, c in self.terms:
            W[a] += np.multiply(c, Sv[b], out=tmp)
            if a != b:
                W[b] += np.multiply(c, Sv[a], out=tmp)
        out = np.zeros(vflat.size)
        acc = out[self.start:self.stop]
        for row, st in zip(W, self.stencils):
            add_stencil(acc, row, self.start - self.lo, st)
        acc *= np.ravel(self.unknowns)[self.start:self.stop]
        return out.reshape(v.shape)

    def jacobi_diagonal(self) -> np.ndarray:
        """Diagonal of the operator on the unknowns, 1 elsewhere.

        Nodes 3 apart on some axis do not interact, so one matvec per residue
        class of the node index mod 3 gives every diagonal entry of the class.
        """
        diag = np.empty(self.unknowns.shape)
        for residue in np.ndindex((3,) * self.unknowns.ndim):
            cls = tuple(slice(r, None, 3) for r in residue)
            e = np.zeros(self.unknowns.shape)
            e[cls] = 1.0
            diag[cls] = self.matvec(e)[cls]
        return np.where(self.unknowns, diag, 1.0)


def _sine_matrix(m: int) -> np.ndarray:
    """DST-I matrix S[j, k] = sin(pi j k / (m + 1)), j, k = 1..m; S S = (m + 1)/2 I.

    The product j k is reduced modulo the period 2 (m + 1) first, so every
    sine argument lies in [0, 2 pi) and keeps full relative accuracy.
    """
    k = np.arange(1, m + 1)
    return np.sin(np.pi * (np.outer(k, k) % (2 * (m + 1))) / (m + 1))


def _axis_products(z: np.ndarray, mats) -> np.ndarray:
    """``M_a^T`` applied along every axis a of z, one matrix product per axis.

    Each product contracts the leading axis and appends the transformed one,
    so after one product per axis the axes are back in their order.  With the
    symmetric sine matrices it is the unnormalized DST-I.
    """
    for M in mats:
        z = np.tensordot(z, M, axes=(0, 0))
    return z


def _clamped_axis_basis(m: int):
    """``(Q, lam, y)`` of the one-axis factors of the quadratic box operator.

    On an axis of m box nodes, D is the second difference and C the centred
    difference from the box values to the m + 2 quadrature nodes (the box and
    one node past each end), zero outside the box.  ``X = D^T D`` is the
    Toeplitz (1, -4, 6, -4, 1) and ``Y = C^T C`` the Toeplitz (-1, 0, 2, 0,
    -1) / 4.  Returns the orthonormal eigenvectors Q (columns) and the
    eigenvalues lam of X, and ``y = diag(Q^T Y Q)``.
    """
    D = np.eye(m + 2, m) - 2.0 * np.eye(m + 2, m, -1) + np.eye(m + 2, m, -2)
    C = 0.5 * (np.eye(m + 2, m) - np.eye(m + 2, m, -2))
    lam, Q = np.linalg.eigh(D.T @ D)
    return Q, lam, np.einsum("ji,jk,ki->i", Q, C.T @ C, Q)


def clamped_box_preconditioner(unknowns: np.ndarray, h: float):
    """Preconditioner ``P r = 1_U A_B^-1 (1_U r)``, ``A_B`` the quadratic Newton
    operator on the bounding box B of the unknown nodes U; exact in 2D.

    ``A_B`` is the Newton operator of F = |M|^2 / 2 (the 13-point
    bi-Laplacian in 2D) with B's nodes as the unknowns and every node its
    stencil reaches in the sum: on a clamped grid, the operator itself.  On
    an axis of m box nodes let X and Y be the one-axis factors of
    :func:`_clamped_axis_basis`; then

        A_B = h^(n-4) [sum_a X_a + 2 sum_{a<b} Y_a Y_b],

    X_a and Y_a acting along axis a.

    **2D.**  Split ``A_B = P' + R``:

    - ``P'`` is ``A_B``'s stencil applied to the odd reflection of the box
      values.  The DST-I diagonalizes it with the operator's own symbol
      ``h^n (sum_a mu_a^2 + 2 sum_{a<b} kappa_a kappa_b)``, where ``mu = (2 -
      2 cos theta) / h^2``, ``kappa = sin^2 theta / h^2`` and ``theta = k pi
      / (m + 1)`` on an axis of m box nodes; ``kappa_a kappa_b`` is the
      symbol of the squared centred mixed difference.  ``P'^-1`` is two
      DSTs per axis around a per-mode factor.
    - ``R`` lives on the layer of box nodes next to the box's edge, where the
      reflected ghost values differ from the zero ones of ``A_B``.  On an
      axis let E be the sum of the projections onto its first and its last
      node (one node twice when m = 1) and K the operator of symbol ``sin^2
      theta``; then ``R = h^(n-4) (E_1 D_2 + D_1 E_2 + E_1 E_2 / 8)`` with
      ``D = 1 - K / 2``, diagonal in the sines of the layer's sides.

    The Woodbury identity makes P exact on B: the capacitance-matrix method
    (Buzbee, Dorr, George and Golub, SIAM J. Numer. Anal. 8, 1971).  The
    box's two reflection symmetries split the capacitance system by the
    parity of the sine index on each axis into four dense SPD systems, and
    eliminating the diagonal block of each leaves matrices of order about
    m_1 / 2 (:func:`_layer_correction`).  An application adds O(m^2) work
    between the two DSTs.  Each DST is a product with the axis's sine
    matrix, built once here.

    **3D.**  The layer has about 6 m^2 nodes, too many for dense systems.
    Instead P is the fast-diagonalization inverse (Lynch, Rice and Thomas,
    Numer. Math. 6, 1964) in the tensor eigenbasis ``Phi = Q_1 Q_2 Q_3`` of
    the clamped factors X, not of their reflection: ``P = 1_U Phi
    diag(Phi^T A_B Phi)^-1 Phi^T 1_U``, whose per-mode factor is ``h^(4-n)
    / (sum_a lam_a + 2 sum_{a<b} y_a y_b)``.  It is exact on ``sum_a X_a``;
    only the mixed terms off the diagonal of ``Phi^T A_B Phi`` are left
    out.  ``Phi^T`` and ``Phi`` are one dense product per axis with the
    axis's Q, built once here by ``eigh``.

    ``P`` is symmetric positive definite on U for every unknown set.
    Returns a callable on full-extents node arrays; the result is zero off U.
    """
    n = unknowns.ndim
    if not unknowns.any():
        return np.zeros_like
    box = bounding_box(unknowns)
    mask = unknowns[box]
    if n == 2:
        # one matrix per distinct axis length: a square box shares it
        sine_of = {m: _sine_matrix(m) for m in set(mask.shape)}
        forward = backward = [sine_of[m] for m in mask.shape]
        theta = [np.pi * np.arange(1, m + 1) / (m + 1) for m in mask.shape]
        shaped = [t.reshape((-1,) + (1,) * (n - 1 - a)) for a, t in enumerate(theta)]
        kappa = [np.sin(t) ** 2 for t in shaped]
        # 2 - 2 cos t as 4 sin^2(t / 2): no cancellation at the low modes
        symbol = sum((4.0 * np.sin(0.5 * t) ** 2) ** 2 for t in shaped) + 2.0 * sum(
            kappa[a] * kappa[b] for a in range(n) for b in range(a + 1, n))
        # w: the h^(4-n) of the symbol's h^(n-4) times the (2 / (m + 1)) per
        # axis that makes the two transforms orthonormal
        w = h ** (4 - n) * float(np.prod([2.0 / (m + 1) for m in mask.shape]))
        factor = w / symbol
        correct = _layer_correction(factor, theta, w)
    else:
        basis_of = {m: _clamped_axis_basis(m) for m in set(mask.shape)}
        forward, lam, y = zip(*(basis_of[m] for m in mask.shape))
        backward = [Q.T for Q in forward]
        # the per-axis values, broadcast along their axis of the box
        lam, y = ([v.reshape((-1,) + (1,) * (n - 1 - a)) for a, v in enumerate(vs)]
                  for vs in (lam, y))
        factor = h ** (4 - n) / (sum(lam) + 2.0 * sum(
            y[a] * y[b] for a in range(n) for b in range(a + 1, n)))
        correct = None

    def apply(r: np.ndarray) -> np.ndarray:
        z = _axis_products(np.where(mask, r[box], 0.0), forward)
        z *= factor
        if correct is not None:
            correct(z)
        z = _axis_products(z, backward)
        out = np.zeros_like(r)
        out[box] = np.where(mask, z, 0.0)
        return out

    return apply


def _layer_correction(factor: np.ndarray, theta, w: float):
    """The 2D Woodbury term of :func:`clamped_box_preconditioner`.

    ``factor`` is the per-mode factor of ``P'^-1`` between unnormalized DSTs,
    ``theta`` the sine angles per axis and ``w`` the factor times the
    symbol.  Returns ``correct(z)``, which turns ``z = factor * DST(r)`` in
    place into the sine coefficients of ``A_B^-1 r`` by subtracting ``factor
    * V (w C^-1 + V^T factor V)^-1 V^T z``.

    The columns of V are the sine coefficients of the layer functions in ``R
    = h^(n-4) V C V^T``, combined into even and odd ones under each axis's
    reflection: those along the two sides across axis 1 (C = D_2), along the
    two across axis 2 (C = D_1) and the corners (C = 1/8).  Each parity class is
    one system; its first block is diagonal and is eliminated here, and its
    Schur complement is inverted.  ``V^T z`` and the correction are rank-2
    products with the sine rows of the box's first node.  The correction is
    built in one work array made here: a new full-size array per
    application left the bench's 129^2 bilap pipeline 0.7 MB more peak
    RSS, as freed arrays under the mmap threshold stay on the malloc heap.
    """
    # row q of edges[a]: sqrt(2) times the orthonormal sines of the axis's
    # first node at the sine indices of parity q (k odd for q = 0), the
    # even (q = 0) or odd functions under the axis's reflection
    edges = []
    for t in theta:
        row = 2.0 * np.sin(t) / np.sqrt(t.size + 1)
        edge = np.zeros((2, t.size))
        edge[0, 0::2], edge[1, 1::2] = row[0::2], row[1::2]
        edges.append(edge)
    inv_side = [w / (1.0 - 0.5 * np.sin(t) ** 2) for t in theta]
    systems = []
    for q1, q2 in np.ndindex(2, 2):
        s1, s2 = slice(q1, None, 2), slice(q2, None, 2)
        a1, a2 = edges[0][q1, s1], edges[1][q2, s2]
        if not (a1.size and a2.size):
            continue
        F = factor[s1, s2]
        g1, g2 = a1**2 @ F, F @ a2**2
        # unknowns: the sine coefficients of the two sides across axis 1
        # (a diagonal block, eliminated), then of the two across axis 2 and
        # the corners; X couples the first group to the others
        d = 1.0 / (inv_side[1][s2] + g1)
        X = np.column_stack(((a1[:, None] * F * a2).T, a2 * g1))
        Y = np.diag(np.append(inv_side[0][s1] + g2, 8.0 * w + a1**2 @ g2))
        Y[-1, :-1] = Y[:-1, -1] = a1 * g2
        systems.append((q1, q2, s1, s2, a1, a2, F, g1, d,
                        np.linalg.inv(Y - X.T @ (d[:, None] * X))))
    e1, e2 = edges
    work = np.empty(factor.shape)

    def correct(z: np.ndarray) -> None:
        zr, zc = e1 @ z, z @ e2.T
        yr, yc = np.zeros_like(zr), np.zeros_like(zc)
        for q1, q2, s1, s2, a1, a2, F, g1, d, schur_inv in systems:
            # the products with X, read from the strided view F of factor
            t = d * zr[q1, s2]
            at = a2 * t
            y = schur_inv @ np.append(zc[s1, q2] - a1 * (F @ at),
                                      zr[q1, s2] @ a2 - g1 @ at)
            yr[q1, s2] = t + a2 * (y[-1] - d * ((a1 * y[:-1]) @ F + g1 * y[-1]))
            yc[s1, q2] = y[:-1]
        np.matmul(np.hstack((e1.T, yc)), np.vstack((yr, e2)), out=work)
        np.multiply(work, factor, out=work)
        z -= work

    return correct


def conjugate_gradient(matvec, b: np.ndarray, x0: np.ndarray, rtol: float,
                       maxiter: int, precond, atol: float = 0.0):
    """Preconditioned CG for SPD operators on node arrays.

    ``precond`` maps a residual to the preconditioned residual and must be
    symmetric positive definite on the subspace CG works in.  Stops when
    ``||r||_2 <= max(rtol * ||b||_2, atol)`` (the unpreconditioned
    residual).  Returns (x, iterations, achieved relative
    residual); a start that meets the target returns after 0 iterations.
    Raises SolverError on an indefinite direction or stagnation past
    ``maxiter``.
    """
    x = np.array(x0)
    r = b - matvec(x)
    bnorm = float(np.sqrt(np.vdot(b, b)))
    if bnorm == 0.0:
        return np.zeros_like(b), 0, 0.0
    target = max(rtol * bnorm, atol)
    res = float(np.sqrt(np.vdot(r, r)))
    if res <= target:
        return x, 0, res / bnorm
    z = precond(r)
    p = np.array(z)
    rz = float(np.vdot(r, z))
    tmp = np.empty_like(x)    # the one work vector of the in-place updates
    for it in range(1, maxiter + 1):
        Ap = matvec(p)
        pAp = float(np.vdot(p, Ap))
        if pAp <= 0.0:
            raise SolverError(
                f"conjugate gradients met a non-positive curvature direction "
                f"(p^T A p = {pAp:g}); the operator is not positive definite"
            )
        alpha = rz / pAp
        x += np.multiply(alpha, p, out=tmp)
        r -= np.multiply(alpha, Ap, out=tmp)
        res = float(np.sqrt(np.vdot(r, r)))
        if res <= target:
            return x, it, res / bnorm
        z = precond(r)
        rz_new = float(np.vdot(r, z))
        p *= rz_new / rz
        p += z
        rz = rz_new
    raise SolverError(
        f"conjugate gradients stagnated: {maxiter} iterations, relative "
        f"residual {res / bnorm:g} > {rtol:g}"
    )


class _Iterate:
    """One iterate, evaluated once: the one evaluation path of the energy family.

    Holds ``u``, the quadrature region (the Hessian-valid nodes) and ``c``,
    one contiguous component-major (m, K) copy of D^2 u on the region.  The
    solve and the public :func:`assemble_energy`, :func:`energy_gradient`
    and :func:`weak_residual` call :meth:`require_admissible` first, so the
    energy, the gradient, the weak residual and the Newton operator run the
    unchecked integrand bodies on c.  For the area integrand the gradient
    (dF = F A) and the Newton operator read one evaluation of its closed
    form ``(B, F, A)``, made at the first of the two calls and dropped once
    the operator is built, before its CG solve.  The energy and the gradient
    may overflow without a warning; the solve's finite check reports them.
    """

    def __init__(self, u: ScalarGrid, model: EnergyModel):
        H = hessian_field(u)
        self.u, self.model, self.region = u, model, H.valid
        self.c = np.stack([x[H.valid] for x in np.moveaxis(H.values, -1, 0)])

    def require_admissible(self) -> "_Iterate":
        """Self, after :func:`models.require_admissible` over the region."""
        models.require_admissible(self.model, self.c, self.region)
        return self

    def energy(self) -> float:
        with np.errstate(over="ignore", invalid="ignore"):
            return float(self.u.h**self.u.dim * models._F_body(self.model, self.c).sum())

    @cached_property
    def _area(self):
        """``(B, F, A)`` of the area closed form on c (:func:`models._area_BFA`),
        read by both the gradient and the Newton operator."""
        return symmat.blockwise(models._area_BFA, self.c)

    def gradient(self) -> np.ndarray:
        u = self.u
        with np.errstate(over="ignore", invalid="ignore"):
            if self.model.kind == "area":
                _, F, A = self._area
                dF = F * A
            else:
                dF = models._dF_body(self.model, self.c)
            grad = u.h**u.dim * hessian_adjoint(dF, self.region, u.h)
        grad[~(u.interior & u.valid)] = 0.0
        return grad

    def newton_operator(self) -> NewtonOperator:
        u = self.u
        pairs = (models._area_d2F_pairs(*self._area) if self.model.kind == "area"
                 else models._d2F_pairs(self.model, self.c))
        op = NewtonOperator(pairs, self.region, u.interior & u.valid, u.h)
        # the build is the last reader of B, F and A: free them before CG
        self.__dict__.pop("_area", None)
        return op


def _newton_direction(it: _Iterate, grad: np.ndarray, precond, cg_rtol: float,
                      cg_maxiter: int, atol: float):
    """CG solve of the Newton system at ``it``; returns conjugate_gradient's triple.

    The operator's coefficient arrays live only for this solve, so they are
    freed before the line search and before the next step's operator is built.
    """
    op = it.newton_operator()
    return conjugate_gradient(op.matvec, -grad, np.zeros_like(grad), cg_rtol,
                              cg_maxiter, precond=precond, atol=atol)


def _default_cg_maxiter(unknowns: np.ndarray) -> int:
    return max(2000, 12 * int(np.sqrt(unknowns.sum())) ** 2)


def _forcing(eta: float | None, gnorm: float, gnorm_prev: float | None) -> float:
    """Eisenstat-Walker choice 2 forcing term of a Newton step (SIAM J. Sci.
    Comput. 17, 1996), before the ``cg_rtol`` floor.

    ``eta`` is the previous step's term (None at the first step), ``gnorm``
    and ``gnorm_prev`` the 2-norms of the gradient now and at the previous
    step.  The Newton equation of a nonlinear integrand is its minimizer
    equation only up to a linearization error of order ||g||^2, so the term
    follows the gradient's decrease; the safeguard keeps it from dropping
    faster than the previous term while that is large.
    """
    if eta is None:
        return FORCING_START
    eta_k = min(FORCING_MAX, FORCING_GAMMA * (gnorm / gnorm_prev) ** 2)
    if FORCING_GAMMA * eta**2 > FORCING_SAFEGUARD:
        eta_k = max(eta_k, FORCING_GAMMA * eta**2)
    return eta_k


def minimize_clamped(model: EnergyModel, u0: ScalarGrid, grad_tol: float | None = None,
                     max_iter: int = 50, cg_rtol: float = 1e-12):
    """Damped Newton minimization of the clamped discrete energy.

    Returns ``(solution, SolveReport)``.  Non-convergence inside ``max_iter``
    is flagged on the report, not raised, and so is stagnation: a step
    accepted on the Armijo floor (an energy change at round-off) that fails
    to halve ``||g||_inf``, or to cut it below twice its CG residual when
    that is looser, ends the loop with ``stagnated`` set.  Line-search
    and admissibility breakdowns, and an iterate whose energy or gradient is
    not finite, raise :class:`SolverError` / :class:`models.AdmissibilityError`.

    Every accepted step passes the Armijo test, and so lowers the energy
    strictly, unless its predicted change ``t g.delta`` is below the round-off
    floor ``64 eps (1 + |E|)``.  Such a floor step is taken for the gradient
    alone: its energy change is rounding, and it is accepted only if it
    raises E by no more than the floor.  The loop ends after it unless it
    halved ``||g||_inf``, so in a converged solve it is usually the last step.

    Each Newton system is solved by CG to ``max(eta_k, cg_rtol)`` relative,
    or to ``0.4 grad_tol`` absolute if that is looser: ``eta_k`` is the
    Eisenstat-Walker forcing term (:func:`_forcing`), and ``cg_rtol`` its
    floor.  The quadratic model's Newton equation is its exact minimizer
    equation, with no linearization error to trade against, so its solves
    run to ``cg_rtol``.  The report records the tolerance of each step in
    ``cg_forcing``.

    The prescribed rings of ``u0`` are the clamped data and its interior the
    start, which must be admissible.  Steps move only the unknowns, so the
    solution keeps the rings of ``u0`` bit for bit.
    """
    it = _Iterate(u0, model).require_admissible()
    unknowns = it.u.interior & it.u.valid
    cg_maxiter = _default_cg_maxiter(unknowns)
    precond = clamped_box_preconditioner(unknowns, it.u.h)

    report = SolveReport()
    energy = it.energy()
    report.energies.append(energy)
    forced = model.kind != "quadratic"
    eta = gnorm = None
    on_floor = False
    while True:
        grad = it.gradient()
        grad_norm = float(np.abs(grad).max())
        if not (np.isfinite(energy) and np.isfinite(grad_norm)):
            raise SolverError(
                f"iterate {report.iterations} has energy {energy:g} and gradient "
                f"max-norm {grad_norm:g}; both must be finite")
        # a Newton step cuts the gradient to about its CG residual, so a step
        # on the Armijo floor that leaves it above half, and above twice that
        # residual, has met the round-off floor of the gradient
        stalled = on_floor and grad_norm > max(
            0.5, 2.0 * report.cg_residuals[-1]) * report.grad_norm
        report.grad_norm = grad_norm
        report.grad_tol = (grad_tol if grad_tol is not None
                           else 1e-10 * (1.0 + abs(energy)))
        if report.grad_norm <= report.grad_tol:
            report.converged = True
            break
        if stalled:
            report.stagnated = True
            break
        if report.iterations >= max_iter:
            break
        gnorm_prev, gnorm = gnorm, float(np.sqrt(np.vdot(grad, grad)))
        eta = (max(_forcing(eta, gnorm, gnorm_prev), cg_rtol) if forced
               else cg_rtol)
        # the post-step gradient equals the CG residual for linear problems,
        # so solving past the Newton tolerance buys nothing
        delta, cg_iters, cg_residual = _newton_direction(
            it, grad, precond, eta, cg_maxiter, atol=0.4 * report.grad_tol)
        report.cg_forcing.append(eta)
        report.cg_iterations.append(cg_iters)
        report.cg_residuals.append(cg_residual)
        slope = float(np.vdot(grad, delta))
        if slope >= 0.0:
            raise SolverError("Newton direction is not a descent direction")
        # below this, energy differences drown in round-off and the Armijo
        # comparison is meaningless; convexity makes the Newton step safe
        armijo_floor = 64.0 * np.finfo(float).eps * (1.0 + abs(energy))
        u = it.u
        t = 1.0
        while t >= 1e-12:
            trial = _Iterate(
                u.with_values(np.where(unknowns, u.values + t * delta, u.values)),
                model)
            peak = models.admissibility_peak(model, trial.c)
            if not peak < model.rho_U - ADMISSIBILITY_MARGIN:
                t *= 0.5
                continue
            trial_energy = trial.energy()
            on_floor = -t * slope <= armijo_floor
            if (trial_energy <= energy + 1e-4 * t * slope
                    or (on_floor and trial_energy <= energy + armijo_floor)):
                break
            t *= 0.5
        else:
            raise SolverError("line search stalled: no admissible decreasing step found")
        it = trial
        energy = trial_energy
        report.steps.append(t)
        report.admissibility_margins.append(peak / model.rho_U)
        report.energies.append(energy)
        report.iterations += 1
    report.energy = energy
    return it.u, report


# -------------------------------------------------------------- weak forms

def _pair_with_tests(G, region: np.ndarray, h: float,
                     tests: TestFunctionSet) -> np.ndarray:
    """Per test eta: h^n sum_x <G(x), D^2 eta(x)> over the region nodes.

    ``G`` holds the packed components of symmetric matrices; the Hessian
    stencil moves onto G once (summation by parts), and each test then costs
    one dot product.
    """
    dual = h**region.ndim * hessian_adjoint(G, region, h)
    return np.array([float(np.vdot(dual, eta)) for eta in tests])


def weak_residual(u: ScalarGrid, model: EnergyModel,
                  tests: TestFunctionSet) -> np.ndarray:
    """Per test function: h^n sum_x <F^{ij}(D^2 u), D^2 eta> over the region."""
    it = _Iterate(u, model).require_admissible()
    return _pair_with_tests(models._dF_body(model, it.c), it.region, u.h, tests)


def linearized_residual(f: ScalarGrid, b_field: np.ndarray,
                        tests: TestFunctionSet,
                        b_valid: np.ndarray | None = None) -> np.ndarray:
    """Per test: h^n sum_x b^{ij,kl}(x) f_ij eta_kl.

    ``b_field`` is the packed coefficient ``b[a, b] = b^{ij,kl}`` of
    :func:`models.pack_tensor` (a = (k, l), b = (i, j)) per node, shape
    ``(m, m) + f.extents``, sampled on the same lattice as ``f``; the sum
    runs over nodes where both the Hessian of ``f`` and ``b`` are valid.
    """
    m = symmat.packed_size(f.dim)
    b_field = np.asarray(b_field, dtype=float)
    if b_field.shape != (m, m) + f.extents:
        raise GridError(f"coefficient field has shape {b_field.shape}, "
                        f"expected {(m, m) + f.extents}")
    if b_valid is not None and np.shape(b_valid) != f.extents:
        raise GridError(f"coefficient valid mask has shape {np.shape(b_valid)}, "
                        f"expected {f.extents}")
    H = hessian_field(f)
    region = H.valid if b_valid is None else (H.valid & b_valid)
    if not region.any():
        raise GridError("no common valid region between f and the coefficients")
    w = symmat.duplication_weights(f.dim)
    c = [w[b] * H.values[..., b][region] for b in range(m)]
    # (b f)_kl = b^{ij,kl} f_ij, packed by its output slot (k, l)
    return _pair_with_tests([sum(b_field[a, b][region] * c[b] for b in range(m))
                             for a in range(m)], region, f.h, tests)


# -------------------------------------------------------------- linear BVP

def solve_constant_coeff_bvp(c0, u0: ScalarGrid) -> ScalarGrid:
    """Clamped solve of the constant-coefficient double-divergence equation.

    Minimizes the quadratic energy (1/2) h^n sum <c0 D^2 w, D^2 w> subject to
    the two prescribed rings of ``u0``, from its interior values.  ``c0`` is
    the packed (m, m) coefficient of :func:`models.pack_tensor` for
    ``u0.dim`` (``models.packed_identity`` for the bi-Laplacian), symmetrized
    as (c0 + c0^T) / 2; the normal equations are SPD when it passes the
    Legendre positivity check (:func:`models.packed_min_eig`), and are solved
    by conjugate gradients to a relative residual of 1e-12.
    """
    m = symmat.packed_size(u0.dim)
    P0 = np.asarray(c0, dtype=float)
    if P0.shape != (m, m) or not np.all(np.isfinite(P0)):
        raise models.ModelError(f"coefficient must be a finite packed ({m}, {m}) "
                                f"array in dimension {u0.dim}, got shape {P0.shape}")
    P0 = 0.5 * (P0 + P0.T)
    lam_min = float(models.packed_min_eig(P0))
    if lam_min <= 0.0:
        raise models.ModelError(
            f"coefficient tensor fails the Legendre check (min eigenvalue "
            f"{lam_min:g})"
        )
    region = hessian_field(u0).valid
    unknowns = u0.interior & u0.valid
    P = np.broadcast_to(P0[..., None], P0.shape + (int(region.sum()),))
    op = NewtonOperator(models.tensor_pairs(P), region, unknowns, u0.h)
    grad = op.matvec(np.array(u0.values))
    delta, _, _ = conjugate_gradient(
        op.matvec, -grad, np.zeros_like(grad), 1e-12, _default_cg_maxiter(unknowns),
        precond=clamped_box_preconditioner(unknowns, u0.h),
    )
    return u0.with_values(np.where(unknowns, u0.values + delta, u0.values))
