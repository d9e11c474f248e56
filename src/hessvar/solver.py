"""Discrete energy assembly, weak residuals, and clamped convex minimization.

The discrete energy of a potential u on a grid is

    E(u) = h^n * sum_x F(D^2_h u(x))

over every node x where the Hessian stencil is defined (one ring beyond the
interior); the unknowns are the interior node values, with the two outer
rings clamped.  The gradient of E with respect to the interior values is the
double-divergence stencil application of F^{ij}(D^2 u) — for the quadratic
integrand it is exactly the 13-point (2D) discrete bi-Laplacian at every
interior node.

Minimization is damped Newton with Armijo backtracking; the Newton systems
are symmetric positive definite by uniform convexity and are solved with
conjugate gradients preconditioned by the exact inverse of the squared
Dirichlet Laplacian on the box of the unknowns, applied with a DST built
from ``numpy.fft``.  Steps are shortened until every node Hessian stays
inside the model's admissible set (margin 1e-6).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import models, symmat
from .grids import (
    GridError,
    ScalarGrid,
    SymMatField,
    TestFunctionSet,
    hessian_adjoint,
    hessian_field,
    _hessian_stencil,
)
from .models import AdmissibilityError, DoubleDivergenceModel, EnergyModel

ADMISSIBILITY_MARGIN = 1e-6


class SolverError(RuntimeError):
    """Linear-solver or line-search breakdown."""


@dataclass(frozen=True)
class ClampedBoundaryData:
    """Prescribed values on the two outer node rings (value + normal slope).

    Only the coupled encoding is supported: both rings sampled from one
    scalar function.  Independent prescriptions of the value and the normal
    derivative are rejected by construction — there is no API for them.
    """

    ring_values: np.ndarray   # full-extents array; only prescribed slots used
    boundary_width: int = 2

    def __post_init__(self):
        vals = np.asarray(self.ring_values, dtype=float)
        object.__setattr__(self, "ring_values", vals)

    @staticmethod
    def from_potential(grid: ScalarGrid, fn) -> "ClampedBoundaryData":
        vals = np.asarray(fn(*grid.coords()), dtype=float)
        if not np.all(np.isfinite(vals[grid.prescribed])):
            raise GridError("boundary data must be finite on the prescribed rings")
        return ClampedBoundaryData(ring_values=vals, boundary_width=grid.boundary_width)

    @staticmethod
    def from_grid(grid: ScalarGrid) -> "ClampedBoundaryData":
        return ClampedBoundaryData(ring_values=np.array(grid.values),
                                   boundary_width=grid.boundary_width)

    def apply(self, grid: ScalarGrid) -> ScalarGrid:
        if self.ring_values.shape != grid.extents:
            raise GridError("boundary data shape does not match the grid")
        vals = np.array(grid.values)
        rings = grid.prescribed
        vals[rings] = self.ring_values[rings]
        return grid.with_values(vals)

    def satisfied_by(self, grid: ScalarGrid, tol: float = 1e-12) -> bool:
        rings = grid.prescribed
        scale = 1.0 + np.abs(self.ring_values[rings]).max(initial=0.0)
        dev = np.abs(grid.values[rings] - self.ring_values[rings]).max(initial=0.0)
        return bool(dev <= tol * scale)


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
    # per accepted step: max ||D^2 u||_op / rho_U of the new iterate
    # (0.0 when rho_U is infinite); admissible iterates stay below 1
    admissibility_margins: list = field(default_factory=list)
    converged: bool = False
    grad_tol: float = np.nan

    def to_dict(self) -> dict:
        return {
            "iterations": self.iterations,
            "grad_norm": self.grad_norm,
            "energy": self.energy,
            "steps": list(self.steps),
            "energies": list(self.energies),
            "cg_iterations": list(self.cg_iterations),
            "cg_residuals": list(self.cg_residuals),
            "admissibility_margins": list(self.admissibility_margins),
            "converged": self.converged,
            "grad_tol": self.grad_tol,
        }


# -------------------------------------------------------------- energy

def _eval_on(model_fn, H: SymMatField, region: np.ndarray):
    """Evaluate a batched matrix function on the masked nodes of a field."""
    Msub = H.matrices()[region]
    try:
        return model_fn(Msub)
    except AdmissibilityError as err:
        if err.index is not None:
            node = tuple(int(v) for v in np.argwhere(region)[err.index[0]])
            raise AdmissibilityError(
                f"inadmissible Hessian at node {node}", index=node
            ) from err
        raise


def assemble_energy(u: ScalarGrid, model: EnergyModel) -> float:
    """h^n-weighted sum of F(D^2 u) over the Hessian-valid region."""
    H = hessian_field(u)
    region = H.valid
    vals = _eval_on(lambda M: models.eval_F(model, M), H, region)
    return float(u.h**u.dim * vals.sum())


def energy_gradient(u: ScalarGrid, model: EnergyModel) -> np.ndarray:
    """Exact gradient of the discrete energy in the interior node values.

    Returns a full-extents array, zero off the interior.  Entry y equals the
    weak residual against the nodal test function at y.
    """
    H = hessian_field(u)
    region = H.valid
    G = _eval_on(lambda M: models.eval_dF(model, M), H, region)
    grad = _weighted_adjoint(G, region, u.h)
    grad[~(u.interior & u.valid)] = 0.0
    return grad


def _weighted_adjoint(G: np.ndarray, region: np.ndarray, h: float) -> np.ndarray:
    """h^n S^T G for symmetric matrices G (K, n, n) given on the region nodes."""
    packed = np.zeros(region.shape + (symmat.packed_size(region.ndim),))
    packed[region] = symmat.pack(G)
    return h**region.ndim * hessian_adjoint(packed, region, h)


class NewtonOperator:
    """Assembled second-derivative (stiffness) operator of one Newton step.

        (A v)(y) = h^n (S^T [T : S v])(y) = sum_d C_d(y) v(y + d)

    for unknown nodes y, and zero elsewhere.  S is the packed Hessian stencil
    map and T the per-node tensor of second derivatives of the integrand on
    the quadrature region (zero off it, with the minor symmetries); input
    slot (i, j) of S v pairs with output slot (k, l) through T^{ij,kl}, as in
    :func:`models.tensor_apply`.  The coefficients C_d are assembled once,
    one row per stencil offset d over the flat index range spanning the
    unknowns.  Offsets that no nonzero entry of T reaches are not stored:
    2D has 25 offsets in general and 13 for the quadratic integrand, where
    the operator is the 13-point discrete bi-Laplacian.
    """

    def __init__(self, Tfield: np.ndarray, region: np.ndarray,
                 unknowns: np.ndarray, h: float):
        n = region.ndim
        stencils = _hessian_stencil(n, h)
        dup = symmat.duplication_weights(n)
        pairs = symmat.PACKED_PAIRS[n]
        strides = [int(np.prod(region.shape[k + 1:])) for k in range(n)]

        def flat(off):
            return sum(o * s for o, s in zip(off, strides))

        rows = np.flatnonzero(unknowns)
        self.shape = region.shape
        self.start, self.stop = ((int(rows[0]), int(rows[-1]) + 1)
                                 if rows.size else (0, 0))
        # (output slot a, input slot b) pairs with a nonzero tensor entry
        terms = [(a, b) for a, (k, l) in enumerate(pairs)
                 for b, (i, j) in enumerate(pairs) if np.any(Tfield[:, i, j, k, l])]
        offsets = {(0,) * n} | {
            tuple(x + y for x, y in zip(oa, ob))
            for a, b in terms for oa, _ in stencils[a] for ob, _ in stencils[b]
        }
        offsets = sorted(offsets)
        row_of = {off: r for r, off in enumerate(offsets)}
        self.deltas = [flat(off) for off in offsets]
        self.center = row_of[(0,) * n]
        self.coeffs = np.zeros((len(offsets), self.stop - self.start))
        full = np.zeros(region.size)
        inside = np.ravel(region)
        for a, b in terms:
            (k, l), (i, j) = pairs[a], pairs[b]
            full[inside] = dup[a] * dup[b] * Tfield[:, i, j, k, l]
            for oa, wa in stencils[a]:
                src = full[self.start + flat(oa):self.stop + flat(oa)]
                for ob, wb in stencils[b]:
                    row = row_of[tuple(x + y for x, y in zip(oa, ob))]
                    self.coeffs[row] += (wa * wb) * src
        self.unknown_rows = np.ravel(unknowns)[self.start:self.stop]
        self.coeffs *= h**n * self.unknown_rows

    def matvec(self, v: np.ndarray) -> np.ndarray:
        vflat = np.ravel(v)
        out = np.zeros(vflat.size)
        acc = out[self.start:self.stop]
        tmp = np.empty(acc.size)
        for delta, c in zip(self.deltas, self.coeffs):
            acc += np.multiply(c, vflat[self.start + delta:self.stop + delta], out=tmp)
        return out.reshape(v.shape)

    def jacobi_diagonal(self) -> np.ndarray:
        """Diagonal of the operator: C_0 on the unknowns, 1 elsewhere."""
        diag = np.ones(int(np.prod(self.shape)))
        diag[self.start:self.stop] = np.where(self.unknown_rows,
                                              self.coeffs[self.center], 1.0)
        return diag.reshape(self.shape)


def _dst1(x: np.ndarray, axis: int) -> np.ndarray:
    """Unnormalized DST-I along one axis: X_k = sum_j x_j sin(pi j k / (m + 1)).

    The rfft of the odd extension (0, x, 0, -reversed x) of length 2(m + 1)
    has imaginary part -2 X_k at k = 1..m.  Applied twice it is (m + 1) / 2
    times the identity.
    """
    x = np.moveaxis(x, axis, -1)
    m = x.shape[-1]
    ext = np.zeros(x.shape[:-1] + (2 * (m + 1),))
    ext[..., 1:m + 1] = x
    ext[..., m + 2:] = -x[..., ::-1]
    spec = np.fft.rfft(ext)[..., 1:m + 1].imag
    return np.moveaxis(-0.5 * spec, -1, axis)


def squared_laplacian_preconditioner(unknowns: np.ndarray, h: float):
    """Preconditioner ``P r = 1_U B^-1 (1_U r)`` with ``B = h^n L_B^2``.

    ``L_B`` is the (2n+1)-point Dirichlet Laplacian on the bounding box B of
    the unknown nodes U.  Its eigenvectors are products of DST-I modes, with
    eigenvalues ``lambda_k = sum_axes (2 - 2 cos(k pi / (m + 1))) / h^2`` on
    an axis of m box nodes, so ``B^-1`` is two DSTs per axis around the
    per-mode factor ``(2 / (m + 1))^n / (h^n lambda_k^2)``.  ``P`` is
    symmetric positive definite on U for every unknown set and equals
    ``B^-1`` when U fills B.  The squared Laplacian is spectrally equivalent
    to the fourth-order Newton operators (Braess and Peisker, IMA J. Numer.
    Anal. 1986), so CG iteration counts grow slowly under refinement.
    Returns a callable on full-extents node arrays; the result is zero off U.
    """
    n = unknowns.ndim
    idx = np.nonzero(unknowns)
    if idx[0].size == 0:
        return np.zeros_like
    box = tuple(slice(int(i.min()), int(i.max()) + 1) for i in idx)
    mask = unknowns[box]
    lam = np.zeros(mask.shape)
    scale = 1.0
    for axis, m in enumerate(mask.shape):
        k = np.arange(1, m + 1).reshape((-1,) + (1,) * (n - 1 - axis))
        lam = lam + (2.0 - 2.0 * np.cos(k * np.pi / (m + 1))) / h**2
        scale *= 2.0 / (m + 1)
    factor = scale / (h**n * lam**2)

    def apply(r: np.ndarray) -> np.ndarray:
        z = np.where(mask, r[box], 0.0)
        for axis in range(n):
            z = _dst1(z, axis)
        z *= factor
        for axis in range(n):
            z = _dst1(z, axis)
        out = np.zeros_like(r)
        out[box] = np.where(mask, z, 0.0)
        return out

    return apply


def conjugate_gradient(matvec, b: np.ndarray, x0: np.ndarray, rtol: float,
                       maxiter: int, precond, atol: float = 0.0):
    """Preconditioned CG for SPD operators on node arrays.

    ``precond`` maps a residual to the preconditioned residual and must be
    symmetric positive definite on the subspace CG works in.  Stops when ``||r||_2 <= max(rtol * ||b||_2, atol)`` (the
    unpreconditioned residual).  Returns (x, iterations, achieved relative
    residual).  Raises SolverError on an indefinite direction or stagnation
    past ``maxiter``.
    """
    x = np.array(x0)
    r = b - matvec(x)
    bnorm = float(np.sqrt(np.vdot(b, b)))
    if bnorm == 0.0:
        return np.zeros_like(b), 0, 0.0
    target = max(rtol * bnorm, atol)
    z = precond(r)
    p = np.array(z)
    rz = float(np.vdot(r, z))
    for it in range(1, maxiter + 1):
        Ap = matvec(p)
        pAp = float(np.vdot(p, Ap))
        if pAp <= 0.0:
            raise SolverError(
                f"conjugate gradients met a non-positive curvature direction "
                f"(p^T A p = {pAp:g}); the operator is not positive definite"
            )
        alpha = rz / pAp
        x += alpha * p
        r -= alpha * Ap
        res = float(np.sqrt(np.vdot(r, r)))
        if res <= target:
            return x, it, res / bnorm
        z = precond(r)
        rz_new = float(np.vdot(r, z))
        p = z + (rz_new / rz) * p
        rz = rz_new
    raise SolverError(
        f"conjugate gradients stagnated: {maxiter} iterations, relative "
        f"residual {res / bnorm:g} > {rtol:g}"
    )


def _max_op_norm(u: ScalarGrid, model: EnergyModel) -> float:
    """max ||D^2 u||_op over the Hessian-valid nodes; 0.0 when rho_U is infinite."""
    if not np.isfinite(model.rho_U):
        return 0.0
    H = hessian_field(u)
    return float(symmat.op_norm(H.matrices()[H.valid]).max())


def check_admissible(u: ScalarGrid, model: EnergyModel) -> None:
    """Raise AdmissibilityError naming the first offending node, if any."""
    if not np.isfinite(model.rho_U):
        return
    H = hessian_field(u)
    M = H.matrices()
    bad = np.zeros(u.extents, dtype=bool)
    bad[H.valid] = symmat.op_norm(M[H.valid]) >= model.rho_U
    if bad.any():
        node = tuple(int(v) for v in np.argwhere(bad)[0])
        raise AdmissibilityError(
            f"Hessian operator norm >= rho_U = {model.rho_U:g} at node {node}",
            index=node,
        )


def _newton_direction(u: ScalarGrid, model: EnergyModel, grad: np.ndarray,
                      cg_rtol: float, cg_maxiter: int, atol: float):
    """CG solve of the Newton system at ``u``; returns conjugate_gradient's triple.

    The assembled operator lives only for this solve, so it is freed before
    the line search and before the next step's operator is built.
    """
    H = hessian_field(u)
    region = H.valid
    T = _eval_on(lambda M: models.eval_d2F(model, M), H, region)
    unknowns = u.interior & u.valid
    op = NewtonOperator(T, region, unknowns, u.h)
    del H, T    # CG needs only the assembled coefficients
    return conjugate_gradient(
        op.matvec, -grad, np.zeros_like(grad), cg_rtol, cg_maxiter,
        precond=squared_laplacian_preconditioner(unknowns, u.h), atol=atol)


def _default_cg_maxiter(unknowns: np.ndarray) -> int:
    return max(2000, 12 * int(np.sqrt(unknowns.sum())) ** 2)


def minimize_clamped(
    model: EnergyModel,
    bc: ClampedBoundaryData,
    init: ScalarGrid,
    grad_tol: float | None = None,
    max_iter: int = 50,
    cg_rtol: float = 1e-12,
    cg_maxiter: int | None = None,
):
    """Damped Newton minimization of the clamped discrete energy.

    Returns ``(solution, SolveReport)``.  Non-convergence inside ``max_iter``
    is flagged on the report, not raised; line-search and admissibility
    breakdowns raise :class:`SolverError` / :class:`AdmissibilityError`.

    The prescribed rings of ``init`` are stamped from ``bc``, so ``init``
    only supplies the interior starting values (and must be admissible once
    stamped).
    """
    u = bc.apply(init)
    check_admissible(u, model)
    unknowns = u.interior & u.valid
    if cg_maxiter is None:
        cg_maxiter = _default_cg_maxiter(unknowns)

    report = SolveReport()
    energy = assemble_energy(u, model)
    report.energies.append(energy)
    for _ in range(max_iter):
        grad = energy_gradient(u, model)
        gnorm = float(np.abs(grad).max())
        tol = grad_tol if grad_tol is not None else 1e-10 * (1.0 + abs(energy))
        report.grad_norm = gnorm
        report.grad_tol = tol
        if gnorm <= tol:
            report.converged = True
            break
        # the post-step gradient equals the CG residual for linear problems,
        # so solving past the Newton tolerance buys nothing
        delta, cg_iters, cg_residual = _newton_direction(
            u, model, grad, cg_rtol, cg_maxiter, atol=0.4 * tol)
        report.cg_iterations.append(cg_iters)
        report.cg_residuals.append(cg_residual)
        slope = float(np.vdot(grad, delta))
        if slope >= 0.0:
            raise SolverError("Newton direction is not a descent direction")
        # below this, energy differences drown in round-off and the Armijo
        # comparison is meaningless; convexity makes the Newton step safe
        armijo_floor = 64.0 * np.finfo(float).eps * (1.0 + abs(energy))
        t = 1.0
        accepted = False
        while t >= 1e-12:
            trial = u.with_values(np.where(unknowns, u.values + t * delta, u.values))
            peak = _max_op_norm(trial, model)
            if not peak < model.rho_U - ADMISSIBILITY_MARGIN:
                t *= 0.5
                continue
            trial_energy = assemble_energy(trial, model)
            if -t * slope <= armijo_floor:
                accepted = True
                break
            if trial_energy <= energy + 1e-4 * t * slope:
                accepted = True
                break
            t *= 0.5
        if not accepted:
            raise SolverError(
                "line search stalled: no admissible decreasing step found"
            )
        u = trial
        energy = trial_energy
        report.steps.append(t)
        report.admissibility_margins.append(peak / model.rho_U)
        report.energies.append(energy)
        report.iterations += 1
    else:
        grad = energy_gradient(u, model)
        report.grad_norm = float(np.abs(grad).max())
        report.converged = report.grad_norm <= report.grad_tol
    report.energy = energy
    return u, report


# -------------------------------------------------------------- weak forms

def _pair_with_tests(G: np.ndarray, region: np.ndarray, h: float,
                     tests: TestFunctionSet) -> np.ndarray:
    """Per test eta: h^n sum_x <G(x), D^2 eta(x)> over the region nodes.

    The Hessian stencil moves onto G once (summation by parts); each test
    then costs one dot product.  Only the symmetric part of G pairs with the
    symmetric D^2 eta.
    """
    dual = _weighted_adjoint(0.5 * (G + np.swapaxes(G, -1, -2)), region, h)
    return np.array([float(np.vdot(dual, eta)) for eta in tests])


def weak_residual(u: ScalarGrid, model: EnergyModel,
                  tests: TestFunctionSet) -> np.ndarray:
    """Per test function: h^n sum_x <F^{ij}(D^2 u), D^2 eta> over the region."""
    H = hessian_field(u)
    region = H.valid
    G = _eval_on(lambda M: models.eval_dF(model, M), H, region)
    return _pair_with_tests(G, region, u.h, tests)


def dd_weak_residual(u: ScalarGrid, model: DoubleDivergenceModel,
                     tests: TestFunctionSet) -> np.ndarray:
    """Per test: h^n sum_x a^{ij,kl}(D^2 u) u_ij eta_kl."""
    H = hessian_field(u)
    region = H.valid
    M = H.matrices()[region]
    AM = models.tensor_apply(model(M), M)   # a^{ij,kl} u_ij as a matrix in (k,l)
    return _pair_with_tests(AM, region, u.h, tests)


def linearized_residual(f: ScalarGrid, b_field: np.ndarray,
                        tests: TestFunctionSet,
                        b_valid: np.ndarray | None = None) -> np.ndarray:
    """Per test: h^n sum_x b^{ij,kl}(x) f_ij eta_kl.

    ``b_field`` has shape ``extents + (n, n, n, n)`` and must be sampled on
    the same lattice as ``f``; the sum runs over nodes where both the Hessian
    of ``f`` and ``b`` are valid.
    """
    if b_field.shape[: f.dim] != f.extents:
        raise GridError("coefficient field extents do not match the grid")
    H = hessian_field(f)
    region = H.valid if b_valid is None else (H.valid & b_valid)
    if not region.any():
        raise GridError("no common valid region between f and the coefficients")
    Bf = models.tensor_apply(b_field[region], H.matrices()[region])
    return _pair_with_tests(Bf, region, f.h, tests)


# -------------------------------------------------------------- linear BVP

def solve_constant_coeff_bvp(
    c0, bc: ClampedBoundaryData, grid: ScalarGrid,
    cg_rtol: float = 1e-12, cg_maxiter: int | None = None,
) -> ScalarGrid:
    """Clamped solve of the constant-coefficient double-divergence equation.

    Minimizes the quadratic energy (1/2) h^n sum <c0 D^2 w, D^2 w> subject to
    the two prescribed rings; the normal equations are SPD when ``c0`` passes
    the Legendre positivity check, and are solved by conjugate gradients.
    """
    T0 = c0.entries if isinstance(c0, models.Tensor4) else models.symmetrize_tensor(
        np.asarray(c0, dtype=float)
    )
    lam_min = float(models.tensor_min_eig(T0))
    if lam_min <= 0.0:
        raise models.ModelError(
            f"coefficient tensor fails the Legendre check (min eigenvalue "
            f"{lam_min:g})"
        )
    u0 = bc.apply(grid)
    region = hessian_field(u0).valid
    unknowns = u0.interior & u0.valid
    Tfield = np.broadcast_to(T0, (int(region.sum()),) + T0.shape)
    op = NewtonOperator(Tfield, region, unknowns, u0.h)
    grad = op.matvec(np.array(u0.values))

    if cg_maxiter is None:
        cg_maxiter = _default_cg_maxiter(unknowns)
    delta, _, _ = conjugate_gradient(
        op.matvec, -grad, np.zeros_like(grad), cg_rtol, cg_maxiter,
        precond=squared_laplacian_preconditioner(unknowns, u0.h),
    )
    return u0.with_values(np.where(unknowns, u0.values + delta, u0.values))
