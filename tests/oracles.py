"""Reference implementations that only the tests use.

- the full (..., n, n, n, n) tensor family of the second derivative: the
  identity tensor, the minor symmetrization, the contractions with one and
  two matrices, the least eigenvalue of the form in an orthonormal basis of
  symmetric matrices, and the second derivative of every model kind built
  as a full tensor, oracles for the packed ``(m, m, ...)`` arrays of
  :mod:`hessvar.models`;
- the weighted Hessian stencil (N-d offsets with weights +-1/h^2, -2/h^2
  and +-1/(4h^2)), the oracle for the flat unit-sign
  :func:`hessvar.grids.hessian_stencil`;
- full-grid shifted copies and the nodal hat test functions;
- the double-divergence family: a coefficient model, its linearization
  along a segment, its weak residual, a constant-tensor model and the
  volume functional's coefficient ``sqrt(det g) g^{ij} delta^{kl}``, whose
  residual is the oracle for the closed form
  :func:`hessvar.hamstat.hamstat_residual`;
- the previous ``shifted``-copy forms of
  :func:`hessvar.hamstat.laplace_beltrami` (on the full-matrix face
  coefficient) and :func:`hessvar.grids.difference_quotient`, bit-level
  oracles for the view-based library versions;
- the oscillation density from full-grid shifted copies, one per ball
  offset, and the two-full-pass singular-set detector built on it, the
  oracles for the chunked density and the screened
  :func:`hessvar.diagnostics.singular_set`;
- the node-major area closed forms on full ``(..., n, n)`` matrices with
  batched ``@`` (the metric triple ``(g, B, F)`` and the first derivative
  ``F M B``), oracles for the packed-component kernels of
  :mod:`hessvar.models`, which sum each product entry in a fixed order;
- the Newton operator with one coefficient array per nonzero packed slot
  pair (a, b), the oracle for the shared pairs of
  :class:`hessvar.solver.NewtonOperator`;
- the energy, gradient and weak residual from ``eval_F``/``eval_dF`` on the
  full ``(K, n, n)`` matrices of the Hessian region, the bit-level oracles
  for the packed iterate that :func:`hessvar.solver.assemble_energy`,
  :func:`hessvar.solver.energy_gradient` and
  :func:`hessvar.solver.weak_residual` run;
- the full-matrix determinant and adjugate inverse, the crop of a grid to
  the box of its valid nodes, and the hyperplane jump field.
"""

from dataclasses import dataclass

import numpy as np

from hessvar import grids, models, solver, symmat
from hessvar.grids import GridError, ScalarGrid, SymMatField, TestFunctionSet


def identity_tensor(n):
    """T with <T sigma, sigma> = |sigma|^2 on symmetric matrices."""
    I = np.eye(n)
    return 0.5 * (np.einsum("ik,jl->ijkl", I, I) + np.einsum("il,jk->ijkl", I, I))


def symmetrize_tensor(T):
    """Enforce T^{ij,kl} = T^{ji,kl} = T^{ij,lk} on the trailing 4 axes."""
    T = 0.5 * (T + np.swapaxes(T, -4, -3))
    return 0.5 * (T + np.swapaxes(T, -2, -1))


def tensor_apply(T, sigma):
    """(T sigma)_kl = T^{ij,kl} sigma_ij (full index sum)."""
    return np.einsum("...ijkl,...ij->...kl", T, sigma)


def tensor_pair(T, sigma, tau):
    """T^{ij,kl} sigma_ij tau_kl (full index sum)."""
    return np.einsum("...ijkl,...ij,...kl->...", T, sigma, tau)


def orthonormal_sym_basis(n):
    """(m, n, n) orthonormal basis of symmetric matrices (HS inner product)."""
    return symmat.matrices(np.diag(1.0 / np.sqrt(symmat.duplication_weights(n))))


def tensor_min_eig(T):
    """Smallest eigenvalue of the form sigma -> <T sigma, sigma> over |sigma| = 1,
    from its matrix in :func:`orthonormal_sym_basis`."""
    B = orthonormal_sym_basis(T.shape[-1])
    G = np.einsum("...ijkl,aij,bkl->...ab", T, B, B)
    return np.linalg.eigvalsh(0.5 * (G + np.swapaxes(G, -1, -2)))[..., 0]


def full_d2F(model, c):
    """The second derivative at packed components c as a full (..., n, n, n, n)
    tensor: the identity tensor, the unpacked area closed form, a custom
    callback's tensor, or the finite difference of dF with both the major and
    the minor symmetries enforced."""
    if model.kind == "quadratic":
        T = identity_tensor(model.n)
        return np.broadcast_to(T, np.shape(c[0]) + T.shape).copy()
    if model.kind == "area":
        return models.unpack_tensor(models._area_d2F_packed(c))
    M = symmat.matrices(c)
    if model._d2F is not None:
        return np.asarray(model._d2F(M), dtype=float)
    dF = model._dF if model._dF is not None else (
        lambda X: symmat.matrices(models._fd_dF(model._F, X, model.fd_step)))
    T = symmat.matrices(models._fd_dF(dF, M, model.fd_step))
    return symmetrize_tensor(0.5 * (T + np.swapaxes(np.swapaxes(T, -4, -2), -3, -1)))


def weighted_hessian_stencil(n, h):
    """Per packed component: list of (offset, weight) — all self-adjoint."""
    stencils = []
    for i, j in symmat.PACKED_PAIRS[n]:
        if i == j:
            e = np.zeros(n, dtype=int)
            e[i] = 1
            stencils.append([(tuple(e), 1.0 / h**2),
                             (tuple(-e), 1.0 / h**2),
                             ((0,) * n, -2.0 / h**2)])
        else:
            ei = np.zeros(n, dtype=int)
            ej = np.zeros(n, dtype=int)
            ei[i] = 1
            ej[j] = 1
            w = 1.0 / (4.0 * h**2)
            stencils.append([(tuple(ei + ej), w),
                             (tuple(-ei - ej), w),
                             (tuple(ei - ej), -w),
                             (tuple(-ei + ej), -w)])
    return stencils


def shifted(a, off, fill):
    """Full-size copy with ``out[x] = a[x + off]``, `fill` where x + off leaves the grid."""
    out = np.full(a.shape, fill, dtype=a.dtype)
    src, dst = grids.offset_slices(off, a.shape)
    out[dst] = a[src]
    return out


def nodal_tests(grid, stride=1):
    """Nodal hat functions (single-node indicators) on a strided interior lattice."""
    interior = grid.interior & grid.valid
    idx = np.argwhere(interior)[:: max(1, stride)]
    fns, labels = [], []
    for node in idx:
        f = np.zeros(grid.extents)
        f[tuple(node)] = 1.0
        fns.append(f)
        labels.append("hat" + "_".join(str(i) for i in node))
    TestFunctionSet.validate_against(grid, fns)
    return TestFunctionSet(functions=tuple(fns), labels=tuple(labels))


@dataclass(frozen=True)
class DoubleDivergenceModel:
    """Coefficient model a(M) for weak forms pairing u_ij against eta_kl."""

    n: int
    coeff: object              # callable M (..., n, n) -> (..., n, n, n, n)
    rho_U: float = np.inf
    fd_step: float = 1e-5
    name: str = "custom"

    def __call__(self, M):
        return symmetrize_tensor(np.asarray(self.coeff(np.asarray(M, dtype=float))))


def linearized_coefficients_dd(model, M, M_shift, quad_nodes=8):
    """Linearized leading coefficient of a double-divergence equation.

    Along the segment A(t) = M + t (M_shift - M),

        b^{ij,kl} = integral_0^1 [ a^{ij,kl}(A(t))
                                   + (da^{pq,kl}/dM_ij)(A(t)) M_pq ] dt

    with the base Hessian M frozen in the contraction.  The inner derivative
    of ``a`` uses central matrix finite differences (symmetric-variable
    convention).
    """
    M = np.asarray(M, dtype=float)
    M_shift = np.asarray(M_shift, dtype=float)
    models._require_segment(model.rho_U, M, M_shift)
    n = model.n
    t, w = models._gauss_legendre_01(quad_nodes)
    dirs = models._packed_directions(n)
    out = None
    for tq, wq in zip(t, w):
        A = M + tq * (M_shift - M)
        term = np.array(model(A))
        eps = model.fd_step * (1.0 + symmat.hs_norm(A))
        for a_idx, (i, j) in enumerate(symmat.PACKED_PAIRS[n]):
            da = models._richardson_central(model, A, dirs[a_idx], eps)
            scale = 1.0 if i == j else 0.5
            # contract the first pair of da with the frozen base Hessian
            contrib = scale * np.einsum("...pqkl,...pq->...kl", da, M)
            term[..., i, j, :, :] += contrib
            if i != j:
                term[..., j, i, :, :] += contrib
        out = wq * term if out is None else out + wq * term
    return symmetrize_tensor(out)


def dd_weak_residual(u, model, tests):
    """Per test: h^n sum_x a^{ij,kl}(D^2 u) u_ij eta_kl."""
    H = grids.hessian_field(u)
    region = H.valid
    M = H.matrices()[region]
    AM = tensor_apply(model(M), M)   # a^{ij,kl} u_ij as a matrix in (k,l)
    sym = symmat.components(0.5 * (AM + np.swapaxes(AM, -1, -2)))
    return solver._pair_with_tests(sym, region, u.h, tests)


def hamstat_dd_model(n):
    """Coefficient a^{(ik),(jl)} = sqrt(det g) g^{ij} delta^{kl} of the
    volume functional's weak equation, as a double-divergence model."""
    eye = np.eye(n)

    def coeff(M):
        _, ginv, sd = models.graph_metric(M)
        return np.einsum("...,...ij,kl->...ikjl", sd, ginv, eye)

    return DoubleDivergenceModel(n=n, coeff=coeff, name="hamstat")


def constant_dd_model(n, tensor, name="constant"):
    """Double-divergence model whose coefficient is the constant ``tensor``."""
    T = symmetrize_tensor(np.asarray(tensor, dtype=float))

    def coeff(M):
        return np.broadcast_to(T, M.shape[:-2] + T.shape).copy()

    return DoubleDivergenceModel(n=n, coeff=coeff, name=name)


def field_difference_quotient(f, direction, step=1):
    """Component-wise forward difference quotient of a matrix field."""
    off = [0] * f.dim
    off[direction] = int(step)
    vals = (shifted(f.values, tuple(off) + (0,), np.nan) - f.values) / (step * f.h)
    valid = f.valid & shifted(f.valid, off, False)
    vals = np.where(valid[..., None], vals, np.nan)
    return SymMatField(h=f.h, origin=f.origin, values=vals, valid=valid)


def difference_quotient(u, direction, step=1):
    """Forward difference quotient from two full-grid shifted copies."""
    if not (0 <= direction < u.dim):
        raise GridError(f"direction {direction} out of range for dim {u.dim}")
    if step < 1 or step != int(step):
        raise GridError(f"step must be a positive integer multiple of h, got {step}")
    if step >= u.extents[direction]:
        raise GridError("difference-quotient shift exceeds the grid")
    off = [0] * u.dim
    off[direction] = int(step)
    vals = (shifted(u.values, off, np.nan) - u.values) / (step * u.h)
    valid = u.valid & shifted(u.valid, off, False)
    if not valid.any():
        raise GridError("difference-quotient shift leaves no valid nodes")
    vals = np.where(valid, vals, np.nan)
    return ScalarGrid(
        h=u.h, origin=u.origin, values=vals,
        boundary_width=u.boundary_width, valid=valid,
    )


def metric_coef(geom):
    """sqrt(det g) * g^{ij} per node, full matrix layout."""
    return geom.sqrt_det[..., None, None] * symmat.unpack(geom.g_inv)


def laplace_beltrami(scalar, geom):
    """Conservative flux Laplace-Beltrami operator from full-grid shifted
    copies of the full-matrix face coefficient."""
    phi = np.asarray(scalar, dtype=float)
    n = geom.dim
    if phi.shape != geom.valid.shape:
        raise GridError("scalar and metric live on different lattices")
    h = geom.h
    C = metric_coef(geom)
    div = np.zeros(phi.shape)
    for i in range(n):
        ei = [0] * n
        ei[i] = 1
        face = 0.5 * (C + shifted(C, tuple(ei) + (0, 0), np.nan))
        flux = face[..., i, i] * (shifted(phi, ei, np.nan) - phi) / h
        for j in range(n):
            if j == i:
                continue
            ej = [0] * n
            ej[j] = 1
            dj_here = (shifted(phi, ej, np.nan)
                       - shifted(phi, tuple(-v for v in ej), np.nan)) / (2 * h)
            dj_there = (shifted(phi, tuple(a + b for a, b in zip(ei, ej)), np.nan)
                        - shifted(phi, tuple(a - b for a, b in zip(ei, ej)), np.nan)
                        ) / (2 * h)
            flux += face[..., i, j] * 0.5 * (dj_here + dj_there)
        div += (flux - shifted(flux, tuple(-v for v in ei), np.nan)) / h
    out = div / geom.sqrt_det
    valid = np.array(geom.valid)
    for off in np.ndindex(*(3,) * n):
        d = tuple(int(v) - 1 for v in off)
        if any(d):
            valid &= shifted(geom.valid, d, False)
    out[~valid] = np.nan
    return out, valid


def integer_ball_offsets(radius, h, dim):
    """Offsets d in C order with |d|^2 h^2 <= r^2 (1 + 1e-12), in integers."""
    reach = int(np.floor(radius / h + 1e-12))
    offs = []
    for off in np.ndindex(*(2 * reach + 1,) * dim):
        d = np.array(off) - reach
        if (d * d).sum() * h * h <= radius * radius * (1.0 + 1e-12):
            offs.append(tuple(int(v) for v in d))
    return offs


def shifted_oscillation_density(f, radius, p0):
    """``(density, computable)`` on the whole grid from one shifted copy per ball offset.

    The copies of each component stack along a trailing offsets axis, and
    every sum over a ball is ``np.add.reduce`` along that axis (numpy's
    pairwise sum); the weighted squares add in component storage order.
    A node is computable when its whole ball lies on valid nodes; the
    density is NaN elsewhere.
    """
    offs = integer_ball_offsets(radius, f.h, f.dim)
    computable = np.logical_and.reduce([shifted(f.valid, off, False) for off in offs])
    w = symmat.duplication_weights(f.dim)
    norm2 = np.zeros(f.extents + (len(offs),))
    for a in range(len(w)):
        ball = np.stack([shifted(f.values[..., a], off, np.nan) for off in offs], axis=-1)
        ball -= (np.add.reduce(ball, axis=-1) / len(offs))[..., None]
        norm2 += w[a] * ball * ball
    dens = f.h**f.dim * np.add.reduce(np.sqrt(norm2) ** p0, axis=-1) / radius**f.dim
    dens[~computable] = np.nan
    return dens, computable


def singular_set(f, p0, radii, tau):
    """``(mask, computable)`` from both small-radius densities on the whole grid."""
    radii = sorted((float(r) for r in radii), reverse=True)
    d1, c1 = shifted_oscillation_density(f, radii[-2], p0)
    d2, c2 = shifted_oscillation_density(f, radii[-1], p0)
    computable = c1 & c2
    quantity = np.minimum(d1, d2)
    mask = np.zeros(f.extents, dtype=bool)
    mask[computable] = quantity[computable] > tau
    return mask, computable


def hamstat_residual(u, tests):
    """Volume-criticality residual through the per-node coefficient tensor of
    :func:`hamstat_dd_model`, symmetrized and contracted with D^2 u."""
    return dd_weak_residual(u, hamstat_dd_model(u.dim), tests)


def area_graph_metric(M):
    """``(g, B, F)`` with g = I + M @ M, B its adjugate inverse, F = sqrt(det g)."""
    n = M.shape[-1]
    g = np.broadcast_to(np.eye(n), M.shape) + M @ M
    return g, inv_sym(g), np.sqrt(det_sym(g))


def area_dF(M):
    """First derivative ``F M B`` of the volume integrand, symmetrized."""
    _, B, F = area_graph_metric(M)
    G = F[..., None, None] * (M @ B)
    return 0.5 * (G + np.swapaxes(G, -1, -2))


class PerSlotNewtonOperator(solver.NewtonOperator):
    """The Newton operator built from a full packed P (m, m, K): one
    coefficient array per nonzero (a, b), applied as ``W[a] += c Sv[b]`` in
    lexicographic (a, b) order.  The builder and product before the pairs of
    :func:`hessvar.models.tensor_pairs`, and their bit-level oracle; only the
    stencils and index ranges come from the library class."""

    def __init__(self, P, region, unknowns, h):
        super().__init__((), region, unknowns, h)
        n = region.ndim
        nodes = np.flatnonzero(region)
        k0, k1 = np.searchsorted(nodes, (self.lo, self.hi))
        at = nodes[k0:k1] - self.lo
        scale = symmat.duplication_weights(n) * [
            st[0][1] for st in weighted_hessian_stencil(n, h)]
        for a, b in np.ndindex(P.shape[:2]):
            if P[a, b].any():
                c = np.zeros(self.hi - self.lo)
                c[at] = h**n * scale[a] * scale[b] * P[a, b, k0:k1]
                self.terms.append((a, b, c))

    def matvec(self, v):
        vflat = np.ravel(v)
        Sv = np.zeros((len(self.stencils), self.hi - self.lo))
        for row, st in zip(Sv, self.stencils):
            grids.add_stencil(row, vflat, self.lo, st)
        W = np.zeros_like(Sv)
        tmp = np.empty(self.hi - self.lo)
        for a, b, c in self.terms:
            W[a] += np.multiply(c, Sv[b], out=tmp)
        out = np.zeros(vflat.size)
        acc = out[self.start:self.stop]
        for row, st in zip(W, self.stencils):
            grids.add_stencil(acc, row, self.start - self.lo, st)
        acc *= np.ravel(self.unknowns)[self.start:self.stop]
        return out.reshape(v.shape)


def full_matrix_energy(u, model):
    """h^n sum of ``eval_F`` over the full matrices of the Hessian region."""
    H = grids.hessian_field(u)
    return float(u.h**u.dim * models.eval_F(model, H.matrices()[H.valid]).sum())


def _full_matrix_dF(u, model):
    H = grids.hessian_field(u)
    return symmat.components(models.eval_dF(model, H.matrices()[H.valid])), H.valid


def full_matrix_gradient(u, model):
    """``h^n S^T eval_dF`` on the full matrices, zero off the interior."""
    G, region = _full_matrix_dF(u, model)
    grad = u.h**u.dim * grids.hessian_adjoint(G, region, u.h)
    grad[~(u.interior & u.valid)] = 0.0
    return grad


def full_matrix_weak_residual(u, model, tests):
    """``eval_dF`` on the full matrices, paired with each test."""
    G, region = _full_matrix_dF(u, model)
    return solver._pair_with_tests(G, region, u.h, tests)


def det_sym(M):
    """Determinant of symmetric 2x2 / 3x3 matrices."""
    return symmat.det_packed(symmat.components(M))


def inv_sym(M):
    """Adjugate inverse of symmetric 2x2 / 3x3 matrices."""
    return symmat.matrices(symmat.inv_packed(symmat.components(M)))


def cropped(grid):
    """Restrict a grid to the bounding box of its valid region (all-valid result)."""
    sl = grids.bounding_box(grid.valid)
    if not grid.valid[sl].all():
        raise GridError("valid region is not a box; cannot crop")
    return ScalarGrid(h=grid.h, origin=grid.origin + grid.h * np.array([s.start for s in sl]),
                      values=grid.values[sl].copy(), boundary_width=grid.boundary_width)


def hyperplane_jump_field(grid_like, matrix):
    """Field +-A split by the hyperplane {x_0 = 0.49 h}, just off the node
    lattice so no node lands on the jump itself."""
    packed = symmat.pack(np.asarray(matrix, dtype=float))
    X = grid_like.coords()[0]
    return SymMatField(h=grid_like.h, origin=np.array(grid_like.origin),
                       values=np.where((X > 0.49 * grid_like.h)[..., None], packed, -packed))
