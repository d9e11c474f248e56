"""Reference implementations that only the tests use.

Full-grid shifted copies, the nodal hat test functions, a constant-tensor
double-divergence model, the previous ``shifted``-copy forms of
:func:`hessvar.hamstat.laplace_beltrami` and
:func:`hessvar.grids.difference_quotient`, kept as bit-level oracles for the
view-based library versions, and the two-full-pass singular-set detector,
the oracle for the screened :func:`hessvar.diagnostics.singular_set`, and
the double-divergence form of the volume-criticality residual, the oracle
for the closed form :func:`hessvar.hamstat.hamstat_residual`.
"""

import numpy as np

from hessvar import diagnostics, grids, hamstat, models, solver
from hessvar.grids import GridError, ScalarGrid, SymMatField, TestFunctionSet


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


def constant_dd_model(n, tensor, name="constant"):
    """Double-divergence model whose coefficient is the constant ``tensor``."""
    T = tensor.entries if isinstance(tensor, models.Tensor4) else models.symmetrize_tensor(
        np.asarray(tensor, dtype=float)
    )

    def coeff(M):
        return np.broadcast_to(T, M.shape[:-2] + T.shape).copy()

    return models.DoubleDivergenceModel(n=n, coeff=coeff, name=name)


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


def laplace_beltrami(scalar, metric):
    """Conservative flux Laplace-Beltrami operator from full-grid shifted copies."""
    phi = np.asarray(scalar, dtype=float)
    n = metric.dim
    if phi.shape != metric.valid.shape:
        raise GridError("scalar and metric live on different lattices")
    h = metric.h
    C = hamstat._metric_coef(metric)
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
    out = div / metric.sqrt_det
    valid = np.array(metric.valid)
    for off in np.ndindex(*(3,) * n):
        d = tuple(int(v) - 1 for v in off)
        if any(d):
            valid &= shifted(metric.valid, d, False)
    out[~valid] = np.nan
    return out, valid


def singular_set(f, p0, radii, tau):
    """``(mask, computable)`` from both small-radius densities on the whole grid."""
    radii = sorted((float(r) for r in radii), reverse=True)
    vals = diagnostics._component_major(f)
    d1, c1 = diagnostics._oscillation_density(f, vals, radii[-2], p0)
    d2, c2 = diagnostics._oscillation_density(f, vals, radii[-1], p0)
    computable = c1 & c2
    quantity = np.minimum(d1, d2)
    mask = np.zeros(f.extents, dtype=bool)
    mask[computable] = quantity[computable] > tau
    return mask, computable


def hamstat_residual(u, tests):
    """Volume-criticality residual through the per-node coefficient tensor of
    :func:`hessvar.hamstat.hamstat_dd_model`, symmetrized and contracted with D^2 u."""
    return solver.dd_weak_residual(u, hamstat.hamstat_dd_model(u.dim), tests)
