"""Oscillation and integrability diagnostics for symmetric-matrix fields.

Realizes the measurable side of elliptic regularity theory on discrete
Hessian fields: mean oscillation over balls and its supremum (the BMO
modulus), higher-exponent oscillation ratios, Campanato-type power-law decay
fits, reverse-Hoelder doubling constants with the Sobolev-dual exponent
2n/(n+2), a scan-based higher-integrability exponent estimate, a singular-set
detector thresholding the small-radius oscillation density, Hoelder seminorm
estimates by deterministic pair sampling, and a checker for the power-decay
iteration lemma used to propagate oscillation smallness across scales.

All ball averages are plain node means (the discrete measure h^n per node
cancels), so every quantity here is invariant under grid-preserving shifts
of the field by a constant matrix where the continuum quantity is.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import grids, symmat
from .grids import (
    Ball,
    BallFamily,
    EmptyRegionError,
    GridError,
    SymMatField,
    balls_fit,
    inner_box_nodes,
    node_ball_offsets,
)


class DiagnosticsError(ValueError):
    """Invalid diagnostics request."""


def sobolev_dual_exponent(n: int) -> float:
    """The exponent 2n/(n+2) pairing with L^2 under the Sobolev embedding."""
    return 2.0 * n / (n + 2.0)


# -------------------------------------------------------------- oscillation

def _check_exponent(p: float) -> None:
    if not 1.0 <= p < np.inf:               # NaN fails too
        raise DiagnosticsError(f"oscillation exponent must be >= 1 and finite, got {p}")


def _component_major(f: SymMatField) -> np.ndarray:
    """The packed components as a C-contiguous ``(m,) + extents`` array, 0 off valid nodes."""
    vals = np.moveaxis(f.values, -1, 0).copy()
    np.copyto(vals, 0.0, where=~f.valid)
    return vals


def _chunk_deviations(vals, w, idx, count=None, holes=()):
    """|f - (f)_B| on a chunk of balls, one ball per row of ``idx``; |f| when ``count`` is None.

    ``vals`` holds the packed components by row, ``(m, nodes)`` and
    C-contiguous, and ``idx`` the node indices of each ball, (balls,
    nodes); ``w`` are the duplication weights, ``count`` the valid nodes per
    ball (a scalar or a column) and ``holes`` the pair ``(rows, ok)`` of the
    rows with invalid entries and their valid masks.  One gather reads all
    components, as (m, balls, nodes); a ball's mean is numpy's pairwise sum
    of its row (of its valid entries alone, per component, for a row with
    holes) over ``count``, and the norm adds the weighted squares in
    component storage order, as ``symmat.hs_norm_packed`` does.  A ball gets
    the same bits alone as in any chunk of :func:`_ball_means` or
    :func:`_density`.  Hole entries get a value too, which the caller drops.
    """
    x = vals.take(idx, axis=1)
    if count is not None:
        mean = np.add.reduce(x, axis=2, keepdims=True)
        for b, ok in zip(*holes):
            for a in range(len(w)):
                mean[a, b] = np.add.reduce(x[a, b][ok])
        mean /= count
        x -= mean
    np.square(x, out=x)
    for a in np.flatnonzero(w != 1.0):
        x[a] *= w[a]                        # exact: the weights are 1 and 2
    dev = x[0]
    for a in range(1, len(w)):
        dev += x[a]
    return np.sqrt(dev, out=dev)


def _valid_counts(f: SymMatField, family: BallFamily) -> np.ndarray:
    """Valid nodes per ball of ``family`` (on the field's lattice); the first empty ball raises."""
    counts = family.counts(f.valid)
    if not counts.all():
        raise EmptyRegionError(
            f"ball {family.ball(int(np.argmin(counts)))} contains no valid nodes")
    return counts


def _ball_means(f: SymMatField, family: BallFamily, exponents, centred: bool = True,
                vals=None, counts=None):
    """Per exponent q, each ball's mean of |f - (f)_B|^q over its valid nodes.

    Returns ``(means, counts)``: ``means[i, k]`` belongs to ``exponents[i]``
    and ball ``k`` of ``family``, and ``counts[k]`` is the number of valid
    nodes of ball ``k``.  Uncentred, the means are of |f|^q.  The family
    is regrouped when it lies on another lattice than the field's.  A caller
    that makes several passes over one field passes its
    :func:`_component_major` copy ``vals`` and the family's ``counts``.

    The counts are :func:`_valid_counts`, and only rows with fewer valid
    nodes than their pattern gather the valid mask.  Each chunk goes through
    :func:`_chunk_deviations` on one component-major copy of the field, and
    each sum is numpy's pairwise sum over a ball's row of valid nodes (a row
    with holes is compacted first), so a ball's values do not depend on the
    other balls or on the chunking.  The first ball in family order without
    a valid node raises :class:`EmptyRegionError`.
    """
    family = family.on(f)
    if counts is None:
        counts = _valid_counts(f, family)
    if vals is None:
        vals = _component_major(f)
    w = symmat.duplication_weights(f.dim)
    vals, valid = vals.reshape(len(w), -1), f.valid.reshape(-1)
    means = np.empty((len(exponents), len(family)))
    for members, nodes in family.chunks():
        count = counts[members]
        holed = np.flatnonzero(count < nodes.shape[1])
        holes = (holed, valid.take(nodes[holed])) if len(holed) else ()
        dev = _chunk_deviations(vals, w, nodes, count[:, None] if centred else None, holes)
        for i, q in enumerate(exponents):
            part = dev
            if q == 2.0 and i == len(exponents) - 1:
                part = np.square(dev, out=dev)          # dev is not read again
            elif q != 1.0:
                part = dev**q
            sums = np.add.reduce(part, axis=1)
            for b, ok in zip(*holes):
                sums[b] = part[b][ok].sum()
            means[i, members] = sums / count
    return means, counts


def mean_oscillation(f: SymMatField, ball: Ball, p: float = 1.0) -> float:
    """Normalized p-oscillation: mean over the ball of |f - (f)_B|^p."""
    _check_exponent(p)
    family = grids.ball_groups(f, [ball.center], [ball.radius])
    return float(_ball_means(f, family, (p,))[0][0, 0])


@dataclass(frozen=True)
class BMOResult:
    omega: float
    ball: Ball
    family_size: int


def bmo_modulus(f: SymMatField, family: BallFamily) -> BMOResult:
    """Supremum of the L^1 mean oscillation over the recorded ball family."""
    return john_nirenberg_ratio(f, family, 1.0).bmo


@dataclass(frozen=True)
class JNEstimate:
    """Ratio bounding p-oscillation by the L^1 modulus (John-Nirenberg style)."""

    p: float
    cbar: float
    degenerate: bool
    bmo: BMOResult          # the L^1 modulus and its ball, from the same pass

    def to_dict(self) -> dict:
        return {"p": self.p, "cbar": self.cbar, "degenerate": self.degenerate}


# relative margin of an oscillation bound over the rounding of the value it bounds
_BOUND_MARGIN = 1e-9

# the screen of john_nirenberg_ratio reads every node of the field a few
# times, and pays off only when the family's node-ball pairs outnumber the
# nodes by this factor (2D bench families: 22 and 100; 3D 33^3: 1)
_SCREEN_PAIRS_PER_NODE = 4


def _oscillation_bounds(f: SymMatField, family: BallFamily, counts, exponents) -> np.ndarray:
    """Upper bounds of each ball's computed mean of |f - (f)_B|^q, one row per exponent q.

    ``family`` lies on the field's lattice and ``counts`` are its
    :func:`_valid_counts`.  Over the family's span the field is centred at
    its valid-node mean ``c`` (``g = f - c``, 0 off valid nodes), and
    :meth:`BallFamily.run_sums` of the running sums gives each ball's ``S_a
    = sum g_a`` and ``Q = sum w_a g_a^2`` over its ``n`` valid nodes, each
    within ``e = 4 k gamma sum|x|`` for a ball of ``k`` runs (``gamma =
    gamma_N`` for the field's ``N`` nodes).  With ``A = (Q + e_Q) / n``,
    ``B = sum w_a (max(|S_a| - e_a, 0) / n)^2``, ``M_a = max|g_a|`` and ``r =
    1e-9 + 4 gamma``,

        V = max(A - B, 0) + r A + sum w_a (3 gamma (|c_a| + M_a))^2

    bounds the mean of the squared deviations that :func:`_chunk_deviations`
    computes: ``A - B`` bounds the ball's variance of ``g``, ``r A`` the
    rounding of ``g``, ``A`` and ``B``, and the last term the rounding of the
    computed ball mean.  For q <= 2 the power-mean inequality gives
    ``V^(q/2)``.  For q > 2 it is ``D^(q-2) V``, where ``D^2``, the smaller
    of ``n V`` and the component ranges' ``sum w_a (2 M_a + 3 gamma (|c_a| +
    M_a))^2``, times ``1 + r``, bounds every computed deviation.  Each bound
    takes a factor ``(1 + r)^2`` for the rounding of the computed mean and
    of the bound.  A NaN or infinite value in the field, or overflow, gives
    a NaN or infinite bound.
    """
    w = symmat.duplication_weights(f.dim)
    m, span = len(w), family.span
    gamma = f.valid.size * 2.0**-53 / (1.0 - f.valid.size * 2.0**-53)
    r = _BOUND_MARGIN + 4.0 * gamma
    runs = np.empty(len(family))
    for members, _, _, (starts, _) in family.groups:
        runs[members] = starts.size
    n = counts.astype(float)
    # running sums over the span of g by component, then of Q's summands
    prefix = np.zeros((m + 1, span.stop - span.start + 1))
    g, valid = prefix[:m, 1:], f.valid.reshape(-1)[span]
    with np.errstate(over="ignore", invalid="ignore"):
        np.copyto(g, f.values.reshape(-1, m)[span].T)
        np.copyto(g, 0.0, where=~valid)
        c = g.sum(axis=1) / np.count_nonzero(valid)
        g -= c[:, None]
        np.copyto(g, 0.0, where=~valid)
        np.einsum("an,an,a->n", g, g, w, out=prefix[m, 1:])
        total, top, mag = np.empty(m + 1), np.empty(m), np.empty(g.shape[1])
        for a in range(m):
            np.abs(g[a], out=mag)
            total[a], top[a] = mag.sum(), mag.max()
        total[m] = prefix[m, 1:].sum()
        del mag
        np.cumsum(prefix[:, 1:], axis=1, out=prefix[:, 1:])
        sums = family.run_sums(prefix)
        err = 4.0 * gamma * total[:, None] * runs
        mean_err = 3.0 * gamma * (np.abs(c) + top)
        A = (sums[m] + err[m]) / n
        S = np.maximum(np.abs(sums[:m]) - err[:m], 0.0) / n
        V = np.maximum(A - w @ np.square(S), 0.0) + r * A + w @ np.square(mean_err)
        D2 = np.minimum(n * V, w @ np.square(2.0 * top + mean_err)) * (1.0 + r)
        bounds = [V ** (q / 2.0) if q <= 2.0 else D2 ** (q / 2.0 - 1.0) * V
                  for q in exponents]
        return np.array(bounds) * (1.0 + r) ** 2


def john_nirenberg_ratio(f: SymMatField, family: BallFamily, p: float) -> JNEstimate:
    """Max over the family of osc_p / omega; degenerate when omega = 0.

    omega is the BMO modulus, attained at the first ball of largest L^1
    oscillation, the one ball the result names; cbar is the largest ratio.
    A NaN wins neither maximum (cbar is NaN only when every ratio is).

    Both are maxima, so most balls need only a proof that they cannot win.
    When the family's node-ball pairs are at least ``_SCREEN_PAIRS_PER_NODE``
    times the field's nodes, :func:`_oscillation_bounds` gives each ball
    upper bounds ``U_1`` and ``U_p`` of its oscillations.  The ball of
    largest ``U_1`` is evaluated first; then every ball whose ``U_1`` is not
    below its value, which yields omega and its ball; then every other ball
    whose ``U_p / omega`` is not below the cbar so far.  A NaN bound keeps
    its ball.  Smaller families evaluate every ball.  The evaluated balls go
    through :func:`_ball_means` on one component-major copy and one count
    pass, and a ball's values do not depend on the others, so the result
    equals that of evaluating every ball.
    """
    _check_exponent(p)
    if not len(family):
        raise EmptyRegionError("ball family is empty")
    family = family.on(f)
    counts = _valid_counts(f, family)
    pairs = sum(len(members) * offsets.size for members, _, offsets, _ in family.groups)
    screen = pairs >= _SCREEN_PAIRS_PER_NODE * f.valid.size
    if screen:
        bound = _oscillation_bounds(f, family, counts, (1.0, p))
    vals = _component_major(f)
    osc = np.full((2, len(family)), np.nan)     # L^1 and L^p; NaN until evaluated
    todo = np.ones(len(family), dtype=bool)

    def evaluate(which, rows=slice(None)):
        """Evaluate the balls of ``which`` not yet evaluated, for the exponents ``(1, p)[rows]``."""
        which = which & todo
        if which.any():
            osc[rows, which] = _ball_means(f, family.select(which), (1.0, p)[rows],
                                           vals=vals, counts=counts[which])[0]
            todo[which] = False

    if screen:
        top = _first_max(bound[0])
        evaluate(np.arange(len(family)) == top)
        evaluate(~(bound[0] < osc[0, top]))     # a NaN value keeps every ball
    else:
        osc[:] = _ball_means(f, family, (1.0, p), vals=vals, counts=counts)[0]
    k = _first_max(osc[0])
    omega, ball = (float(osc[0, k]), family.ball(k)) if osc[0, k] >= 0.0 else (-1.0, None)
    bmo = BMOResult(omega=omega, ball=ball, family_size=len(family))
    if omega == 0.0:
        return JNEstimate(p=p, cbar=0.0, degenerate=True, bmo=bmo)
    cbar = _nan_max(osc[1] / omega)
    if screen:
        evaluate(~(bound[1] / omega < cbar), slice(1, 2))
        cbar = _nan_max(osc[1] / omega)
    return JNEstimate(p=p, cbar=cbar, degenerate=False, bmo=bmo)


def _first_max(values: np.ndarray) -> int:
    """Index of the first largest value that is not NaN (0 when every value is NaN)."""
    return int(np.argmax(np.where(np.isnan(values), -np.inf, values)))


def _nan_max(values: np.ndarray) -> float:
    """The largest value that is not NaN; NaN when every value is."""
    values = values[~np.isnan(values)]
    return float(values.max()) if values.size else np.nan


# -------------------------------------------------------------- decay fits

@dataclass(frozen=True)
class OscillationCurve:
    center: tuple
    radii: tuple            # strictly decreasing
    values: tuple           # normalized oscillation per radius
    integrals: tuple        # un-normalized integral per radius
    p: float


@dataclass(frozen=True)
class DecayFit:
    """Log-log least-squares fit of the un-normalized oscillation integral."""

    slope: float
    log_constant: float
    residual: float
    degenerate: bool
    n_radii: int


def _nested_radii(radii) -> list:
    """``radii`` as floats, largest first: at least 3, no two equal."""
    radii = sorted((float(r) for r in radii), reverse=True)
    if len(radii) < 3:
        raise DiagnosticsError("nested-ball fits need at least 3 radii")
    if len(set(radii)) != len(radii):
        raise DiagnosticsError("radii must be strictly decreasing")
    return radii


def campanato_decay(f: SymMatField, center, radii, p: float = 2.0):
    """Oscillation curve over nested balls and its power-law fit.

    Returns ``(OscillationCurve, DecayFit)``.  The fitted slope refers to the
    un-normalized integral over B_rho against rho, so a field with linear
    variation fits n + p and solutions of the constant-coefficient comparison
    problem decay at least that fast.
    """
    radii = _nested_radii(radii)
    _check_exponent(p)
    center = tuple(float(c) for c in center)
    means, counts = _ball_means(f, grids.ball_groups(f, [center] * len(radii), radii), (p,))
    values = means[0].tolist()
    integrals = [osc * f.h**f.dim * k for osc, k in zip(values, counts.tolist())]
    curve = OscillationCurve(center=center, radii=tuple(radii),
                             values=tuple(values), integrals=tuple(integrals), p=p)
    floor = 1e-280
    if min(integrals) <= floor:
        fit = DecayFit(slope=0.0, log_constant=0.0, residual=0.0,
                       degenerate=True, n_radii=len(radii))
        return curve, fit
    x = np.log(np.asarray(radii))
    y = np.log(np.asarray(integrals))
    A = np.stack([x, np.ones_like(x)], axis=1)
    coef, res, _, _ = np.linalg.lstsq(A, y, rcond=None)
    resid = float(np.sqrt(res[0] / len(x))) if res.size else 0.0
    fit = DecayFit(slope=float(coef[0]), log_constant=float(coef[1]),
                   residual=resid, degenerate=False, n_radii=len(radii))
    return curve, fit


# ---------------------------------------------------------- reverse Hoelder

@dataclass(frozen=True)
class ReverseHolderResult:
    pbar: float
    centers: tuple
    scales: tuple
    constants: tuple        # (center, scale) -> constant, NaN when degenerate
    degenerate: tuple


def reverse_holder_check(f: SymMatField, centers, scales) -> ReverseHolderResult:
    """Doubling constants (mean |f|^2 on B_s)^{1/2} / (mean |f|^pbar on B_2s)^{1/pbar}.

    ``pbar = 2n/(n+2)`` is the exponent whose Sobolev dual is 2.  Each outer
    ball B_{2s} must fit the field's valid region.
    """
    n = f.dim
    pbar = sobolev_dual_exponent(n)
    centers = [tuple(float(v) for v in c) for c in centers]
    scales = [float(s) for s in scales]
    fits = balls_fit(f, centers, [2.0 * s for s in scales])
    if not fits.all():
        i, k = np.argwhere(~fits)[0]
        raise GridError(
            f"doubled ball B_{2 * scales[k]:g}({centers[i]}) leaves the valid region"
        )
    inner = len(centers) * len(scales)
    radii = [s for _ in centers for s in scales]
    doubled = grids.ball_groups(f, [c for c in centers for _ in scales] * 2,
                                radii + [2.0 * s for s in radii])
    (sq, pw), _ = _ball_means(f, doubled, (2.0, pbar), False)
    ratios = []
    for num, den in zip(sq[:inner].tolist(), pw[inner:].tolist()):
        den = den ** (1.0 / pbar)
        ratios.append((np.nan, True) if den == 0.0 else (num**0.5 / den, False))
    rows = [ratios[i * len(scales):(i + 1) * len(scales)] for i in range(len(centers))]
    constants = tuple(tuple(v for v, _ in row) for row in rows)
    degenerate = tuple(tuple(d for _, d in row) for row in rows)
    return ReverseHolderResult(pbar=pbar, centers=tuple(centers),
                               scales=tuple(scales), constants=constants,
                               degenerate=degenerate)


# ------------------------------------------------------- higher integrability

DEFAULT_P_SCAN = tuple(np.round(np.arange(2.1, 4.01, 0.1), 10))


@dataclass(frozen=True)
class P0Estimate:
    p0: float | None
    scan: tuple
    required_constants: tuple   # K needed per scan exponent (NaN: impossible)
    K_max: float

    @property
    def certified(self) -> bool:
        return self.p0 is not None

    @property
    def verdict(self) -> str:
        return (f"certified p0 = {self.p0:g}" if self.certified
                else "no exponent certified")


def fit_p0(f: SymMatField, center, radii, K_max: float = 10.0,
           scan=DEFAULT_P_SCAN) -> P0Estimate:
    """Largest scanned p with (mean |f|^p on B_rho)^{1/p} <= K (mean |f|^2 on B_r)^{1/2}.

    The inequality must hold with a single K <= K_max across every nested
    pair rho < r drawn from ``radii``.
    """
    radii = _nested_radii(radii)
    center = tuple(float(c) for c in center)
    means, _ = _ball_means(f, grids.ball_groups(f, [center] * len(radii), radii),
                           (2.0,) + tuple(scan), centred=False)
    means = means.tolist()
    rhs = [m**0.5 for m in means[0]]
    required = []
    for p, row in zip(scan, means[1:]):
        lhs = [m ** (1.0 / p) for m in row]
        worst = 0.0
        for jr, r in enumerate(radii):
            for jp in range(jr + 1, len(radii)):
                num = lhs[jp]        # smaller ball, higher exponent
                den = rhs[jr]        # larger ball, L^2
                if den == 0.0:
                    if num > 0.0:
                        worst = np.inf
                    continue
                worst = max(worst, num / den)
        required.append(worst)
    certified = [p for p, K in zip(scan, required) if K <= K_max]
    p0 = max(certified) if certified else None
    return P0Estimate(p0=p0, scan=tuple(scan),
                      required_constants=tuple(required), K_max=K_max)


# ------------------------------------------------------------- singular set

@dataclass(frozen=True)
class SingularMask:
    mask: np.ndarray         # bool; True = flagged singular
    computable: np.ndarray   # bool; where the two smallest balls lie on valid nodes
    p0: float
    radii: tuple
    tau: float


def _computable(f: SymMatField, offs) -> np.ndarray:
    """Mask of the nodes whose every ball offset in ``offs`` lands on a valid node.

    Such nodes lie in the inner box ``[reach, N - reach)`` of each axis
    (``reach`` the largest offset along it), which is empty on an axis with
    fewer than ``2 reach + 1`` nodes.
    """
    reach = np.abs(np.array(offs)).max(axis=0)
    inner = tuple(max(0, s - 2 * r) for s, r in zip(f.extents, reach))
    ok = np.ones(inner, dtype=bool)
    for off in offs:
        ok &= f.valid[tuple(slice(r + o, r + o + k) for r, o, k in zip(reach, off, inner))]
    computable = np.zeros(f.extents, dtype=bool)
    computable[tuple(slice(r, r + k) for r, k in zip(reach, inner))] = ok
    return computable


def _density(f: SymMatField, vals, radius: float, p0: float, nodes):
    """r^{-n} integral of |f - (f)_{B_r}|^{p0} about each flat node index in ``nodes``.

    ``vals`` is the field's :func:`_component_major` copy, and every node
    must be computable (see :func:`_computable`) for the offsets of
    :func:`hessvar.grids.node_ball_offsets`, so its ball has no holes.  The
    nodes go through :func:`_chunk_deviations` in chunks of about
    ``BALL_CHUNK`` node-ball pairs, and each node's mean and sum over its
    ball are numpy's pairwise sums, so a node's density does not depend on
    the other nodes or on the chunking.
    """
    offs = node_ball_offsets(radius, f.h, f.dim)
    strides = [int(np.prod(f.extents[d + 1:])) for d in range(f.dim)]
    offsets = np.array(offs) @ strides
    w = symmat.duplication_weights(f.dim)
    vals, acc = vals.reshape(len(w), -1), np.empty(len(nodes))
    step = max(1, grids.BALL_CHUNK // len(offs))
    for i in range(0, len(nodes), step):
        dev = _chunk_deviations(vals, w, nodes[i:i + step, None] + offsets, len(offs))
        acc[i:i + step] = np.add.reduce(dev**p0, axis=1)
    return f.h**f.dim * acc / radius**f.dim


def _window_extreme(a: np.ndarray, width: int, op) -> np.ndarray:
    """``op`` (np.maximum or np.minimum) over every box of ``width`` nodes per axis in ``a``.

    Entry ``x`` of the result belongs to the box whose first corner is
    ``x``, so the result is ``width - 1`` shorter on each axis.  Windows
    double along each axis, so an axis takes about ``log2(width)`` passes.
    """
    for axis in range(a.ndim):
        done = 1
        while done < width:
            step = min(done, width - done)
            keep = a.shape[axis] - step
            head = (slice(None),) * axis + (slice(0, keep),)
            tail = (slice(None),) * axis + (slice(step, step + keep),)
            a = op(a[head], a[tail])
            done += step
    return a


def _may_exceed(f: SymMatField, vals, radius: float, p0: float, tau: float) -> np.ndarray:
    """Mask of the nodes whose ``radius`` density is not shown to be at most ``tau``.

    The density of a node whose ball lies on valid nodes is at most
    ``h^n r^-n |B_r| D^p0``, with ``D = sqrt(sum_a w_a s_a^2)`` and ``s_a``
    the spread ``max_a - min_a`` of component ``a`` over the node's box of the
    ball's reach (which holds the ball), widened by ``|B_r| 2^-52 max|f_a|``
    for the rounding of the computed ball mean: every computed ``|f - (f)_B|``
    on the ball is at most ``D``.  A node is dropped when ``bound (1 +
    1e-9) <= tau``; the margin covers the relative rounding of the bound and
    of the density.  A NaN or infinite bound keeps the node.  The bound is
    built from ``vals``, the :func:`_component_major` copy, one component
    and one slab of about ``BALL_CHUNK`` nodes along the first axis at a
    time.
    """
    offs = np.array(node_ball_offsets(radius, f.h, f.dim))
    reach, k = int(np.abs(offs).max()), len(offs)
    width = 2 * reach + 1
    keep = np.zeros(f.extents, dtype=bool)
    if min(f.extents) < width:
        return keep
    scale = f.h**f.dim * k / radius**f.dim * (1.0 + _BOUND_MARGIN)
    rows = max(1, grids.BALL_CHUNK // int(np.prod(f.extents[1:])))
    inner = (slice(reach, -reach),) * (f.dim - 1)
    for first in range(0, f.extents[0] - 2 * reach, rows):
        slab = vals[:, first:first + rows + 2 * reach]
        spread2 = 0.0
        for a, wa in enumerate(symmat.duplication_weights(f.dim)):
            hi = _window_extreme(slab[a], width, np.maximum)
            lo = _window_extreme(slab[a], width, np.minimum)
            spread = hi - lo
            np.maximum(hi, np.negative(lo, out=lo), out=hi)      # max |f_a| on the box
            hi *= k * 2.0**-52
            spread += hi
            np.square(spread, out=spread)
            spread *= wa
            spread2 = spread2 + spread
        with np.errstate(over="ignore", invalid="ignore"):
            bound = np.sqrt(spread2, out=spread2) ** p0
            bound *= scale
        at = slice(first + reach, first + reach + len(bound))
        keep[(at,) + inner] = ~(bound <= tau)
    return keep


def singular_set(f: SymMatField, p0: float, radii, tau: float) -> SingularMask:
    """Flag nodes whose small-radius oscillation density stays above tau.

    A node is flagged when the minimum over the two smallest radii of
    ``r^{-n} integral_{B_r} |f - (f)_{B_r}|^{p0}`` exceeds ``tau`` (the
    discrete stand-in for a liminf as r -> 0).  The threshold is explicit;
    there is no default.

    Both densities come from :func:`_density`.  The computable nodes are
    those whose larger ball lies on valid nodes, which holds the smaller
    ball too.  First an upper bound of the smaller-radius density
    (:func:`_may_exceed`) drops the computable nodes it shows to be at most
    ``tau``.  The rest are screened radius by radius, smaller first, since
    ``min(d1, d2) > tau`` holds exactly when both densities exceed ``tau``
    (a NaN exceeds nothing): the larger radius is evaluated only at the
    candidates, the nodes whose smaller-radius density exceeds ``tau``.
    Each step drops only nodes that cannot be flagged, so the mask is that
    of evaluating both densities everywhere.
    """
    _check_exponent(p0)
    radii = sorted((float(r) for r in radii), reverse=True)
    if len(radii) < 2:
        raise DiagnosticsError("singular-set detection needs >= 2 radii")
    if radii[-1] < 3.0 * f.h:
        raise DiagnosticsError(
            f"smallest radius {radii[-1]:g} is under 3h = {3 * f.h:g}"
        )
    large, small = radii[-2:]
    computable = _computable(f, node_ball_offsets(large, f.h, f.dim))
    vals = _component_major(f)
    cand = np.flatnonzero(computable & _may_exceed(f, vals, small, p0, tau))
    for radius in (small, large):
        cand = cand[_density(f, vals, radius, p0, cand) > tau]
    mask = np.zeros(f.extents, dtype=bool)
    mask.reshape(-1)[cand] = True
    return SingularMask(mask=mask, computable=computable, p0=p0,
                        radii=tuple(radii), tau=tau)


def box_counting_dimension(mask: np.ndarray):
    """Upper box-counting dimension of a node mask, resolution limited.

    Counts occupied b-node boxes for the dyadic b = 2 to 32 up to a quarter
    of the shortest axis (1 and 2 when fewer than two fit) and fits the
    log-log slope.  Returns ``(dimension, sizes, counts)``; an empty mask
    gives dimension 0.
    """
    mask = np.asarray(mask, dtype=bool)
    if not mask.any():
        return 0.0, (), ()
    top = max(2, min(mask.shape) // 4)
    sizes = [b for b in (2, 4, 8, 16, 32) if b <= top]
    if len(sizes) < 2:
        sizes = [1, 2]
    counts = []
    for b in sizes:
        padded_shape = tuple(-(-s // b) * b for s in mask.shape)
        padded = np.zeros(padded_shape, dtype=bool)
        padded[tuple(slice(0, s) for s in mask.shape)] = mask
        view = padded
        for axis in range(mask.ndim):
            shape = view.shape
            view = view.reshape(
                shape[:axis] + (shape[axis] // b, b) + shape[axis + 1:]
            ).any(axis=axis + 1)
        counts.append(int(view.sum()))
    x = np.log(1.0 / np.asarray(sizes, dtype=float))
    y = np.log(np.maximum(counts, 1))
    slope = float(np.polyfit(x, y, 1)[0])
    return slope, tuple(sizes), tuple(counts)


# ------------------------------------------------------------ Hoelder norms

@dataclass(frozen=True)
class HolderEstimate:
    alpha: float
    value: float
    pair: tuple              # ((x), (y)) attaining coordinates
    pairs_used: int
    seed: int


def holder_seminorm(f: SymMatField, alpha: float, pair_budget: int = 2000,
                    seed: int = 0) -> HolderEstimate:
    """Max of |f(x) - f(y)| / |x - y|^alpha over sampled node pairs.

    Pairs come from a deterministic coarse sub-lattice (all pairs) topped up
    with seeded random draws, restricted to the concentric sub-box with 0.75
    of the side of the valid region's bounding box.  The seed is recorded so
    reruns are reproducible.
    """
    if not (0.0 < alpha < 1.0):
        raise DiagnosticsError(f"alpha must lie in (0, 1), got {alpha}")
    nodes = inner_box_nodes(f.valid, 0.75)
    if len(nodes) < 2:
        raise EmptyRegionError("need at least two nodes for a Hoelder estimate")
    # coarse exhaustive sub-lattice: k nodes give k(k-1)/2 pairs
    k_target = max(2, int(np.sqrt(pair_budget)))
    stride = max(1, len(nodes) // k_target)
    coarse = np.stack(np.triu_indices(len(nodes[::stride]), 1), axis=1) * stride
    draws = []
    rng = np.random.default_rng(seed)
    while len(coarse) + len(draws) < pair_budget:
        i, j = rng.integers(0, len(nodes), size=2).tolist()
        if i != j:
            draws.append((i, j))
    pairs = np.concatenate([coarse, np.array(draws, dtype=np.intp).reshape(-1, 2)])
    a, b = nodes[pairs[:, 0]], nodes[pairs[:, 1]]
    diff = f.values[tuple(a.T)] - f.values[tuple(b.T)]
    dist = f.h * np.sqrt(((a - b) ** 2).sum(axis=1))
    # scalar pow per distance: numpy's vectorized pow can differ from it in
    # the last bit, and the ratios keep the bits of a per-pair evaluation
    scale = np.array([d**alpha for d in dist.tolist()])
    vals = symmat.hs_norm_packed(diff) / scale
    # the first pair attaining the largest positive ratio (NaN never counts)
    vals = np.where(vals > 0.0, vals, 0.0)
    k = int(np.argmax(vals))
    best, best_pair = float(vals[k]), None
    if best > 0.0:
        best_pair = tuple(tuple(f.origin[d] + f.h * x[d] for d in range(f.dim))
                          for x in (a[k], b[k]))
    return HolderEstimate(alpha=alpha, value=best, pair=best_pair,
                          pairs_used=len(pairs), seed=seed)


# --------------------------------------------------------- iteration lemma

@dataclass(frozen=True)
class IterationLemmaResult:
    """Outcome of checking the power-decay iteration hypothesis on samples.

    The hypothesis phi(tau) <= A [ (tau/r)^kappa + eps ] phi(r) + B r^beta is
    tested on all sampled pairs with tau <= theta r; ``epsilon`` is the
    smallest admissible slack, compared against epsilon_0 = theta^kappa (the
    slack the absorption proof tolerates), and ``c`` is the smallest constant
    making the power-decay conclusion hold on the same pairs.
    """

    theta: float
    epsilon: float
    epsilon0: float
    c: float
    passes: bool
    pair_count: int
    message: str = ""


def iteration_lemma_check(radii, phi, A: float, kappa: float, gamma: float,
                          B: float = 0.0, beta: float = 0.0) -> IterationLemmaResult:
    """Verify the scale-iteration hypothesis and extract (epsilon, c).

    ``radii``/``phi`` sample a nonnegative nondecreasing function of the
    radius.  Requires kappa > gamma > beta >= 0.  For beta = 0 the explicit
    pair-scale cutoff theta = (2A)^(-2/kappa) is used, otherwise
    theta = (2A)^(-1/(kappa - gamma)).
    """
    radii = np.asarray([float(r) for r in radii])
    phi = np.asarray([float(v) for v in phi])
    if radii.ndim != 1 or radii.shape != phi.shape or len(radii) < 2:
        raise DiagnosticsError("need matching 1-d radius and value samples")
    order = np.argsort(radii)
    radii, phi = radii[order], phi[order]
    if np.any(np.diff(phi) < -1e-12 * max(1.0, np.abs(phi).max())):
        raise DiagnosticsError("samples are not nondecreasing in the radius")
    if not (kappa > gamma > beta >= 0.0):
        raise DiagnosticsError(
            f"need kappa > gamma > beta >= 0, got ({kappa}, {gamma}, {beta})"
        )
    if A <= 0.0:
        raise DiagnosticsError("A must be positive")
    if beta == 0.0:
        theta = (2.0 * A) ** (-2.0 / kappa)
    else:
        theta = (2.0 * A) ** (-1.0 / (kappa - gamma))
    eps_needed = 0.0
    c_needed = 0.0
    pair_count = 0
    for i, tau in enumerate(radii):
        for j in range(i + 1, len(radii)):
            r = radii[j]
            if tau > theta * r * (1.0 + 1e-12):
                continue
            pair_count += 1
            ratio = tau / r
            if phi[j] > 0.0:
                eps_pair = (phi[i] - B * r**beta) / (A * phi[j]) - ratio**kappa
                eps_needed = max(eps_needed, eps_pair)
            elif phi[i] - B * r**beta > 0.0:
                eps_needed = np.inf
            denom = ratio**gamma * phi[j] + B * tau**beta
            if denom > 0.0:
                c_needed = max(c_needed, phi[i] / denom)
            elif phi[i] > 0.0:
                c_needed = np.inf
    epsilon0 = theta**kappa
    if pair_count == 0:
        return IterationLemmaResult(
            theta=theta, epsilon=np.nan, epsilon0=epsilon0, c=np.nan,
            passes=False, pair_count=0,
            message="no sampled pair satisfies tau <= theta r",
        )
    passes = eps_needed < epsilon0 and np.isfinite(c_needed)
    message = "" if passes else (
        f"required slack {eps_needed:g} >= admissible {epsilon0:g}"
        if np.isfinite(eps_needed) else "hypothesis fails at a zero sample"
    )
    return IterationLemmaResult(theta=theta, epsilon=float(eps_needed),
                                epsilon0=epsilon0, c=float(c_needed),
                                passes=bool(passes), pair_count=pair_count,
                                message=message)
