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
    ball_chunks,
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


def _chunk_deviations(vals, w, idx, count=None, valid=None):
    """|f - (f)_B| on a chunk of balls, one ball per row of ``idx``; |f| when ``count`` is None.

    ``vals`` holds the packed components by row, ``(m, nodes)`` and
    C-contiguous, and ``idx`` the node indices of each ball, (balls,
    nodes); ``w`` are the duplication weights, ``count`` the valid nodes per
    ball (a scalar or a column) and ``valid`` the valid entries of ``idx``
    (None when all are).  Each component is gathered as (balls, nodes), a
    ball's mean is numpy's pairwise sum of its row (of its valid entries
    alone, for a row with holes) over ``count``, and the norm adds the
    weighted squares in component storage order, as
    ``symmat.hs_norm_packed`` does.  A ball gets the same bits alone as in
    any chunk of :func:`_ball_means` or :func:`_density`.  Hole
    entries get a value too, which the caller drops.
    """
    holed = () if valid is None else np.flatnonzero(~valid.all(axis=1))
    dev, tmp = np.zeros(idx.shape), np.empty(idx.shape)
    for a in range(len(w)):
        x = vals[a].take(idx)
        if count is not None:
            mean = np.add.reduce(x, axis=1, keepdims=True)
            for b in holed:
                mean[b] = np.add.reduce(x[b][valid[b]])
            x -= mean / count
        np.multiply(w[a], x, out=tmp)
        tmp *= x
        dev += tmp
    return np.sqrt(dev, out=dev)


def _ball_means(f: SymMatField, balls, exponents, centred: bool = True):
    """Per exponent q, each ball's mean of |f - (f)_B|^q over its valid nodes.

    Returns ``(means, counts)``: ``means[i, k]`` belongs to ``exponents[i]``
    and ``balls[k]``, and ``counts[k]`` is the number of valid nodes of
    ``balls[k]``.  Uncentred, the means are of |f|^q.  Each chunk of
    :func:`ball_chunks` goes through :func:`_chunk_deviations` on one
    component-major copy of the field, and each sum is numpy's pairwise sum
    over a ball's row of valid nodes (a row with holes is compacted first),
    so a ball's values do not depend on the other balls or on the chunking.
    The first ball in ``balls`` order without a valid node raises
    :class:`EmptyRegionError`.
    """
    w = symmat.duplication_weights(f.dim)
    vals, valid = _component_major(f).reshape(len(w), -1), f.valid.reshape(-1)
    means, counts, empty = np.empty((len(exponents), len(balls))), np.empty(len(balls), int), []
    for members, nodes in ball_chunks(f, balls):
        ok = valid.take(nodes)
        count = ok.sum(axis=1)
        if not count.all():
            empty.append(members[count == 0][0])
            continue
        holed = np.flatnonzero(count < nodes.shape[1])
        dev = _chunk_deviations(vals, w, nodes, count[:, None] if centred else None,
                                ok if len(holed) else None)
        for i, q in enumerate(exponents):
            powered = dev if q == 1.0 else dev**q
            sums = np.add.reduce(powered, axis=1)
            for b in holed:
                sums[b] = powered[b][ok[b]].sum()
            means[i, members] = sums / count
        counts[members] = count
    if empty:
        raise EmptyRegionError(f"ball {balls[min(empty)]} contains no valid nodes")
    return means, counts


def mean_oscillation(f: SymMatField, ball: Ball, p: float = 1.0) -> float:
    """Normalized p-oscillation: mean over the ball of |f - (f)_B|^p."""
    _check_exponent(p)
    return float(_ball_means(f, [ball], (p,))[0][0, 0])


@dataclass(frozen=True)
class BMOResult:
    omega: float
    ball: Ball
    family_size: int

    def to_dict(self) -> dict:
        return {
            "omega": self.omega,
            "ball": {"center": list(self.ball.center), "radius": self.ball.radius},
            "family_size": self.family_size,
        }


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


def john_nirenberg_ratio(f: SymMatField, family: BallFamily, p: float) -> JNEstimate:
    """Max over the family of osc_p / omega; degenerate when omega = 0.

    omega is the BMO modulus, attained at the first ball of largest L^1
    oscillation.  One grouped pass yields both the L^1 and the L^p
    oscillation of every ball: the balls of one radius about family
    centres on the node lattice share one node pattern and are evaluated
    together, in chunks (see :func:`_ball_means`), with the same values as
    ball-by-ball evaluation.
    """
    _check_exponent(p)
    (osc1, oscp), _ = _ball_means(f, family.balls, (1.0, p))
    omega, omega_ball = -1.0, None
    for ball, osc in zip(family, osc1.tolist()):
        if osc > omega:
            omega, omega_ball = osc, ball
    bmo = BMOResult(omega=omega, ball=omega_ball, family_size=len(family))
    if omega == 0.0:
        return JNEstimate(p=p, cbar=0.0, degenerate=True, bmo=bmo)
    return JNEstimate(p=p, cbar=max(v / omega for v in oscp.tolist()),
                      degenerate=False, bmo=bmo)


# -------------------------------------------------------------- decay fits

@dataclass(frozen=True)
class OscillationCurve:
    center: tuple
    radii: tuple            # strictly decreasing
    values: tuple           # normalized oscillation per radius
    integrals: tuple        # un-normalized integral per radius
    p: float

    def to_dict(self) -> dict:
        return {
            "center": list(self.center),
            "radii": list(self.radii),
            "values": list(self.values),
            "integrals": list(self.integrals),
            "p": self.p,
        }


@dataclass(frozen=True)
class DecayFit:
    """Log-log least-squares fit of the un-normalized oscillation integral."""

    slope: float
    log_constant: float
    residual: float
    degenerate: bool
    n_radii: int

    def to_dict(self) -> dict:
        return {
            "slope": self.slope,
            "log_constant": self.log_constant,
            "residual": self.residual,
            "degenerate": self.degenerate,
            "n_radii": self.n_radii,
        }


def campanato_decay(f: SymMatField, center, radii, p: float = 2.0):
    """Oscillation curve over nested balls and its power-law fit.

    Returns ``(OscillationCurve, DecayFit)``.  The fitted slope refers to the
    un-normalized integral over B_rho against rho, so a field with linear
    variation fits n + p and solutions of the constant-coefficient comparison
    problem decay at least that fast.
    """
    radii = sorted((float(r) for r in radii), reverse=True)
    if len(radii) < 3:
        raise DiagnosticsError("decay fits need at least 3 radii")
    if len(set(radii)) != len(radii):
        raise DiagnosticsError("radii must be strictly decreasing")
    _check_exponent(p)
    center = tuple(float(c) for c in center)
    means, counts = _ball_means(f, [Ball(center=center, radius=r) for r in radii], (p,))
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

    def to_dict(self) -> dict:
        return {
            "pbar": self.pbar,
            "centers": [list(c) for c in self.centers],
            "scales": list(self.scales),
            "constants": [
                [None if not np.isfinite(v) else v for v in row]
                for row in self.constants
            ],
            "degenerate": [list(row) for row in self.degenerate],
        }


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
    pairs = [(c, s) for c in centers for s in scales]
    (inner,), _ = _ball_means(f, [Ball(center=c, radius=s) for c, s in pairs], (2.0,),
                              centred=False)
    (outer,), _ = _ball_means(f, [Ball(center=c, radius=2.0 * s) for c, s in pairs], (pbar,),
                              centred=False)
    ratios = []
    for num, den in zip(inner.tolist(), outer.tolist()):
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

    def to_dict(self) -> dict:
        return {
            "p0": self.p0,
            "scan": list(self.scan),
            "required_constants": [
                None if not np.isfinite(v) else v for v in self.required_constants
            ],
            "K_max": self.K_max,
        }


def fit_p0(f: SymMatField, center, radii, K_max: float = 10.0,
           scan=DEFAULT_P_SCAN) -> P0Estimate:
    """Largest scanned p with (mean |f|^p on B_rho)^{1/p} <= K (mean |f|^2 on B_r)^{1/2}.

    The inequality must hold with a single K <= K_max across every nested
    pair rho < r drawn from ``radii``.
    """
    radii = sorted((float(r) for r in radii), reverse=True)
    if len(radii) < 3:
        raise DiagnosticsError("higher-integrability scan needs >= 3 radii")
    center = tuple(float(c) for c in center)
    means, _ = _ball_means(f, [Ball(center=center, radius=r) for r in radii],
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

    def to_dict(self) -> dict:
        return {
            "p0": self.p0,
            "radii": list(self.radii),
            "tau": self.tau,
            "flagged": int(self.mask.sum()),
            "computable": int(self.computable.sum()),
        }


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


def singular_set(f: SymMatField, p0: float, radii, tau: float) -> SingularMask:
    """Flag nodes whose small-radius oscillation density stays above tau.

    A node is flagged when the minimum over the two smallest radii of
    ``r^{-n} integral_{B_r} |f - (f)_{B_r}|^{p0}`` exceeds ``tau`` (the
    discrete stand-in for a liminf as r -> 0).  The threshold is explicit;
    there is no default.

    Both densities come from :func:`_density`.  The computable nodes are
    those whose larger ball lies on valid nodes, which holds the smaller
    ball too.  They are screened radius by radius, smaller first, since
    ``min(d1, d2) > tau`` holds exactly when both densities exceed ``tau``
    (a NaN exceeds nothing): the larger radius is evaluated only at the
    candidates, the nodes whose smaller-radius density exceeds ``tau``.
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
    vals, cand = _component_major(f), np.flatnonzero(computable)
    for radius in (small, large):
        cand = cand[_density(f, vals, radius, p0, cand) > tau]
    mask = np.zeros(f.extents, dtype=bool)
    mask.reshape(-1)[cand] = True
    return SingularMask(mask=mask, computable=computable, p0=p0,
                        radii=tuple(radii), tau=tau)


def box_counting_dimension(mask: np.ndarray, sizes=None):
    """Upper box-counting dimension of a node mask, resolution limited.

    Counts occupied b-node boxes for dyadic b and fits the log-log slope.
    Returns ``(dimension, sizes, counts)``; an empty mask gives dimension 0.
    """
    mask = np.asarray(mask, dtype=bool)
    if not mask.any():
        return 0.0, (), ()
    if sizes is None:
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

    def to_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "seminorm": self.value,
            "pair": [list(self.pair[0]), list(self.pair[1])] if self.pair else None,
            "pairs_used": self.pairs_used,
            "seed": self.seed,
        }


def holder_seminorm(f: SymMatField, alpha: float, pair_budget: int = 2000,
                    seed: int = 0, region_fraction: float = 0.75) -> HolderEstimate:
    """Max of |f(x) - f(y)| / |x - y|^alpha over sampled node pairs.

    Pairs come from a deterministic coarse sub-lattice (all pairs) topped up
    with seeded random draws, restricted to the concentric
    ``region_fraction`` sub-box of the valid region.  The seed is recorded so
    reruns are reproducible.
    """
    if not (0.0 < alpha < 1.0):
        raise DiagnosticsError(f"alpha must lie in (0, 1), got {alpha}")
    nodes = inner_box_nodes(f.valid, region_fraction)
    if len(nodes) < 2:
        raise EmptyRegionError("need at least two nodes for a Hoelder estimate")
    # coarse exhaustive sub-lattice: k nodes give k(k-1)/2 pairs
    k_target = max(2, int(np.sqrt(pair_budget)))
    stride = max(1, len(nodes) // k_target)
    coarse = nodes[::stride]
    pairs = [(a, b) for i, a in enumerate(coarse) for b in coarse[i + 1:]]
    rng = np.random.default_rng(seed)
    while len(pairs) < pair_budget:
        i, j = rng.integers(0, len(nodes), size=2)
        if i == j:
            continue
        pairs.append((nodes[i], nodes[j]))
    ends = np.array(pairs)                  # (pairs, 2, n) node indices
    a, b = ends[:, 0], ends[:, 1]
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

    def to_dict(self) -> dict:
        return {
            "theta": self.theta,
            "epsilon": self.epsilon,
            "epsilon0": self.epsilon0,
            "c": self.c,
            "passes": self.passes,
            "pair_count": self.pair_count,
            "message": self.message,
        }


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
