"""Geometry of gradient graphs: induced metric, Lagrangian phase, residuals.

The graph ``x -> (x, Du(x))`` of a potential u carries the induced metric
``g = I + (D^2 u)^2``.  Its volume integrand is the area energy
``sqrt(det g)`` (shared with :mod:`hessvar.models`), the Lagrangian phase is
``Theta = sum_i arctan(lambda_i)`` over the Hessian eigenvalues, and critical
points of the volume under compactly supported variations satisfy the weak
fourth-order equation

    sum_x sqrt(det g) g^{ij} delta^{kl} u_{ik} eta_{jl} = 0,

which this module evaluates both as a double-divergence residual and through
the area-model energy gradient (the two agree identically).  The geometric
counterpart, vanishing of the Laplace-Beltrami operator applied to the
phase, is measured by a conservative flux discretization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import models, symmat
from .grids import (
    GridError,
    ScalarGrid,
    SymMatField,
    TestFunctionSet,
    inner_box_nodes,
    shifted,
)
from .solver import dd_weak_residual


class PhaseError(RuntimeError):
    """Phase or metric construction failed an invariant."""


# ------------------------------------------------------------------ metric

@dataclass(frozen=True)
class MetricField:
    """Per-node induced metric, its inverse, and volume density."""

    h: float
    origin: np.ndarray
    g: np.ndarray            # packed (..., m)
    g_inv: np.ndarray        # packed (..., m)
    sqrt_det: np.ndarray     # (...)
    valid: np.ndarray

    @property
    def dim(self) -> int:
        return symmat.dim_from_packed(self.g.shape[-1])


def induced_metric(field: SymMatField) -> MetricField:
    """g = I + M^2 node-wise, with adjugate inverse and closed-form density.

    The metric is symmetric positive definite with g >= I structurally; the
    inverse identity ``g g^{-1} = I`` is verified to 1e-12 on valid nodes.
    """
    n = field.dim
    g, ginv, sd = models.graph_metric(field.matrices())
    ok = field.valid
    if ok.any():
        resid = np.abs((g @ ginv)[ok] - np.eye(n)).max()
        if resid > 1e-12:
            raise PhaseError(f"metric inverse off by {resid:g}")
        if sd[ok].min() < 1.0 - 1e-12:
            raise PhaseError("volume density fell below 1")
        lam_min = symmat.sym_eigvals(g[ok])[..., 0].min()
        if lam_min < 1.0 - 1e-10:
            raise PhaseError(f"metric lost g >= I (min eigenvalue {lam_min:g})")
    return MetricField(h=field.h, origin=np.array(field.origin),
                       g=symmat.pack(g), g_inv=symmat.pack(ginv),
                       sqrt_det=sd, valid=np.array(field.valid))


def volume_integrand(M: np.ndarray) -> np.ndarray:
    """sqrt(det(I + M^2)); delegates to the area energy model."""
    return models.eval_F(models.area_model(np.asarray(M).shape[-1]), M)


# ------------------------------------------------------------------- phase

@dataclass(frozen=True)
class PhaseField:
    """Lagrangian phase and the Hessian eigenvalues it is built from."""

    h: float
    origin: np.ndarray
    theta: np.ndarray            # (...)
    eigenvalues: np.ndarray      # (..., n), ascending
    valid: np.ndarray

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[-1]


def lagrangian_phase(field: SymMatField) -> PhaseField:
    """Theta = sum_i arctan(lambda_i) over the per-node Hessian eigenvalues.

    Eigenvalues come from :func:`hessvar.symmat.sym_eigvals`, closed forms
    with no iteration for n = 2 and n = 3, within a few ulps of the largest
    eigenvalue; |Theta| < n pi / 2 strictly for finite fields.
    """
    n = field.dim
    lam = np.zeros(field.extents + (n,))
    ok = field.valid
    if ok.any():
        lam[ok] = symmat.sym_eigvals(field.matrices()[ok])
    theta = np.arctan(lam).sum(axis=-1)
    theta[~ok] = np.nan
    if ok.any() and np.abs(theta[ok]).max() >= n * np.pi / 2:
        raise PhaseError("phase reached the n pi / 2 bound on finite data")
    return PhaseField(h=field.h, origin=np.array(field.origin), theta=theta,
                      eigenvalues=lam, valid=np.array(field.valid))


# ------------------------------------------------- variational residual

def hamstat_dd_model(n: int) -> models.DoubleDivergenceModel:
    """Coefficient a^{(ik),(jl)} = sqrt(det g) g^{ij} delta^{kl} of the
    volume functional's weak equation, as a double-divergence model."""
    eye = np.eye(n)

    def coeff(M):
        _, ginv, sd = models.graph_metric(M)
        return np.einsum("...,...ij,kl->...ikjl", sd, ginv, eye)

    return models.DoubleDivergenceModel(n=n, coeff=coeff, name="hamstat")


def hamstat_residual(u: ScalarGrid, tests: TestFunctionSet) -> np.ndarray:
    """Weak volume-criticality residual per test function.

    Identical (to round-off) to pairing the area-model energy gradient with
    the test functions: the coefficient contraction
    sqrt(det g) g^{ij} u_{ik} equals the area integrand's first derivative.
    """
    return dd_weak_residual(u, hamstat_dd_model(u.dim), tests)


# -------------------------------------------------------- Laplace-Beltrami

def _metric_coef(metric: MetricField) -> np.ndarray:
    """sqrt(det g) * g^{ij} per node, full matrix layout."""
    return metric.sqrt_det[..., None, None] * symmat.unpack(metric.g_inv, metric.dim)


def laplace_beltrami(scalar: np.ndarray, metric: MetricField):
    """Conservative flux discretization of (1/sqrt g) d_i(sqrt g g^{ij} d_j).

    Face coefficients are arithmetic averages of ``sqrt(det g) g^{ij}`` at
    the two adjacent nodes; normal first differences are exact at the face,
    tangential ones are averaged central differences.  Returns ``(values,
    valid)`` on the region shrunk by one ring.
    """
    phi = np.asarray(scalar, dtype=float)
    n = metric.dim
    if phi.shape != metric.valid.shape:
        raise GridError("scalar and metric live on different lattices")
    h = metric.h
    C = _metric_coef(metric)
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


@dataclass(frozen=True)
class ResidualSummary:
    sup: float
    l2: float
    nodes: int

    def to_dict(self) -> dict:
        return {"sup": self.sup, "l2": self.l2, "nodes": self.nodes}


def phase_harmonicity_residual(phase: PhaseField, metric: MetricField,
                               inner_fraction: float = 0.5) -> ResidualSummary:
    """Sup and L^2 norms of the Laplace-Beltrami operator applied to the phase.

    ``phase`` and ``metric`` come from the same Hessian field.  Evaluated on
    the concentric ``inner_fraction`` sub-box of the region where the
    discrete operator is defined, which keeps clamped-boundary layers of
    solver output out of the measurement.
    """
    vals, valid = laplace_beltrami(phase.theta, metric)
    nodes = inner_box_nodes(valid, inner_fraction)
    if len(nodes) == 0:
        raise GridError("inner region is empty")
    r = vals[tuple(nodes.T)]
    return ResidualSummary(
        sup=float(np.abs(r).max()),
        l2=float(np.sqrt(metric.h**metric.dim * (r**2).sum())),
        nodes=len(nodes),
    )


# ------------------------------------------------------- volume derivatives

@dataclass(frozen=True)
class VolumeDerivatives:
    """Closed-form derivatives of V(lam) = prod_i sqrt(1 + lam_i^2)."""

    V: np.ndarray            # (...)
    first: np.ndarray        # (..., n)      dV/dlam_i
    second: np.ndarray       # (..., n, n)   d2V/dlam_i dlam_j


def closed_form_dV(lam: np.ndarray) -> VolumeDerivatives:
    """Exact eigenvalue-space derivatives of the volume integrand.

    first_i = lam_i / (1 + lam_i^2) V;  second_ii = V / (1 + lam_i^2)^2;
    second_ij = V e_i e_j for i != j with e_i = lam_i / (1 + lam_i^2).
    """
    lam = np.asarray(lam, dtype=float)
    one = 1.0 + lam * lam
    V = np.sqrt(np.prod(one, axis=-1))
    e = lam / one
    first = e * V[..., None]
    second = V[..., None, None] * (e[..., :, None] * e[..., None, :])
    n = lam.shape[-1]
    for i in range(n):
        second[..., i, i] = V / one[..., i] ** 2
    return VolumeDerivatives(V=V, first=first, second=second)


def convexity_reference_bound(eta: float) -> float:
    """C(eta) = (1 - (1-eta)^2) / (1 + (1-eta)^2)^2, the per-eigendirection
    convexity lower bound at the admissible-ball edge."""
    lam = 1.0 - eta
    return (1.0 - lam * lam) / (1.0 + lam * lam) ** 2


@dataclass(frozen=True)
class ConvexityCertificate:
    """Sampled uniform-convexity evidence for the volume integrand.

    ``min_eig`` is the smallest sampled eigenvalue of the full matrix-space
    second-derivative form; ``diagonal_check`` reports whether the exact
    eigenvalue-space bound second_ii / V >= (1 - lam_i^2)/(1 + lam_i^2)^2
    >= C(eta) held at every diagonal sample.  Negative findings are recorded,
    never raised.
    """

    eta: float
    n: int
    sample_count: int
    seed: int
    min_eig: float
    C_eta: float
    diagonal_check: bool

    def to_dict(self) -> dict:
        return {
            "eta": self.eta,
            "n": self.n,
            "samples": self.sample_count,
            "seed": self.seed,
            "min_eig": self.min_eig,
            "C_eta": self.C_eta,
            "diagonal_check": "pass" if self.diagonal_check else "fail",
        }


def convexity_certificate(eta: float, n: int, sample_count: int,
                          seed: int = 0) -> ConvexityCertificate:
    """Sample the admissible ball and measure volume-integrand convexity.

    Eigenvalues are drawn uniformly from [-(1-eta), 1-eta] and frames Haar
    rotated; the full second-derivative form of the area model is
    eigen-decomposed per sample.  The diagonal-direction bound is checked
    exactly through :func:`closed_form_dV` on the drawn eigenvalues.
    """
    if not (0.0 < eta < 1.0):
        raise ValueError(f"eta must lie in (0, 1), got {eta}")
    if n not in (2, 3):
        raise ValueError(f"dimension must be 2 or 3, got {n}")
    if sample_count < 1:
        raise ValueError("sample_count must be >= 1")
    rng = np.random.default_rng(seed)
    radius = 1.0 - eta
    lam = rng.uniform(-radius, radius, size=(sample_count, n))
    Q = symmat.haar_rotations(rng, sample_count, n)
    M = np.einsum("bij,bj,bkj->bik", Q, lam, Q)
    area = models.area_model(n)
    min_eig = float(models.tensor_min_eig(models.eval_d2F(area, M)).min())

    dv = closed_form_dV(lam)
    pointwise = (1.0 - lam * lam) / (1.0 + lam * lam) ** 2
    ratios = np.einsum("...ii->...i", dv.second) / dv.V[..., None]
    C_eta = convexity_reference_bound(eta)
    tol = 1e-12
    diagonal_ok = bool(
        np.all(ratios >= pointwise - tol) and np.all(pointwise >= C_eta - tol)
    )
    return ConvexityCertificate(
        eta=eta, n=n, sample_count=sample_count, seed=seed,
        min_eig=min_eig, C_eta=C_eta, diagonal_check=diagonal_ok,
    )
