"""Geometry of gradient graphs: induced metric, Lagrangian phase, residuals.

The graph ``x -> (x, Du(x))`` of a potential u carries the induced metric
``g = I + (D^2 u)^2``.  Its volume integrand is the area energy
``sqrt(det g)`` (shared with :mod:`hessvar.models`), the Lagrangian phase is
``Theta = sum_i arctan(lambda_i)`` over the Hessian eigenvalues, and critical
points of the volume under compactly supported variations satisfy the weak
fourth-order equation

    sum_x sqrt(det g) g^{ij} delta^{kl} u_{ik} eta_{jl} = 0,

which this module evaluates by pairing sqrt(det g) g^{-1} D^2 u, the area
integrand's first derivative, with the tests' Hessians.  The geometric
counterpart, vanishing of the Laplace-Beltrami operator applied to the
phase, is measured by a conservative flux discretization.  Both read one
:class:`GraphGeometry` record, built once per Hessian field.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import models, symmat
from .grids import (
    GridError,
    SymMatField,
    TestFunctionSet,
    inner_box_nodes,
    offset_slices,
)
from .solver import _pair_with_tests


class PhaseError(RuntimeError):
    """Phase or metric construction failed an invariant."""


# ------------------------------------------------------- graph geometry

@dataclass(frozen=True)
class GraphGeometry:
    """The geometry of the gradient graph of one Hessian field.

    ``g`` and ``g_inv`` are the packed induced metric ``I + H^2`` and its
    inverse, ``sqrt_det`` the volume density, ``theta`` the Lagrangian phase
    (NaN off ``valid``) and ``eigenvalues`` the ascending Hessian eigenvalues
    it sums over (zero off ``valid``).
    """

    H: SymMatField
    g: np.ndarray            # packed (..., m)
    g_inv: np.ndarray        # packed (..., m)
    sqrt_det: np.ndarray     # (...)
    theta: np.ndarray        # (...)
    eigenvalues: np.ndarray  # (..., n)

    @property
    def h(self) -> float:
        return self.H.h

    @property
    def dim(self) -> int:
        return self.H.dim

    @property
    def valid(self) -> np.ndarray:
        return self.H.valid


def graph_geometry(H: SymMatField) -> GraphGeometry:
    """Metric, inverse, volume density and phase of the graph of Du.

    Theta = sum_i arctan(lambda_i) over the closed-form Hessian eigenvalues
    of :func:`hessvar.symmat.eigvals_packed`, |Theta| < n pi / 2 strictly
    for finite fields; g = I + H^2 with the adjugate inverse and the
    closed-form density of :func:`hessvar.models.graph_metric_packed`.  All
    are evaluated on the valid nodes only, from one component-major copy of
    the field, by node blocks (:func:`hessvar.symmat.blockwise`), and are NaN
    elsewhere.  On valid nodes ``g g^{-1} = I`` is verified to 1e-12,
    ``sqrt(det g) >= 1`` and g >= I.
    """
    n, ok = H.dim, H.valid
    c = np.stack([x[ok] for x in np.moveaxis(H.values, -1, 0)])
    lam = np.zeros(H.extents + (n,))
    lam[ok] = symmat.eigvals_packed(c)
    theta = np.arctan(lam).sum(axis=-1)
    theta[~ok] = np.nan
    g, ginv, sd = symmat.blockwise(models.graph_metric_packed, c)
    if ok.any():
        if np.abs(theta[ok]).max() >= n * np.pi / 2:
            raise PhaseError("phase reached the n pi / 2 bound on finite data")
        S = symmat.SLOTS[n]
        resid = max(np.abs(sum(g[S[i][k]] * ginv[S[k][j]] for k in range(n))
                           - float(i == j)).max() for i in range(n) for j in range(n))
        if resid > 1e-12:
            raise PhaseError(f"metric inverse off by {resid:g}")
        if sd.min() < 1.0 - 1e-12:
            raise PhaseError("volume density fell below 1")
        lam_min = symmat.eigvals_packed(g)[..., 0].min()
        if lam_min < 1.0 - 1e-10:
            raise PhaseError(f"metric lost g >= I (min eigenvalue {lam_min:g})")

    def on_grid(vals):   # valid-node values -> full grid, NaN elsewhere
        out = np.full(H.extents + vals.shape[1:], np.nan)
        out[ok] = vals
        return out

    return GraphGeometry(H=H, g=on_grid(g.T), g_inv=on_grid(ginv.T),
                         sqrt_det=on_grid(sd), theta=theta, eigenvalues=lam)


def volume_integrand(M: np.ndarray) -> np.ndarray:
    """sqrt(det(I + M^2)); delegates to the area energy model."""
    return models.eval_F(models.area_model(np.asarray(M).shape[-1]), M)


# ------------------------------------------------- variational residual

def hamstat_residual(geom: GraphGeometry, tests: TestFunctionSet) -> np.ndarray:
    """Weak volume-criticality residual per test function.

    Pairs sqrt(det g) g^{-1} D^2 u, the contraction of the coefficient
    sqrt(det g) g^{ij} delta^{kl} with D^2 u, with the tests' Hessians.
    Identical (to round-off) to pairing the area-model energy gradient with
    the tests: the same matrix is the area integrand's first derivative.
    """
    ok = geom.valid
    G = symmat.sym_product(geom.H.values[ok].T, geom.g_inv[ok].T)
    G *= geom.sqrt_det[ok]
    return _pair_with_tests(G, ok, geom.h, tests)


# -------------------------------------------------------- Laplace-Beltrami

def laplace_beltrami(scalar: np.ndarray, geom: GraphGeometry):
    """Conservative flux discretization of (1/sqrt g) d_i(sqrt g g^{ij} d_j).

    Face coefficients are arithmetic averages of ``sqrt(det g) g^{ij}`` at
    the two adjacent nodes, each axis's from one row of it; normal first
    differences are exact at the face, tangential ones are averaged central
    differences.  Returns ``(values, valid)`` on the region shrunk by one
    ring.  Neighbour values are views of the scalars padded by one ring of
    NaN (False for the mask).
    """
    phi = np.asarray(scalar, dtype=float)
    n = geom.dim
    if phi.shape != geom.valid.shape:
        raise GridError("scalar and metric live on different lattices")
    h = geom.h

    def at(pad, off):   # values at x + off, the padding off the grid
        return pad[tuple(slice(1 + o, 1 + o + s) for o, s in zip(off, phi.shape))]

    unit = np.eye(n, dtype=int)
    pphi = np.pad(phi, 1, constant_values=np.nan)
    div = np.zeros(phi.shape)
    for i, ei in enumerate(unit):
        # row i of sqrt(det g) g^{-1}, averaged onto the face between x and x + e_i
        row = geom.sqrt_det[..., None] * geom.g_inv[..., symmat.SLOTS[n][i]]
        face = np.full(phi.shape + (n,), np.nan)
        src, dst = offset_slices(ei, phi.shape)
        face[dst] = 0.5 * (row[dst] + row[src])
        flux = face[..., i] * (at(pphi, ei) - phi) / h
        for j, ej in enumerate(unit):
            if j != i:
                dj_here = (at(pphi, ej) - at(pphi, -ej)) / (2 * h)
                dj_there = (at(pphi, ei + ej) - at(pphi, ei - ej)) / (2 * h)
                flux += face[..., j] * 0.5 * (dj_here + dj_there)
        div += (flux - at(np.pad(flux, 1, constant_values=np.nan), -ei)) / h
    out = div / geom.sqrt_det
    pvalid = np.pad(geom.valid, 1)
    valid = np.logical_and.reduce([at(pvalid, d) for d in itertools.product((-1, 0, 1), repeat=n)])
    out[~valid] = np.nan
    return out, valid


@dataclass(frozen=True)
class ResidualSummary:
    sup: float
    l2: float
    nodes: int


def phase_harmonicity_residual(geom: GraphGeometry,
                               inner_fraction: float = 0.5) -> ResidualSummary:
    """Sup and L^2 norms of the Laplace-Beltrami operator applied to the phase.

    Evaluated on the concentric ``inner_fraction`` sub-box of the region
    where the discrete operator is defined, which keeps clamped-boundary
    layers of solver output out of the measurement.
    """
    vals, valid = laplace_beltrami(geom.theta, geom)
    nodes = inner_box_nodes(valid, inner_fraction)
    if len(nodes) == 0:
        raise GridError("inner region is empty")
    r = vals[tuple(nodes.T)]
    return ResidualSummary(
        sup=float(np.abs(r).max()),
        l2=float(np.sqrt(geom.h**geom.dim * (r**2).sum())),
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
    rotated; the packed second-derivative form of the area model is
    eigen-decomposed per sample (:func:`models.packed_min_eig`).  The
    diagonal-direction bound is checked exactly through
    :func:`closed_form_dV` on the drawn eigenvalues.
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
    min_eig = float(models.packed_min_eig(
        models._area_d2F_packed(symmat.components(M))).min())

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
