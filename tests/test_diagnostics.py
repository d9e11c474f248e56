import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from hessvar import diagnostics as diag
from hessvar import grids, models, solver, symmat
from hessvar.grids import Ball, EmptyRegionError

import oracles


def matrix_field(grid_like, fn):
    """Field M(x) = fn(X...) with fn returning (..., m) packed values."""
    X = grid_like.coords()
    vals = np.asarray(fn(*X))
    return grids.SymMatField(h=grid_like.h, origin=grid_like.origin, values=vals)


def constant_field(g, C):
    packed = symmat.pack(np.asarray(C, dtype=float))
    vals = np.broadcast_to(packed, g.extents + packed.shape).copy()
    return grids.SymMatField(h=g.h, origin=g.origin, values=vals)


def linear_field(g, A):
    """M(x) = x_1 * A."""
    packed = symmat.pack(np.asarray(A, dtype=float))

    def fn(*X):
        return X[0][..., None] * packed

    return matrix_field(g, fn)


# ------------------------------------------------------------- oscillation

def test_mean_oscillation_constant_field_is_zero():
    g = grids.make_grid(2, 33, 1.0)
    f = constant_field(g, np.array([[3.0, 1.0], [1.0, -2.0]]))
    ball = Ball(center=(0.0, 0.0), radius=0.4)
    for p in (1.0, 2.0, 3.0):
        assert diag.mean_oscillation(f, ball, p) == 0.0


def test_mean_oscillation_linear_field_disk_oracle():
    # mean over a disk of |x_1| is 4 rho / (3 pi)
    g = grids.make_grid(2, 65, 1.0)  # h = 1/32
    A = np.array([[1.0, 0.5], [0.5, -1.0]])
    f = linear_field(g, A)
    rho = 0.375  # rho / h = 12
    got = diag.mean_oscillation(f, Ball(center=(0.0, 0.0), radius=rho), 1.0)
    want = float(symmat.hs_norm(A)) * rho * 4.0 / (3.0 * np.pi)
    assert got == pytest.approx(want, rel=0.03)


def test_mean_oscillation_two_valued_split():
    g = grids.make_grid(2, 65, 1.0)
    A = np.array([[2.0, 0.0], [0.0, 1.0]])
    packed = symmat.pack(A)

    def fn(x, y):
        return np.where((y > 0.49 * g.h)[..., None], packed, -packed)

    f = matrix_field(g, fn)
    got = diag.mean_oscillation(f, Ball(center=(0.0, 0.0), radius=0.375), 1.0)
    assert got == pytest.approx(float(symmat.hs_norm(A)), rel=0.05)


def test_mean_oscillation_power_mean_monotonicity():
    rng = np.random.default_rng(60)
    g = grids.make_grid(2, 33, 1.0)
    f = grids.SymMatField(h=g.h, origin=g.origin,
                          values=rng.standard_normal(g.extents + (3,)))
    ball = Ball(center=(0.0, 0.0), radius=0.5)
    vals = [diag.mean_oscillation(f, ball, p) ** (1.0 / p) for p in (1.0, 2.0, 3.0)]
    assert vals[0] <= vals[1] + 1e-12 <= vals[2] + 2e-12


# ------------------------------------------------------------------- BMO

def test_bmo_constant_field_zero():
    g = grids.make_grid(2, 33, 1.0)
    f = constant_field(g, np.eye(2))
    fam = grids.ball_family(g, center_stride=8, r_min=0.2, r_max=0.4)
    assert diag.bmo_modulus(f, fam).omega == 0.0


def test_bmo_linear_field_attained_at_largest_ball():
    g = grids.make_grid(2, 65, 1.0)
    f = linear_field(g, np.eye(2))
    fam = grids.ball_family(g, center_stride=0, r_min=0.1, r_max=0.8)
    res = diag.bmo_modulus(f, fam)
    assert res.ball.radius == pytest.approx(0.8)
    # linear-field oscillation is homogeneous of degree 1 in the radius
    per_ball = {b.radius: diag.mean_oscillation(f, b, 1.0) for b in oracles.family_balls(fam)}
    assert res.omega == pytest.approx(max(per_ball.values()))
    assert per_ball[0.8] / per_ball[0.4] == pytest.approx(2.0, rel=0.02)


def test_bmo_monotone_under_family_refinement():
    rng = np.random.default_rng(61)
    g = grids.make_grid(2, 49, 1.0)
    f = grids.SymMatField(h=g.h, origin=g.origin,
                          values=rng.standard_normal(g.extents + (3,)))
    big = grids.ball_family(g, center_stride=4, r_min=0.15, r_max=0.6)
    sub = big.select(np.arange(len(big)) % 3 == 0)
    assert diag.bmo_modulus(f, sub).omega <= diag.bmo_modulus(f, big).omega


def test_bmo_shift_invariance_and_scaling():
    rng = np.random.default_rng(62)
    g = grids.make_grid(2, 33, 1.0)
    f = grids.SymMatField(h=g.h, origin=g.origin,
                          values=rng.standard_normal(g.extents + (3,)))
    fam = grids.ball_family(g, center_stride=8, r_min=0.2, r_max=0.4)
    base = diag.bmo_modulus(f, fam).omega
    shifted_f = f.with_values(f.values + symmat.pack(np.array([[4.0, -1.0], [-1.0, 0.5]])))
    assert diag.bmo_modulus(shifted_f, fam).omega == pytest.approx(base, rel=1e-12)
    scaled = f.with_values(f.values * -2.5)
    assert diag.bmo_modulus(scaled, fam).omega == pytest.approx(2.5 * base, rel=1e-12)


# -------------------------------------------------------------------- JN

def test_jn_constant_field_degenerate():
    g = grids.make_grid(2, 33, 1.0)
    f = constant_field(g, np.eye(2))
    fam = grids.ball_family(g, center_stride=0, r_min=0.3, r_max=0.3)
    est = diag.john_nirenberg_ratio(f, fam, 2.0)
    assert est.degenerate and est.cbar == 0.0


def test_jn_p1_ratio_is_one():
    rng = np.random.default_rng(63)
    g = grids.make_grid(2, 33, 1.0)
    f = grids.SymMatField(h=g.h, origin=g.origin,
                          values=rng.standard_normal(g.extents + (3,)))
    fam = grids.ball_family(g, center_stride=8, r_min=0.2, r_max=0.4)
    est = diag.john_nirenberg_ratio(f, fam, 1.0)
    assert est.cbar == pytest.approx(1.0, rel=1e-12)


def test_jn_linear_field_stable_under_refinement():
    vals = {}
    for nodes in (33, 65):
        g = grids.make_grid(2, nodes, 1.0)
        f = linear_field(g, np.eye(2))
        fam = grids.ball_family(g, center_stride=(nodes - 1) // 4,
                                r_min=0.2, r_max=0.4)
        vals[nodes] = diag.john_nirenberg_ratio(f, fam, 2.0).cbar
    assert vals[65] == pytest.approx(vals[33], rel=0.10)


def test_only_the_ball_a_result_names_is_built(monkeypatch):
    g = grids.make_grid(2, 65, 1.0)
    f = jump_field(g, np.eye(2))
    made = []
    post_init = Ball.__post_init__

    def counting(self):
        post_init(self)
        made.append(self)

    monkeypatch.setattr(Ball, "__post_init__", counting)
    fam = grids.ball_family(f, 4, r_min=3 * g.h, r_max=0.25)
    assert made == [] and len(fam) > 100
    jn = diag.john_nirenberg_ratio(f, fam, 2.0)
    assert made == [jn.bmo.ball] and jn.bmo.ball is not None
    # the nested and doubled balls of the other reducers are arrays too
    radii = [0.4, 0.2, 0.1]
    diag.campanato_decay(f, (0.0, 0.0), radii)
    diag.fit_p0(f, (0.0, 0.0), radii)
    diag.reverse_holder_check(f, [(0.0, 0.0), (0.1, -0.1)], [0.2, 0.1])
    assert made == [jn.bmo.ball]


def _per_ball_jn(f, balls, p):
    """Oracle: ball-by-ball L^1/L^p oscillations and (omega, ball, cbar), on the full grid.

    A NaN wins neither maximum, and omega = 0 gives cbar = 0.
    """
    osc1, oscp = [], []
    omega, omega_ball = -1.0, None
    for ball in balls:
        dev = _reference_deviations(f, ball)
        osc1.append(float(dev.mean()))
        oscp.append(float((dev**p).mean()))
        if osc1[-1] > omega:
            omega, omega_ball = osc1[-1], ball
    ratios = [v / omega for v in oscp if not math.isnan(v / omega)] if omega != 0.0 else [0.0]
    return osc1, oscp, (omega, omega_ball, max(ratios, default=math.nan))


def _holed_field(dim, nodes, seed):
    """A jump plus noise with NaN at a hole block and at scattered invalid nodes."""
    rng = np.random.default_rng(seed)
    g = grids.make_grid(dim, nodes, 1.0)
    X = g.coords()[0][..., None]
    vals = (np.where(X > 0.1, 1.0, -1.0) * symmat.pack(np.eye(dim))
            + 0.3 * rng.standard_normal(g.extents + (symmat.packed_size(dim),)))
    valid = rng.random(g.extents) > 0.002
    valid[(slice(nodes - 9, nodes - 5),) * dim] = False
    vals[~valid] = np.nan
    return grids.SymMatField(h=g.h, origin=g.origin, values=vals, valid=valid)


@pytest.mark.parametrize("dim, nodes, stride, reach", [(2, 41, 2, 8), (3, 19, 2, 6)],
                         ids=["2d", "3d"])
def test_grouped_oscillations_equal_per_ball_oracle(dim, nodes, stride, reach, monkeypatch):
    f = _holed_field(dim, nodes, 80 + dim)
    h = f.h
    fam = grids.ball_family(f, stride, r_min=3 * h, r_max=reach * h)
    off_node = [Ball(center=tuple(c), radius=r) for c, r in
                [((0.1 * h,) * dim, 3.3 * h), ((-0.37,) * dim, 4 * h),
                 ((1.0 - h,) * dim, 3 * h)]]   # the last is cut by the grid edge
    mixed = off_node + oracles.family_balls(fam)[::5] + off_node[:1]
    families = {
        "strided": fam,
        "sub": fam.select(np.arange(len(fam)) % 3 == 0),
        "midpoint": grids.ball_family(f, 0, r_min=3 * h, r_max=reach * h),
        "mixed": grids.ball_groups(f, [b.center for b in mixed], [b.radius for b in mixed]),
    }
    holes = [not f.valid[_reference_ball_mask(f, b)].all() for b in oracles.family_balls(fam)]
    assert any(holes) and not all(holes)   # both the compacted and the plain rows run
    # the strided family spans more chunks than it has groups (one per radius)
    assert len(list(fam.chunks())) > len(set(fam.radii.tolist()))
    for chunk in (grids.BALL_CHUNK, 50):      # 50 pairs: one ball per chunk
        monkeypatch.setattr(grids, "BALL_CHUNK", chunk)
        for name, family in families.items():
            for p in (1.0, 2.5, 4.0):
                osc1, oscp, (omega, ball, cbar) = _per_ball_jn(
                    f, oracles.family_balls(family), p)
                (got1, gotp), _ = diag._ball_means(f, family, (1.0, p))
                assert got1.tolist() == osc1, (name, p, chunk)
                assert gotp.tolist() == oscp, (name, p, chunk)
                jn = diag.john_nirenberg_ratio(f, family, p)
                assert (jn.bmo.omega, jn.bmo.ball, jn.cbar) == (omega, ball, cbar)
                assert jn.bmo.family_size == len(family)
            assert diag.bmo_modulus(f, family) == jn.bmo


@pytest.mark.parametrize("dim, nodes", [(2, 41), (3, 19)], ids=["2d", "3d"])
def test_family_grouping_reused_on_other_validity_and_regrouped_on_other_geometry(
        dim, nodes, monkeypatch):
    f = _holed_field(dim, nodes, 85 + dim)
    h = f.h
    g = grids.make_grid(dim, nodes, 1.0)        # all valid, the field's lattice
    fam = grids.ball_family(g, 3, r_min=3 * h, r_max=6 * h)
    moved = grids.SymMatField(h=h, origin=f.origin + 0.3 * h, values=f.values, valid=f.valid)
    wider = grids.SymMatField(h=1.5 * h, origin=f.origin, values=f.values, valid=f.valid)
    calls = []
    ball_groups = grids.ball_groups

    def counting(*args):
        calls.append(len(args[1]))
        return ball_groups(*args)

    monkeypatch.setattr(grids, "ball_groups", counting)
    for field, regroups in ((f, 0), (moved, 1), (wider, 1)):
        calls.clear()
        for p in (1.0, 2.5):
            osc1, oscp, (omega, ball, cbar) = _per_ball_jn(field, oracles.family_balls(fam), p)
            jn = diag.john_nirenberg_ratio(field, fam, p)
            assert (jn.bmo.omega, jn.bmo.ball, jn.cbar) == (omega, ball, cbar)
            (got1, gotp), _ = diag._ball_means(field, fam, (1.0, p))
            assert got1.tolist() == osc1 and gotp.tolist() == oscp
        assert calls == [len(fam)] * (4 * regroups)
    assert any(not f.valid[_reference_ball_mask(f, b)].all() for b in oracles.family_balls(fam))


def _seeded_jump_field(nodes, seed):
    """The seeded jump field of the bench's bilap diagnose: the Hessian of 0.3 e^x cos y
    plus +-0.2 I across the line ``x cos a + y sin a = offset`` drawn from ``[seed, 2024]``."""
    h = 1.0 / (nodes - 1)
    X, Y = np.meshgrid(*[-0.5 + h * np.arange(nodes)] * 2, indexing="ij")
    rng = np.random.default_rng([seed, 2024])
    angle, offset = float(rng.uniform(0.0, math.pi)), float(rng.uniform(-0.1, 0.1))
    side = np.where(X * math.cos(angle) + Y * math.sin(angle) - offset > 0.0, 0.2, -0.2)
    ex = 0.3 * np.exp(X)
    vals = np.stack([ex * np.cos(Y) + side, -ex * np.sin(Y), -ex * np.cos(Y) + side], axis=-1)
    return grids.SymMatField(h=h, origin=(-0.5, -0.5), values=vals)


def _evaluated_families(monkeypatch):
    """The families that go through ``_ball_means`` from now on, in call order."""
    seen, ball_means = [], diag._ball_means

    def recording(f, family, *args, **kwargs):
        seen.append(family)
        return ball_means(f, family, *args, **kwargs)

    monkeypatch.setattr(diag, "_ball_means", recording)
    return seen


def _pairs(family):
    return sum(len(members) * offsets.size for members, _, offsets, _ in family.groups)


def _bound_fields(dim, nodes, seed):
    """Holed fields for the oscillation bounds: noise over a jump, the same
    shifted by 1e6 I, a near-constant field (3 I plus 1e-13 noise) and a
    two-level one (+-I across the jump plus 1e-9 noise), whose balls on one
    side have a variance far below the rounding of their sums of squares."""
    f = _holed_field(dim, nodes, seed)
    eye = symmat.pack(np.eye(dim))
    noise = np.random.default_rng(seed).standard_normal(f.values.shape)
    side = np.where(f.coords()[0] > 0.1, 1.0, -1.0)[..., None]

    def on_valid(values):
        return f.with_values(np.where(f.valid[..., None], values, np.nan))

    return {"holed": f, "shifted": f.with_values(f.values + 1e6 * eye),
            "near-constant": on_valid(3.0 * eye + 1e-13 * noise),
            "two-level": on_valid(side * eye + 1e-9 * noise)}


@pytest.mark.parametrize("dim, nodes, stride, reach", [(2, 41, 2, 8), (3, 19, 2, 6)],
                         ids=["2d", "3d"])
def test_oscillation_bounds_dominate_the_computed_means(dim, nodes, stride, reach):
    exponents = (1.0, 1.5, 2.0, 2.5, 4.0)
    for seed in (90, 91, 92):
        for name, f in _bound_fields(dim, nodes, seed).items():
            h = f.h
            fam = grids.ball_family(f, stride, r_min=3 * h, r_max=reach * h)
            off_node = [((0.1 * h,) * dim, 3.3 * h), ((-0.37,) * dim, 4 * h),
                        ((1.0 - h,) * dim, 3 * h)]    # the last is cut by the grid edge
            family = grids.ball_groups(f, [c for c, _ in off_node] + fam.centers.tolist(),
                                       [r for _, r in off_node] + fam.radii.tolist())
            bounds = diag._oscillation_bounds(f, family, diag._valid_counts(f, family),
                                              exponents)
            means, _ = diag._ball_means(f, family, exponents)
            assert np.isfinite(bounds).all() and (bounds >= means).all(), (name, seed)
            if name in ("holed", "shifted"):      # U_2 is the computed value up to rounding
                np.testing.assert_array_less(bounds[2], means[2] * (1 + 1e-6))


@pytest.mark.parametrize("field", ["jump", "linear", "flat", "shifted", "holed"])
def test_screened_jn_equals_the_full_evaluation(field, monkeypatch):
    g, jump = grids.make_grid(2, 65, 1.0), _seeded_jump_field(65, 3)
    f = {"jump": jump,
         "linear": linear_field(g, np.diag([1.0, -0.5])),    # ties in exact arithmetic
         "flat": constant_field(g, np.eye(2)),               # ties at omega = 0
         "shifted": jump.with_values(jump.values + 1e6 * symmat.pack(np.eye(2))),
         "holed": _holed_field(2, 65, 93)}[field]
    fam = grids.ball_family(f, 4, r_min=3 * f.h, r_max=0.25)
    assert _pairs(fam) >= diag._SCREEN_PAIRS_PER_NODE * f.valid.size     # the screen runs
    seen = _evaluated_families(monkeypatch)
    for p in (1.0, 1.5, 2.0, 2.5, 4.0):
        _, _, (omega, ball, cbar) = _per_ball_jn(f, oracles.family_balls(fam), p)
        seen.clear()
        jn = diag.john_nirenberg_ratio(f, fam, p)
        assert jn == diag.JNEstimate(
            p=p, cbar=cbar, degenerate=omega == 0.0,
            bmo=diag.BMOResult(omega=omega, ball=ball, family_size=len(fam))), p
        if field in ("jump", "shifted") and p <= 2.0:    # the screen skips most balls
            assert sum(len(s) for s in seen) < len(fam) // 10, p


def test_screen_evaluates_under_one_percent_of_the_pairs_on_the_seeded_jump_field(monkeypatch):
    f = _seeded_jump_field(257, 0)
    fam = grids.ball_family(f, 8, r_min=0.25 / 8, r_max=0.25)    # diagnose's defaults
    assert (len(fam), _pairs(fam)) == (2716, 6_579_736)
    seen = _evaluated_families(monkeypatch)
    jn = diag.john_nirenberg_ratio(f, fam, 2.0)
    # one ball, the one of omega, is evaluated: 12,853 of 6,579,736 pairs (0.2%)
    assert [len(s) for s in seen] == [1] and sum(map(_pairs, seen)) == 12_853
    assert _pairs(seen[0]) <= 0.01 * _pairs(fam)
    assert seen[0].ball(0) == jn.bmo.ball


def test_jn_nan_at_a_valid_node_wins_neither_maximum():
    g = grids.make_grid(2, 33, 1.0)
    vals = np.array(jump_field(g, np.eye(2)).values)
    vals[4, 4] = np.nan                                  # valid, in the corner balls alone
    f = grids.SymMatField(h=g.h, origin=g.origin, values=vals)
    fam = grids.ball_family(f, 4, r_min=3 * g.h, r_max=0.25)
    balls = oracles.family_balls(fam)
    first = [k for k, b in enumerate(balls) if _reference_ball_mask(f, b)[4, 4]]
    assert 0 < len(first) < len(fam)
    # the balls holding the NaN first, then the rest: cbar must not depend on the order
    order = first + [k for k in range(len(fam)) if k not in first]
    moved = grids.ball_groups(f, fam.centers[order], fam.radii[order])
    for p in (1.0, 2.0, 2.5):
        osc1, oscp, (omega, ball, cbar) = _per_ball_jn(f, balls, p)
        assert math.isnan(osc1[first[0]]) and math.isnan(oscp[first[0]])
        assert omega > 0.0 and not math.isnan(cbar)
        for family in (fam, moved):
            jn = diag.john_nirenberg_ratio(f, family, p)
            assert (jn.bmo.omega, jn.bmo.ball, jn.cbar) == (omega, ball, cbar), p


def _fsum_deviations(vals, w):
    """Oracle: |f - (f)_B| at the rows ``vals``, each component's mean a ``math.fsum``."""
    mean = [math.fsum(col) / len(vals) for col in vals.T.tolist()]
    return [math.sqrt(math.fsum(wa * (v - c) ** 2 for wa, v, c in zip(w, row, mean)))
            for row in vals.tolist()]


@pytest.mark.parametrize("dim, nodes, stride, reach", [(2, 41, 2, 8), (3, 19, 2, 6)],
                         ids=["2d", "3d"])
def test_oscillations_match_fsum_reference(dim, nodes, stride, reach):
    # every sum of the reference is correctly rounded, so the values are
    # pinned whatever order the library sums in
    f = _holed_field(dim, nodes, 80 + dim)
    h, w = f.h, symmat.duplication_weights(dim).tolist()
    fam = grids.ball_family(f, stride, r_min=3 * h, r_max=reach * h)
    devs = [_fsum_deviations(_reference_ball_values(f, ball), w)
            for ball in oracles.family_balls(fam)]
    for p in (1.0, 2.5, 4.0):
        (got1, gotp), _ = diag._ball_means(f, fam, (1.0, p))
        np.testing.assert_allclose(got1, [math.fsum(d) / len(d) for d in devs], rtol=1e-12)
        np.testing.assert_allclose(gotp, [math.fsum(x**p for x in d) / len(d) for d in devs],
                                   rtol=1e-12)

    center, radii, p = (0.05,) * dim, [0.8, 0.6, 0.4, 0.25], 2.5
    curve, _ = diag.campanato_decay(f, center, radii, p)
    want = [math.fsum(x**p for x in _fsum_deviations(
        _reference_ball_values(f, Ball(center=center, radius=r)), w)) * h**dim for r in radii]
    np.testing.assert_allclose(curve.integrals, want, rtol=1e-12)

    # the uncentred means of fit_p0 and reverse_holder_check, on balls with holes
    def power_mean(ball, q):
        norms = [math.sqrt(math.fsum(wa * v * v for wa, v in zip(w, row)))
                 for row in _reference_ball_values(f, ball).tolist()]
        return math.fsum(x**q for x in norms) / len(norms)

    balls = [Ball(center=center, radius=r) for r in radii]
    rhs = [power_mean(b, 2.0) ** 0.5 for b in balls]
    want = [max(power_mean(balls[j], q) ** (1.0 / q) / rhs[i]
                for i in range(len(balls)) for j in range(i + 1, len(balls)))
            for q in diag.DEFAULT_P_SCAN]
    np.testing.assert_allclose(diag.fit_p0(f, center, radii).required_constants, want,
                               rtol=1e-12)
    centers, scales = [center, (-0.1,) * dim], [0.4, 0.15]
    pbar = diag.sobolev_dual_exponent(dim)
    want = [[power_mean(Ball(center=c, radius=s), 2.0) ** 0.5
             / power_mean(Ball(center=c, radius=2 * s), pbar) ** (1.0 / pbar) for s in scales]
            for c in centers]
    np.testing.assert_allclose(diag.reverse_holder_check(f, centers, scales).constants, want,
                               rtol=1e-12)
    doubled = [Ball(center=c, radius=k * s) for c in centers for s in scales for k in (1, 2)]
    for family in (balls, doubled):
        assert any(not f.valid[_reference_ball_mask(f, b)].all() for b in family)

    r = 3 * h
    offs = grids.node_ball_offsets(r, h, dim)
    cand = np.flatnonzero(diag._computable(f, offs))[::2]
    got = diag._density(f, diag._component_major(f), r, p, cand)
    want = [math.fsum(x**p for x in _fsum_deviations(f.values[tuple((node + offs).T)], w))
            * h**dim / r**dim for node in np.transpose(np.unravel_index(cand, f.extents))]
    np.testing.assert_allclose(got, want, rtol=1e-12)


def test_grouped_oscillations_raise_for_the_first_empty_ball():
    f = _holed_field(2, 41, 83)
    h = f.h
    hole = tuple(f.origin + h * 33.5)             # the middle of the hole block
    first_empty = Ball(center=hole, radius=h)     # four nodes, all in the hole
    balls = (Ball(center=(0.0, 0.0), radius=1.5 * h), first_empty,
             Ball(center=(hole[0] - 0.5 * h,) * 2, radius=1.5 * h))
    family = grids.ball_groups(f, [b.center for b in balls], [b.radius for b in balls])
    for ball in balls[1:]:
        with pytest.raises(EmptyRegionError, match=re.escape(f"ball {ball} ")):
            diag.mean_oscillation(f, ball)
    named = re.escape(f"ball {first_empty} contains no valid nodes")
    with pytest.raises(EmptyRegionError, match=named):
        diag.john_nirenberg_ratio(f, family, 2.0)
    with pytest.raises(EmptyRegionError, match="ball family is empty"):
        diag.john_nirenberg_ratio(f, family.select(np.zeros(len(family), dtype=bool)), 2.0)
    # every per-ball entry point names the first empty ball of its own
    radii = [h, 0.9 * h, 0.8 * h]
    with pytest.raises(EmptyRegionError, match=named):
        diag.campanato_decay(f, hole, radii)
    with pytest.raises(EmptyRegionError, match=named):
        diag.fit_p0(f, hole, radii)
    with pytest.raises(EmptyRegionError, match=named):
        diag.reverse_holder_check(f, [hole], [h])


# -------------------------------------------------------------- Campanato

def test_campanato_constant_field_degenerate():
    g = grids.make_grid(2, 33, 1.0)
    f = constant_field(g, np.eye(2))
    curve, fit = diag.campanato_decay(f, (0.0, 0.0), [0.4, 0.2, 0.1], p=2.0)
    assert fit.degenerate
    assert all(v == 0.0 for v in curve.values)


def test_campanato_linear_field_slope_oracle():
    # un-normalized integral of |f - avg|^p over B_rho scales exactly as
    # rho^(n+p) for linear f, so the fitted slope is n + p
    g = grids.make_grid(2, 129, 0.5)  # h = 1/128
    f = linear_field(g, np.array([[1.0, 0.3], [0.3, -0.6]]))
    radii = [0.25, 0.125, 0.0625, 0.03125]
    for p, want in ((2.0, 4.0), (1.0, 3.0)):
        curve, fit = diag.campanato_decay(f, (0.0, 0.0), radii, p=p)
        assert not fit.degenerate
        assert fit.slope == pytest.approx(want, abs=0.1)


def test_campanato_shift_invariance():
    rng = np.random.default_rng(64)
    g = grids.make_grid(2, 65, 1.0)
    f = grids.SymMatField(h=g.h, origin=g.origin,
                          values=rng.standard_normal(g.extents + (3,)))
    radii = [0.4, 0.2, 0.1]
    _, fit1 = diag.campanato_decay(f, (0.0, 0.0), radii, p=2.0)
    _, fit2 = diag.campanato_decay(
        f.with_values(f.values + symmat.pack(np.array([[2.0, 1.0], [1.0, -3.0]]))),
        (0.0, 0.0), radii, p=2.0)
    assert fit1.slope == pytest.approx(fit2.slope, rel=1e-12)


def test_campanato_needs_three_radii():
    g = grids.make_grid(2, 33, 1.0)
    f = constant_field(g, np.eye(2))
    with pytest.raises(diag.DiagnosticsError):
        diag.campanato_decay(f, (0.0, 0.0), [0.4, 0.2], p=2.0)


@pytest.mark.parametrize("fit", ["campanato", "p0"])
def test_nested_ball_fits_reject_duplicate_radii(fit):
    # a repeated radius would pair a ball with itself as a nested pair
    rng = np.random.default_rng(65)
    g = grids.make_grid(2, 65, 1.0)
    f = grids.SymMatField(h=g.h, origin=g.origin, values=rng.standard_normal(g.extents + (3,)))
    run = {"campanato": diag.campanato_decay, "p0": diag.fit_p0}[fit]
    with pytest.raises(diag.DiagnosticsError, match="strictly decreasing"):
        run(f, (0.0, 0.0), [0.4, 0.2, 0.2])
    with pytest.raises(diag.DiagnosticsError, match="at least 3 radii"):
        run(f, (0.0, 0.0), [0.4, 0.2])


def test_campanato_discrete_biharmonic_decay():
    # Hessian of the clamped fourth-order solution with cubic data decays at
    # least like rho^(n + p - 1/2) in the un-normalized p = 2 integral
    g = grids.make_grid(2, 65, 0.5)
    w = solver.solve_constant_coeff_bvp(models.packed_identity(2),
                                        oracles.clamped(g, lambda x, y: x**3 + y**3))
    f = grids.hessian_field(w)
    curve, fit = diag.campanato_decay(f, (0.0, 0.0), [0.25, 0.125, 0.0625], p=2.0)
    assert fit.slope >= 2 + 2 - 0.5


# --------------------------------------------------------- reverse Hoelder

def finite_constants(res):
    arr = np.asarray(res.constants, dtype=float)
    return arr[np.isfinite(arr)]


def test_reverse_holder_constant_field_is_one():
    g = grids.make_grid(2, 33, 1.0)
    f = constant_field(g, np.array([[1.5, 0.0], [0.0, -0.5]]))
    res = diag.reverse_holder_check(f, [(0.0, 0.0)], [0.1, 0.2])
    assert res.pbar == pytest.approx(1.0)  # 2n/(n+2) at n = 2
    np.testing.assert_allclose(finite_constants(res), 1.0, rtol=1e-12)


def test_reverse_holder_exponent_arithmetic():
    assert diag.sobolev_dual_exponent(2) == pytest.approx(1.0)
    assert diag.sobolev_dual_exponent(3) == pytest.approx(1.2)


def test_reverse_holder_rejects_oversized_ball():
    g = grids.make_grid(2, 33, 1.0)
    f = constant_field(g, np.eye(2))
    with pytest.raises(grids.GridError):
        diag.reverse_holder_check(f, [(0.5, 0.5)], [0.4])


@pytest.mark.parametrize("bad", [0.0, -0.1])
def test_nonpositive_ball_radii_are_rejected(bad):
    g = grids.make_grid(2, 33, 1.0)
    f = linear_field(g, np.eye(2))
    message = f"ball radius must be positive, got {bad}"
    calls = [
        lambda: diag.campanato_decay(f, (0.0, 0.0), [0.4, 0.2, bad]),
        lambda: diag.fit_p0(f, (0.0, 0.0), [0.4, 0.2, bad]),
        lambda: diag.reverse_holder_check(f, [(0.0, 0.0)], [0.2, bad]),
        lambda: grids.ball_groups(f, [(0.0, 0.0)], [bad]),
    ]
    for call in calls:
        with pytest.raises(grids.GridError, match=re.escape(message)):
            call()


def test_reverse_holder_names_first_oversized_ball():
    g = grids.make_grid(2, 33, 1.0)
    f = constant_field(g, np.eye(2))
    centers, scales = [(0.0, 0.0), (0.5, -0.2), (0.6, 0.5)], [0.1, 0.3, 0.22]
    # three doubled balls cross x = 1; (0.5, -0.2) at scale 0.3 comes first
    # in (center, scale) order
    with pytest.raises(grids.GridError) as err:
        diag.reverse_holder_check(f, centers, scales)
    assert str(err.value) == "doubled ball B_0.6((0.5, -0.2)) leaves the valid region"
    res = diag.reverse_holder_check(f, [], scales)
    assert res.constants == () and res.degenerate == ()


def test_reverse_holder_takes_one_pass_over_inner_and_outer_balls(monkeypatch):
    calls = []
    ball_means = diag._ball_means

    def counting(f, family, exponents, centred=True):
        calls.append((len(family), tuple(exponents), centred))
        return ball_means(f, family, exponents, centred)

    monkeypatch.setattr(diag, "_ball_means", counting)
    g = grids.make_grid(2, 33, 1.0)
    f = linear_field(g, np.array([[1.0, 0.5], [0.5, -2.0]]))
    res = diag.reverse_holder_check(f, [(0.0, 0.0), (0.1, -0.1)], [0.1, 0.2])
    assert calls == [(8, (2.0, res.pbar), False)]
    assert np.isfinite(np.asarray(res.constants)).all()


def test_reverse_holder_degenerate_zero_denominator():
    g = grids.make_grid(2, 33, 1.0)
    f = constant_field(g, np.zeros((2, 2)))
    res = diag.reverse_holder_check(f, [(0.0, 0.0)], [0.2])
    assert res.degenerate[0][0]


# ------------------------------------------------------------------ p0 fit

def test_fit_p0_constant_field_certifies_whole_scan():
    g = grids.make_grid(2, 65, 1.0)
    f = constant_field(g, np.array([[2.0, 0.0], [0.0, 1.0]]))
    est = diag.fit_p0(f, (0.0, 0.0), [0.4, 0.2, 0.1])
    assert est.certified and est.p0 == pytest.approx(4.0)
    np.testing.assert_allclose(est.required_constants, 1.0, rtol=1e-12)


def test_fit_p0_bounded_field_certifies_with_large_K():
    rng = np.random.default_rng(65)
    g = grids.make_grid(2, 65, 1.0)
    vals = rng.uniform(0.5, 1.5, g.extents + (3,))
    f = grids.SymMatField(h=g.h, origin=g.origin, values=vals)
    est = diag.fit_p0(f, (0.0, 0.0), [0.4, 0.2, 0.1], K_max=50.0)
    assert est.certified and est.p0 == pytest.approx(4.0)


def test_fit_p0_integrable_spike_oracle():
    # radial spike |x|^(-2/5) on the plane lies in L^q iff q < 5; the
    # closed-form ball means give the required constants
    #   K(p) = (c_p^(1/p) / c_2^(1/2)) * (r/rho)^(2/5),  c_p = 2/(2 - 2p/5)
    g = grids.make_grid(2, 129, 0.5)
    eps = 0.3 * g.h  # keep the singularity off the lattice

    def fn(x, y):
        r = np.sqrt(x**2 + y**2 + eps**2)
        return r[..., None] ** (-0.4) * symmat.pack(np.eye(2))

    f = matrix_field(g, fn)
    radii = [0.25, 0.125, 0.0625]
    scan = (2.5, 3.0, 4.0, 4.8)
    est = diag.fit_p0(f, (0.0, 0.0), radii, K_max=np.inf, scan=scan)
    req = dict(zip(scan, est.required_constants))

    def c(p):
        return 2.0 / (2.0 - 2.0 * p / 5.0)

    for p in (2.5, 3.0):
        want = (c(p) ** (1 / p) / c(2.0) ** 0.5) * (radii[0] / radii[-1]) ** 0.4
        assert req[p] == pytest.approx(want, rel=0.25)
    # required constants grow with p; a cutoff between K(3) and K(4.8)
    # certifies p <= 3 and rejects p near 5
    assert req[2.5] <= req[3.0] <= req[4.0] <= req[4.8]
    cutoff = 0.5 * (req[3.0] + req[4.8])
    est2 = diag.fit_p0(f, (0.0, 0.0), radii, K_max=cutoff, scan=scan)
    assert est2.p0 == pytest.approx(4.0 if req[4.0] <= cutoff else 3.0)
    assert est2.p0 < 4.8


def test_fit_p0_no_certification_verdict():
    g = grids.make_grid(2, 65, 1.0)
    f = linear_field(g, np.eye(2))
    est = diag.fit_p0(f, (0.0, 0.0), [0.4, 0.2, 0.1], K_max=1e-9)
    assert not est.certified
    assert est.verdict == "no exponent certified"


# ------------------------------------------------ full-grid mask reference

def _reference_ball_mask(f, ball):
    """The nodes of the ball, selected by a distance test on the whole grid."""
    dist2 = np.zeros(f.extents)
    for axis in range(f.dim):
        shape = [1] * f.dim
        shape[axis] = -1
        dist2 = dist2 + ((f.axis_coords(axis) - ball.center[axis]) ** 2).reshape(shape)
    return dist2 <= ball.radius**2 * (1.0 + 1e-12)


def _reference_ball_values(f, ball):
    """Valid values of the ball, in C order."""
    return f.values[_reference_ball_mask(f, ball) & f.valid]


def _reference_deviations(f, ball):
    """Deviations from the ball mean, each component summed pairwise on its own."""
    vals = _reference_ball_values(f, ball)
    return symmat.hs_norm_packed(vals - vals.T.copy().sum(axis=1) / len(vals))


def _reference_mean_power(f, ball, p):
    return float((symmat.hs_norm_packed(_reference_ball_values(f, ball)) ** p).mean())


def test_ball_diagnostics_equal_full_grid_mask_reference():
    rng = np.random.default_rng(71)
    g = grids.make_grid(2, 33, 1.0)
    x, y = g.coords()
    jump = (x + 0.3 * y > 0.05)[..., None]
    vals = np.where(jump, symmat.pack(np.diag([2.0, -1.0])), symmat.pack(np.eye(2)))
    vals = vals + 0.2 * rng.standard_normal(vals.shape)
    valid = g.interior.copy()
    valid[tuple(rng.integers(4, 29, size=(2, 20)))] = False   # holes inside balls
    vals[~valid] = np.nan
    f = grids.SymMatField(h=g.h, origin=g.origin, values=vals, valid=valid)
    h, p = g.h, 2.0

    fam = grids.ball_family(f, center_stride=3, r_min=3 * h, r_max=0.75)
    jn = diag.john_nirenberg_ratio(f, fam, p)
    omega, omega_ball, oscp = -1.0, None, []
    for ball in oracles.family_balls(fam):
        dev = _reference_deviations(f, ball)
        if float(dev.mean()) > omega:
            omega, omega_ball = float(dev.mean()), ball
        oscp.append(float((dev**p).mean()))
    assert omega > 0.0
    assert (jn.bmo.omega, jn.bmo.ball) == (omega, omega_ball)
    assert diag.bmo_modulus(f, fam) == jn.bmo
    assert jn.cbar == max(v / omega for v in oscp)
    flat = grids.SymMatField(h=h, origin=g.origin, values=np.ones_like(vals), valid=valid)
    assert diag.bmo_modulus(flat, fam).ball == fam.ball(0)   # ties keep the first ball

    center = (0.05, 0.0)
    radii = [0.6, 0.4, 0.3, 0.2]
    curve, _ = diag.campanato_decay(f, center, radii, p)
    integrals = []
    for r in radii:
        dev = _reference_deviations(f, Ball(center=center, radius=r))
        integrals.append(float((dev**p).mean()) * h**2 * len(dev))
    assert curve.integrals == tuple(integrals)

    balls = [Ball(center=center, radius=r) for r in radii]
    rhs = [_reference_mean_power(f, b, 2.0) ** 0.5 for b in balls]
    required = []
    for q in diag.DEFAULT_P_SCAN:
        lhs = [_reference_mean_power(f, b, q) ** (1.0 / q) for b in balls]
        required.append(max(lhs[j] / rhs[i] for i in range(len(balls))
                            for j in range(i + 1, len(balls))))
    assert diag.fit_p0(f, center, radii).required_constants == tuple(required)

    centers, scales = [(0.0, 0.0), (0.1, -0.1)], [0.3, 0.15, 0.1]
    pbar = diag.sobolev_dual_exponent(2)
    constants = tuple(
        tuple(_reference_mean_power(f, Ball(center=c, radius=s), 2.0) ** 0.5
              / _reference_mean_power(f, Ball(center=c, radius=2 * s), pbar) ** (1 / pbar)
              for s in scales)
        for c in centers)
    assert diag.reverse_holder_check(f, centers, scales).constants == constants


# ------------------------------------------------------------ singular set

def jump_field(g, A, offset=None):
    packed = symmat.pack(np.asarray(A, dtype=float))
    shift = 0.49 * g.h if offset is None else offset

    def fn(x, y):
        return np.where((x > shift)[..., None], packed, -packed)

    return matrix_field(g, fn)


def test_singular_set_smooth_fields_empty():
    g = grids.make_grid(2, 65, 1.0)
    h = g.h
    radii = [8 * h, 4 * h, 3 * h]
    # constant-Hessian potential: density is exactly zero
    quad = grids.hessian_field(grids.sample(g, lambda x, y: 0.3 * x**2 + 0.1 * x * y))
    mask = diag.singular_set(quad, 2.5, radii, tau=1e-6)
    assert mask.mask.sum() == 0
    # cubic potential: linear Hessian, density ~ r^p0 is far below a
    # jump-scale threshold
    cub = grids.hessian_field(grids.sample(g, lambda x, y: x**3 * y))
    tau_jump = 0.5 * np.pi  # half the continuum constant for a unit jump
    mask = diag.singular_set(cub, 2.5, radii, tau=tau_jump)
    assert mask.mask.sum() == 0


def test_singular_set_detects_hyperplane_jump():
    g = grids.make_grid(2, 97, 1.0)
    A = np.eye(2)
    f = jump_field(g, A)
    p0 = 2.5
    h = g.h
    # continuum density at points on the jump: |2A|^p0 * s(1-s)^p0 + ... at
    # s = 1/2 collapses to |A|^p0 * (unit ball volume)
    cont = float(symmat.hs_norm(A)) ** p0 * np.pi
    mask = diag.singular_set(f, p0, [8 * h, 4 * h, 3 * h], tau=0.5 * cont)
    X = g.coords()[0]
    near = np.abs(X - 0.49 * h) <= h
    far = np.abs(X - 0.49 * h) > 4 * h
    comp = mask.computable
    frac_near = mask.mask[near & comp].mean()
    frac_far = mask.mask[far & comp].mean()
    assert frac_near >= 0.9
    assert frac_far <= 0.05


def test_singular_set_scaling_and_shift_invariance():
    g = grids.make_grid(2, 65, 1.0)
    f = jump_field(g, np.eye(2))
    h = g.h
    radii = [4 * h, 3 * h]
    p0, tau = 2.5, 1.0
    base = diag.singular_set(f, p0, radii, tau)
    scaled = diag.singular_set(f.with_values(f.values * 3.0), p0, radii,
                               tau * 3.0**p0)
    assert np.array_equal(base.mask, scaled.mask)
    shifted_f = f.with_values(f.values + symmat.pack(np.array([[5.0, 2.0], [2.0, -1.0]])))
    again = diag.singular_set(shifted_f, p0, radii, tau)
    assert np.array_equal(base.mask, again.mask)


def test_singular_set_radius_validation():
    g = grids.make_grid(2, 33, 1.0)
    f = constant_field(g, np.eye(2))
    with pytest.raises(diag.DiagnosticsError):
        diag.singular_set(f, 2.5, [4 * g.h, 2 * g.h], tau=1.0)


def _density_field(dim, nodes):
    """A jump plus noise, NaN in a hole block and at scattered invalid nodes."""
    rng = np.random.default_rng(90 + dim)
    g = grids.make_grid(dim, nodes, 1.0)
    m = symmat.packed_size(dim)
    X = g.coords()[0][..., None]
    vals = np.where(X > 0.1, 1.0, -1.0) * symmat.pack(np.eye(dim)) + 0.3 * rng.standard_normal(
        g.extents + (m,))
    valid = rng.random(g.extents) > 0.003
    valid[(slice(nodes - 7, nodes - 4),) * dim] = False
    vals[~valid] = np.nan
    return grids.SymMatField(h=g.h, origin=g.origin, values=vals, valid=valid)


@pytest.mark.parametrize("dim, nodes, reaches", [(2, 41, (3, 4, 8)), (3, 19, (3, 4))],
                         ids=["2d", "3d"])
def test_oscillation_density_equals_shifted_copy_oracle(dim, nodes, reaches):
    f = _density_field(dim, nodes)
    vals = diag._component_major(f)
    for k in reaches:
        comp = diag._computable(f, grids.node_ball_offsets(k * f.h, f.h, dim))
        nodes_in = np.flatnonzero(comp)
        for p0 in (2.5, 4.0):
            dens = diag._density(f, vals, k * f.h, p0, nodes_in)
            want, want_comp = oracles.shifted_oscillation_density(f, k * f.h, p0)
            assert np.array_equal(comp, want_comp), (k, p0)
            assert 0 < comp.sum() < (nodes - 2 * k) ** dim  # holes cost nodes
            assert np.array_equal(dens, want.reshape(-1)[nodes_in]), (k, p0)
            assert np.isnan(want[~comp]).all()


@pytest.mark.parametrize("dim, nodes", [(2, 41), (3, 19)], ids=["2d", "3d"])
def test_singular_set_equals_two_pass_oracle(dim, nodes, monkeypatch):
    f = _density_field(dim, nodes)
    h = f.h
    radii = [8 * h, 4 * h, 3 * h]           # the two smallest count
    for p0 in (2.5, 4.0):
        dens = [oracles.shifted_oscillation_density(f, r, p0)[0] for r in radii[1:]]
        top = max(np.nanmax(d) for d in dens)
        mid = float(np.nanmedian(dens[1]))
        for tau in (0.0, mid, 2.0 * top):
            want_mask, want_comp = oracles.singular_set(f, p0, radii, tau)
            # a node's densities keep their bits at any chunk size
            for chunk in (grids.BALL_CHUNK, 7):
                with monkeypatch.context() as m:
                    m.setattr(grids, "BALL_CHUNK", chunk)
                    got = diag.singular_set(f, p0, radii, tau)
                assert np.array_equal(got.computable, want_comp), (p0, tau, chunk)
                assert np.array_equal(got.mask, want_mask), (p0, tau, chunk)
        # tau = 0 flags every computable node, the middle tau some of them
        assert np.array_equal(diag.singular_set(f, p0, radii, 0.0).mask, want_comp)
        assert 0 < diag.singular_set(f, p0, radii, mid).mask.sum() < want_comp.sum()


def test_singular_set_evaluates_the_larger_radius_at_candidates_only(monkeypatch):
    pairs = {}                              # node-ball pairs per ball size
    chunk_deviations = diag._chunk_deviations

    def counting(vals, w, idx, count, holes=()):
        pairs[idx.shape[1]] = pairs.get(idx.shape[1], 0) + idx.size
        return chunk_deviations(vals, w, idx, count, holes)

    monkeypatch.setattr(diag, "_chunk_deviations", counting)
    g = grids.make_grid(2, 65, 1.0)
    f = jump_field(g, np.eye(2))
    h, p0 = g.h, 2.5
    small, c_small = oracles.shifted_oscillation_density(f, 3 * h, p0)
    c_large = oracles.shifted_oscillation_density(f, 4 * h, p0)[1]
    computable = c_small & c_large
    bound = oracles.density_bound(f, 3 * h, p0)
    k_small, k_large = (len(grids.node_ball_offsets(r, h, 2)) for r in (3 * h, 4 * h))
    for tau in (1.01 * small[computable].max(), 0.5 * np.pi):
        # the smaller radius runs at the nodes the bound does not clear, the
        # larger one at the candidates, whose smaller-radius density exceeds tau
        screened = int((computable & ~(bound <= tau)).sum())
        candidates = int((computable & (small > tau)).sum())
        assert candidates <= screened < computable.sum() / 4
        pairs.clear()
        res = diag.singular_set(f, p0, [4 * h, 3 * h], tau)
        want = {k_small: screened * k_small, k_large: candidates * k_large}
        assert pairs == {k: n for k, n in want.items() if n}
        assert np.array_equal(res.computable, computable)
        assert res.mask.sum() <= candidates
    assert 0 < res.mask.sum() and 0 < candidates


def _smooth_field(dim, nodes):
    """The Hessian of a cubic potential: linear, so every ball has a small spread."""
    g = grids.make_grid(dim, nodes, 1.0)
    cubic = (lambda x, y: x**3 * y + 0.5 * y**3) if dim == 2 else (
        lambda x, y, z: x**3 * y + 0.5 * y * z**2)
    return grids.hessian_field(grids.sample(g, cubic))


@pytest.mark.parametrize("dim, nodes", [(2, 41), (3, 19)], ids=["2d", "3d"])
@pytest.mark.parametrize("kind", ["jump", "smooth", "holed"])
def test_screened_singular_set_equals_full_evaluation(dim, nodes, kind):
    if kind == "jump":
        g = grids.make_grid(dim, nodes, 1.0)
        f = oracles.hyperplane_jump_field(g, np.eye(dim))
    else:
        f = _smooth_field(dim, nodes) if kind == "smooth" else _density_field(dim, nodes)
    h = f.h
    radii = [4 * h, 3 * h]
    for p0 in (1.0, 2.5, 4.0):
        large, c_large = oracles.shifted_oscillation_density(f, 4 * h, p0)
        small, c_small = oracles.shifted_oscillation_density(f, 3 * h, p0)
        computable = c_large & c_small
        bound = oracles.density_bound(f, 3 * h, p0)
        dens = np.sort(small[computable & (small > 0.0)])
        # a tau just above one node's density, and just below it, probe the
        # bound's margin at that node
        node = dens[len(dens) // 2]
        # and the smallest bound, which the screen clears at its node
        lowest = np.min(bound[computable])
        taus = [0.0, dens[len(dens) // 4], node, np.nextafter(node, 0.0),
                np.nextafter(node, 1.0), lowest]
        for tau in taus:
            want = computable & (np.minimum(large, small) > tau)    # as oracles.singular_set
            got = diag.singular_set(f, p0, radii, tau)
            assert np.array_equal(got.mask, want), (kind, p0, tau)
            assert np.array_equal(got.computable, computable)
            assert (bound[want] > tau).all()        # no flagged node is screened out


def test_screened_singular_set_keeps_rounded_means_and_nonfinite_bounds():
    # a constant 0.1 field: each ball's spread is 0, but its computed mean
    # rounds, so a density can be a few ulps above tau = 0
    g = grids.make_grid(2, 41, 1.0)
    f = constant_field(g, 0.1 * np.array([[1.0, 3.0], [3.0, 7.0]]))
    h = g.h
    for p0 in (1.0, 2.5):
        want, _ = oracles.singular_set(f, p0, [4 * h, 3 * h], 0.0)
        assert np.array_equal(diag.singular_set(f, p0, [4 * h, 3 * h], 0.0).mask, want)
    # an infinite value makes the bound infinite or NaN near it: those nodes
    # are evaluated, and their NaN densities flag nothing
    vals = np.array(f.values)
    vals[20, 20, 0] = np.inf
    f = grids.SymMatField(h=h, origin=g.origin, values=vals)
    with np.errstate(invalid="ignore"):
        want, _ = oracles.singular_set(f, 2.5, [4 * h, 3 * h], -1.0)
        got = diag.singular_set(f, 2.5, [4 * h, 3 * h], -1.0)
    assert np.array_equal(got.mask, want) and got.mask.any() and not got.mask[20, 20]


def test_reverse_holder_raises_each_ball_to_its_own_exponent():
    f = _holed_field(3, 19, 84)
    centers, scales = [(0.05,) * 3, (-0.1,) * 3], [0.3, 0.15]
    pairs = [(c, s) for c in centers for s in scales]
    balls = [Ball(center=c, radius=k * s) for k in (1.0, 2.0) for c, s in pairs]
    pbar = diag.sobolev_dual_exponent(3)
    family = grids.ball_groups(f, [b.center for b in balls], [b.radius for b in balls])
    (sq, pw), _ = diag._ball_means(f, family, (2.0, pbar), False)
    # each constant is the inner ball's mean square over the outer ball's
    # pbar mean, with the bits of raising every ball to both exponents
    want = [sq_in**0.5 / pw_out ** (1.0 / pbar)
            for sq_in, pw_out in zip(sq[:len(pairs)].tolist(), pw[len(pairs):].tolist())]
    res = diag.reverse_holder_check(f, centers, scales)
    assert [v for row in res.constants for v in row] == want
    assert not np.any(res.degenerate) and f.valid.sum() < f.valid.size


def test_singular_set_peak_memory_is_within_three_field_copies():
    # the component-major copy, the computable mask and the screened node lists
    g = grids.make_grid(2, 257, 1.0)
    f = jump_field(g, np.eye(2))
    h = g.h
    tracemalloc.start()
    try:
        mask = diag.singular_set(f, 2.5, [8 * h, 4 * h, 3 * h], tau=0.5 * np.pi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert mask.mask.any()
    assert peak <= 3 * f.values.nbytes, peak / f.values.nbytes


@pytest.mark.parametrize("dim, nodes", [(2, 129), (3, 33)], ids=["2d", "3d"])
def test_component_major_copy_is_the_only_full_size_allocation(dim, nodes):
    f = _density_field(dim, nodes)          # NaN at the invalid nodes
    tracemalloc.start()
    try:
        vals = diag._component_major(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    want = np.moveaxis(np.where(f.valid[..., None], f.values, 0.0), -1, 0)
    assert vals.flags.c_contiguous and np.array_equal(vals, want)
    assert peak <= 1.1 * f.values.nbytes, peak / f.values.nbytes


@pytest.mark.parametrize("p", [0.5, np.nan, np.inf], ids=["below-one", "nan", "inf"])
def test_oscillation_exponents_below_one_or_nan_are_rejected(p):
    g = grids.make_grid(2, 33, 1.0)
    f = linear_field(g, np.eye(2))
    fam = grids.ball_family(g, center_stride=8, r_min=0.2, r_max=0.4)
    calls = [
        lambda: diag.mean_oscillation(f, Ball(center=(0.0, 0.0), radius=0.3), p),
        lambda: diag.john_nirenberg_ratio(f, fam, p),
        lambda: diag.campanato_decay(f, (0.0, 0.0), [0.4, 0.2, 0.1], p),
        lambda: diag.singular_set(f, p, [4 * g.h, 3 * g.h], tau=1.0),
    ]
    for call in calls:
        with pytest.raises(diag.DiagnosticsError, match="exponent must be >= 1"):
            call()


@pytest.mark.parametrize("rows", [2, 3, 4, 5])
def test_singular_set_empty_on_fields_narrower_than_the_ball(rows):
    # no node of a rows x 12 field holds a whole 3h ball (7 nodes across)
    f = grids.SymMatField(h=0.1, origin=(0.0, 0.0), values=np.ones((rows, 12, 3)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = diag.singular_set(f, 2.5, [4 * f.h, 3 * f.h], tau=1.0)
    assert res.mask.shape == res.computable.shape == (rows, 12)
    assert not res.mask.any() and not res.computable.any()


def test_box_counting_dimension_of_jump_mask():
    g = grids.make_grid(2, 97, 1.0)
    f = jump_field(g, np.eye(2))
    h = g.h
    mask = diag.singular_set(f, 2.5, [4 * h, 3 * h], tau=0.5 * np.pi)
    dim, sizes, counts = diag.box_counting_dimension(mask.mask)
    assert abs(dim - 1.0) <= 0.3  # the jump set is a line: dimension n - 1


def test_box_counting_trivial_masks():
    assert diag.box_counting_dimension(np.zeros((16, 16), dtype=bool))[0] == 0.0
    full = np.ones((32, 32), dtype=bool)
    dim, _, _ = diag.box_counting_dimension(full)
    assert abs(dim - 2.0) <= 0.1


# ------------------------------------------------------------ Hoelder norm

def test_holder_constant_field_zero():
    g = grids.make_grid(2, 33, 1.0)
    f = constant_field(g, np.eye(2))
    est = diag.holder_seminorm(f, 0.5, pair_budget=500)
    assert est.value == 0.0


def test_holder_linear_field_vs_exhaustive_oracle():
    g = grids.make_grid(2, 21, 1.0)
    A = np.array([[1.0, 0.0], [0.0, 2.0]])
    f = linear_field(g, A)
    est = diag.holder_seminorm(f, 0.5, pair_budget=3000, seed=4)

    # exhaustive pair search on the same region
    nodes = grids.inner_box_nodes(f.valid, 0.75)
    best = 0.0
    for i in range(len(nodes)):
        for j in range(i + 1, len(nodes)):
            a, b = nodes[i], nodes[j]
            dist = g.h * np.sqrt(((a - b) ** 2).sum())
            val = float(symmat.hs_norm_packed(
                f.values[tuple(a)] - f.values[tuple(b)])) / dist**0.5
            best = max(best, val)
    assert est.value <= best * (1 + 1e-12)
    assert est.value >= 0.9 * best


def test_holder_monotone_in_alpha_for_linear_fields():
    g = grids.make_grid(2, 33, 1.0)  # diameter > 1 inside the 3/4 region
    f = linear_field(g, np.eye(2))
    vals = [diag.holder_seminorm(f, a, pair_budget=2000, seed=1).value
            for a in (0.3, 0.5, 0.7)]
    assert vals[0] >= vals[1] >= vals[2]


def test_holder_deterministic_given_seed():
    rng = np.random.default_rng(66)
    g = grids.make_grid(2, 33, 1.0)
    f = grids.SymMatField(h=g.h, origin=g.origin,
                          values=rng.standard_normal(g.extents + (3,)))
    a = diag.holder_seminorm(f, 0.5, pair_budget=800, seed=9)
    b = diag.holder_seminorm(f, 0.5, pair_budget=800, seed=9)
    assert a.value == b.value and a.pair == b.pair


def _holder_pair_loop(f, alpha, pair_budget, seed, region_fraction=0.75):
    """Reference: one pair at a time over holder_seminorm's pair sequence."""
    nodes = grids.inner_box_nodes(f.valid, region_fraction)
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
    best, best_pair = 0.0, None
    for a, b in pairs:
        dist = f.h * float(np.sqrt(((a - b) ** 2).sum()))
        val = float(symmat.hs_norm_packed(
            f.values[tuple(a)] - f.values[tuple(b)])) / dist**alpha
        if val > best:
            best = val
            best_pair = tuple(tuple(f.origin[d] + f.h * x[d] for d in range(f.dim))
                              for x in (a, b))
    return best, best_pair


@pytest.mark.parametrize("field", ["random-2d", "random-3d", "linear", "constant"])
def test_holder_array_pass_equals_pair_loop(field):
    rng = np.random.default_rng(67)
    g = grids.make_grid(3 if field == "random-3d" else 2, 11, 1.0)
    if field.startswith("random"):
        f = grids.SymMatField(h=g.h, origin=g.origin, values=rng.standard_normal(
            g.extents + (symmat.packed_size(g.dim),)))
    elif field == "linear":
        # the largest ratio ties on four coarse-lattice rows: the first wins
        f = linear_field(g, np.eye(2))
    else:
        f = constant_field(g, np.eye(2))
    for alpha, seed in ((0.3, 0), (0.5, 11), (0.8, 2)):
        est = diag.holder_seminorm(f, alpha, pair_budget=600, seed=seed)
        assert (est.value, est.pair) == _holder_pair_loop(f, alpha, 600, seed)
    assert (est.pair is None) == (field == "constant")


# -------------------------------------------------------------- 3D smoke

def test_three_dimensional_oscillation_and_detector():
    g = grids.make_grid(3, 25, 1.0)
    h = g.h
    # linear field: exact scaling of the mean oscillation in the radius
    packed = symmat.pack(np.eye(3))
    X = g.coords()[0]
    f = grids.SymMatField(h=h, origin=g.origin,
                          values=X[..., None] * packed)
    b1 = grids.Ball(center=(0.0, 0.0, 0.0), radius=0.25)
    b2 = grids.Ball(center=(0.0, 0.0, 0.0), radius=0.5)
    r = diag.mean_oscillation(f, b2, 1.0) / diag.mean_oscillation(f, b1, 1.0)
    # radius/h is only 2 for the inner ball; the scaling is exact in the
    # continuum and pinned tightly by the 2D tests
    assert r == pytest.approx(2.0, rel=0.2)

    # reverse-Hoelder constants of a constant field are exactly 1 at
    # pbar = 6/5
    c = grids.SymMatField(h=h, origin=g.origin,
                          values=np.broadcast_to(packed, g.extents + (6,)).copy())
    rh = diag.reverse_holder_check(c, [(0.0, 0.0, 0.0)], [0.2])
    assert rh.pbar == pytest.approx(1.2)
    np.testing.assert_allclose(finite_constants(rh), 1.0, rtol=1e-12)

    # hyperplane jump: the detector marks the interface plane
    jump = oracles.hyperplane_jump_field(g, np.eye(3))
    cont = float(symmat.hs_norm(np.eye(3))) ** 2.5 * (4.0 / 3.0) * np.pi
    mask = diag.singular_set(jump, 2.5, [4 * h, 3 * h], tau=0.5 * cont)
    X0 = g.coords()[0]
    near = np.abs(X0 - 0.49 * h) <= h
    comp = mask.computable
    assert mask.mask[near & comp].mean() >= 0.9
    assert mask.mask[~near & comp & (np.abs(X0) > 4 * h)].mean() <= 0.05


# --------------------------------------------------------- iteration lemma

def test_iteration_lemma_exact_power_function():
    kappa, gamma = 4.0, 2.0
    radii = np.linspace(0.05, 1.0, 24)
    phi = radii**kappa
    res = diag.iteration_lemma_check(radii, phi, A=1.0, kappa=kappa, gamma=gamma)
    assert res.passes
    assert res.epsilon <= 1e-12
    assert res.theta == pytest.approx((2.0) ** (-2.0 / kappa))
    assert np.isfinite(res.c) and res.c <= 1.0 + 1e-12


def test_iteration_lemma_constant_function_needs_large_slack():
    radii = np.linspace(0.05, 1.0, 16)
    phi = np.full_like(radii, 3.0)
    res = diag.iteration_lemma_check(radii, phi, A=0.5, kappa=4.0, gamma=2.0)
    assert not res.passes
    assert "slack" in res.message


def test_iteration_lemma_lower_order_term_carries_a_flat_sample():
    # phi = 0.01 is flat: with B = 0 every pair needs slack near 1, while
    # B r^beta = r outweighs phi at every sampled radius and absorbs it
    radii, phi = [0.1, 0.2, 0.4, 0.8], [0.01] * 4
    bare = diag.iteration_lemma_check(radii, phi, A=1.0, kappa=5.0, gamma=2.0)
    assert not bare.passes and "slack" in bare.message
    res = diag.iteration_lemma_check(radii, phi, A=1.0, kappa=5.0, gamma=2.0,
                                     B=1.0, beta=1.0)
    assert res.theta == pytest.approx(2.0 ** (-1.0 / 3.0))
    assert res.epsilon0 == pytest.approx(res.theta**5)
    assert res.passes and res.epsilon == 0.0
    # c = max phi(tau) / ((tau / r)^gamma phi(r) + B tau^beta) over the pairs
    theta = res.theta
    pairs = [(t, r) for t in radii for r in radii if t < r and t <= theta * r]
    assert res.pair_count == len(pairs)
    assert res.c == pytest.approx(max(0.01 / ((t / r) ** 2 * 0.01 + t) for t, r in pairs))


def test_iteration_lemma_zero_sample_below_a_positive_one_fails():
    # 1e-13 then zeros is nondecreasing within the 1e-12 tolerance; a zero
    # phi(r) leaves no room for a positive phi(tau)
    res = diag.iteration_lemma_check([0.1, 0.2, 0.4], [1e-13, 0.0, 0.0],
                                     A=1.0, kappa=4.0, gamma=2.0)
    assert not res.passes
    assert res.epsilon == np.inf and res.c == np.inf
    assert res.message == "hypothesis fails at a zero sample"


def test_iteration_lemma_rejects_nonmonotone_samples():
    with pytest.raises(diag.DiagnosticsError):
        diag.iteration_lemma_check([0.1, 0.2, 0.4], [1.0, 0.5, 2.0],
                                   A=1.0, kappa=4.0, gamma=2.0)


def test_iteration_lemma_on_biharmonic_decay_curve():
    # curve from the discrete comparison solution; kappa = n + p, gamma = n
    cs = {}
    for nodes in (65, 129):
        g = grids.make_grid(2, nodes, 0.5)
        w = solver.solve_constant_coeff_bvp(models.packed_identity(2),
                                            oracles.clamped(g, lambda x, y: x**3 + y**3))
        f = grids.hessian_field(w)
        radii = [0.25 / 2**k for k in range(4) if 0.25 / 2**k >= 3 * g.h]
        curve, _ = diag.campanato_decay(f, (0.0, 0.0), radii, p=2.0)
        res = diag.iteration_lemma_check(curve.radii, curve.integrals,
                                         A=1.0, kappa=4.0, gamma=2.0)
        assert res.passes, res.message
        cs[nodes] = res.c
    assert cs[129] == pytest.approx(cs[65], rel=0.25)
