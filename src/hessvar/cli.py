"""Command-line driver: solve, diagnose, hamstat, campanato, report-merge.

Exit codes: 0 success, 2 solver stopped at the iteration cap, 64 usage or
configuration errors, 65 data errors (unreadable fields, admissibility
violations, solver breakdown).  Reports are deterministic: identical config
and seed produce byte-identical JSON.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import asdict, replace

import numpy as np

from . import diagnostics as diag
from . import models
from .config import ConfigError, RunConfig, parse_config
from .fixtures import potential
from .grids import (
    EmptyRegionError,
    GridError,
    ScalarGrid,
    SymMatField,
    ball_family,
    bounding_box,
    bump_tests,
    dyadic_radii,
    hessian_field,
    make_grid,
    sample,
)
from . import gridio
from .hamstat import (
    PhaseError,
    convexity_certificate,
    graph_geometry,
    hamstat_residual,
    phase_harmonicity_residual,
)
from .models import AdmissibilityError, ModelError
from .reports import SCHEMA_VERSION, write_report
from .solver import SolverError, minimize_clamped

EXIT_OK = 0
EXIT_NONCONVERGED = 2
EXIT_USAGE = 64
EXIT_DATA = 65

class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def build_parser() -> _Parser:
    p = _Parser(prog="hessvar",
                description="Hessian variational integrals: clamped solves "
                            "and regularity diagnostics")
    sub = p.add_subparsers(dest="command", required=True)

    def common(q, field=False):
        q.add_argument("--config", required=True, help="run configuration file")
        q.add_argument("--out", required=True, help="output directory")
        q.add_argument("--seed", type=int, default=None,
                       help="override the [run] seed")
        if field:
            q.add_argument("--field", required=True,
                           help="matrix field file (CSV or HVGF binary)")

    common(sub.add_parser("solve", help="clamped energy minimization"))
    common(sub.add_parser("diagnose", help="oscillation/integrability report"),
           field=True)
    common(sub.add_parser("hamstat", help="gradient-graph geometry report"))
    common(sub.add_parser("campanato", help="decay curve for one field"),
           field=True)
    m = sub.add_parser("report-merge", help="merge report JSON files")
    m.add_argument("inputs", nargs="+", help="report files to merge")
    m.add_argument("--out", required=True, help="merged output file")
    return p


def build_model(cfg: RunConfig) -> models.EnergyModel:
    if cfg.model_kind == "quadratic":
        return models.quadratic_model(cfg.dim)
    if cfg.rho_U is not None:
        rho = cfg.rho_U
    elif cfg.eta is not None:
        rho = 1.0 - cfg.eta
    else:
        rho = np.inf
    return models.area_model(cfg.dim, rho_U=rho)


def _potential(cfg: RunConfig, base: str) -> ScalarGrid:
    """The [boundary] potential on the configured grid, finite at every node; a
    file must match that grid in extents and, to 1e-12 relative, in spacing."""
    grid = make_grid(cfg.dim, cfg.nodes, cfg.half_width)
    if cfg.boundary_kind == "file":
        where = os.path.join(base, cfg.boundary_file)
        f = gridio.read_grid(where)
        if f.extents != grid.extents:
            raise GridError(f"boundary file extents {f.extents} do not match the "
                            f"configured grid {grid.extents}")
        if not abs(f.h - grid.h) <= 1e-12 * grid.h:
            raise GridError(f"boundary file spacing {f.h!r} does not match the "
                            f"configured grid spacing {grid.h!r}")
        u = grid.with_values(f.values)
    else:
        where = f"[boundary] kind {cfg.boundary_kind!r}"
        with np.errstate(over="ignore", invalid="ignore"):      # reported below
            u = sample(grid, potential(cfg.boundary_kind, cfg.amplitude))
    bad = np.argwhere(~np.isfinite(u.values))
    if len(bad):
        raise GridError(f"{where}: non-finite potential value at node "
                        f"{tuple(bad[0].tolist())}")
    return u


# ------------------------------------------------------------------- solve

def cmd_solve(cfg: RunConfig, out: str, seed: int, base: str = ".") -> int:
    os.makedirs(out, exist_ok=True)
    model = build_model(cfg)
    u0 = _potential(cfg, base)
    if cfg.init == "zero":
        u0 = u0.with_values(np.where(u0.interior, 0.0, u0.values))
    u, rep = minimize_clamped(model, u0, grad_tol=cfg.grad_tol,
                              max_iter=cfg.max_iter, cg_rtol=cfg.cg_rtol)
    solution_path = os.path.join(out, "solution.hvgf")
    gridio.write_binary(solution_path, u)
    payload = {
        "schema": SCHEMA_VERSION,
        "command": "solve",
        "config": replace(cfg, seed=seed),
        "seed": seed,
        "iterations": rep.iterations,
        "grad_norm": rep.grad_norm,
        "energy": rep.energy,
        "steps": list(rep.steps),
        "solver": rep,
        "outputs": {"solution": "solution.hvgf"},
    }
    write_report(os.path.join(out, "solve_report.json"), payload)
    return EXIT_OK if rep.converged else EXIT_NONCONVERGED


# ---------------------------------------------------------------- diagnose

def _usable_geometry(field, cfg: RunConfig):
    """Centre and width of the valid box, and the config's radii or defaults."""
    box = bounding_box(field.valid)
    center = tuple(field.origin[d] + field.h * 0.5 * (s.start + s.stop - 1)
                   for d, s in enumerate(box))
    width = field.h * float(min(s.stop - 1 - s.start for s in box))
    r_max = cfg.r_max if cfg.r_max is not None else width / 4.0
    r_min = cfg.r_min if cfg.r_min is not None else max(3.0 * field.h, r_max / 8.0)
    return center, width, r_max, r_min


def cmd_diagnose(cfg: RunConfig, field_file: str, out: str, seed: int) -> int:
    if cfg.tau_sigma is None:
        raise ConfigError(
            "diagnose needs an explicit [diagnostics] tau_sigma threshold"
        )
    os.makedirs(out, exist_ok=True)
    field = gridio.read_field(field_file)
    h = field.h
    center, width, r_max, r_min = _usable_geometry(field, cfg)

    fam = ball_family(field, cfg.ball_stride, r_min, r_max)
    jn = diag.john_nirenberg_ratio(field, fam, cfg.osc_p)

    radii = dyadic_radii(r_max, r_min)
    curve, fit = diag.campanato_decay(field, center, radii, cfg.osc_p)
    p0est = diag.fit_p0(field, center, radii, K_max=cfg.p0_K_max)

    off = width / 8.0
    # the centre and its four offsets along the first two axes, in 3D too
    centers = [center] + [
        tuple(c + (off if d == axis else 0.0) * sgn for d, c in enumerate(center))
        for axis in range(2) for sgn in (+1, -1)
    ]
    s0 = width / 8.0
    scales = [s0, s0 / 2.0, s0 / 4.0]
    rh = diag.reverse_holder_check(field, centers, scales)

    sigma_p0 = cfg.sigma_p0 if cfg.sigma_p0 is not None else (
        p0est.p0 if p0est.certified else 2.5
    )
    mask = diag.singular_set(field, sigma_p0, [4 * h, 3 * h],
                             cfg.tau_sigma)
    box_dim, sizes, counts = diag.box_counting_dimension(mask.mask)
    mask_file = "sigma_mask.hvgf"
    gridio.write_binary(os.path.join(out, mask_file),
                        (mask.mask.astype(np.uint8), h))

    holder = diag.holder_seminorm(field, cfg.alpha, cfg.pair_budget, seed=seed)

    payload = {
        "schema": SCHEMA_VERSION,
        "command": "diagnose",
        "config": replace(cfg, seed=seed),
        "seed": seed,
        "bmo": {
            **asdict(jn.bmo),
            "small_bmo_regime": bool(jn.bmo.omega <= cfg.omega_threshold),
            "omega_threshold": cfg.omega_threshold,
        },
        "jn": jn.to_dict(),
        "campanato": {"curve": curve, "fit": fit},
        "gehring": {
            "pbar": rh.pbar,
            "constants": rh.constants,
            "p0": p0est.p0,
            "required_constants": list(p0est.required_constants),
            "K_max": p0est.K_max,
        },
        "sigma": {
            "p0": sigma_p0,
            "tau": cfg.tau_sigma,
            "mask_file": mask_file,
            "box_dim": box_dim,
            "box_sizes": list(sizes),
            "box_counts": list(counts),
            "flagged": int(mask.mask.sum()),
        },
        "holder": {"alpha": holder.alpha, "seminorm": holder.value},
        "notes": [
            "ball family omits balls within 2h of the region edge; the "
            "modulus is a one-sided under-approximation of the supremum",
            "box_dim is an upper box-counting surrogate at this resolution, "
            "not a Hausdorff dimension",
        ],
    }
    write_report(os.path.join(out, "diagnostics.json"), payload)
    return EXIT_OK


# ----------------------------------------------------------------- hamstat

def cmd_hamstat(cfg: RunConfig, out: str, seed: int, base: str = ".") -> int:
    if cfg.eta is None:
        raise ConfigError("hamstat needs [model] eta in (0, 1)")
    os.makedirs(out, exist_ok=True)
    u = _potential(cfg, base)

    geom = graph_geometry(hessian_field(u))
    phase_file = "phase.hvgf"
    gridio.write_binary(os.path.join(out, phase_file), ScalarGrid(
        h=u.h, origin=u.origin, values=geom.theta,
        boundary_width=u.boundary_width, valid=geom.valid))
    metric_file = "metric.hvgf"
    gridio.write_binary(os.path.join(out, metric_file), SymMatField(
        h=u.h, origin=u.origin, values=geom.g, valid=geom.valid))

    center = tuple(o + u.h * 0.5 * (N - 1) for o, N in zip(u.origin, u.extents))
    tests = bump_tests(u, [center], scale=cfg.bump_scale)
    vres = hamstat_residual(geom, tests)
    pres = phase_harmonicity_residual(geom, cfg.inner_fraction)
    cert = convexity_certificate(cfg.eta, cfg.dim, cfg.hs_samples, seed=seed)

    payload = {
        "schema": SCHEMA_VERSION,
        "command": "hamstat",
        "config": replace(cfg, seed=seed),
        "seed": seed,
        "phase": {
            "file": phase_file,
            "sup_abs": float(np.abs(geom.theta[geom.valid]).max()),
        },
        "metric": {"file": metric_file},
        "residuals": {
            "variational_sup": float(np.abs(vres).max()),
            "harmonicity": pres,
        },
        "certificate": cert.to_dict(),
    }
    write_report(os.path.join(out, "hamstat_report.json"), payload)
    return EXIT_OK


# --------------------------------------------------------------- campanato

def cmd_campanato(cfg: RunConfig, field_file: str, out: str, seed: int) -> int:
    os.makedirs(out, exist_ok=True)
    field = gridio.read_field(field_file)
    center, _, r_max, r_min = _usable_geometry(field, cfg)
    radii = dyadic_radii(r_max, r_min)
    curve, fit = diag.campanato_decay(field, center, radii, cfg.osc_p)
    lemma = None
    if not fit.degenerate:
        lemma = diag.iteration_lemma_check(
            curve.radii, curve.integrals, A=1.0,
            kappa=field.dim + cfg.osc_p, gamma=float(field.dim),
        )
    csv_lines = ["rho,oscillation,integral"]
    for r, v, i in zip(curve.radii, curve.values, curve.integrals):
        csv_lines.append(f"{r!r},{v!r},{i!r}")
    with open(os.path.join(out, "campanato.csv"), "w") as fh:
        fh.write("\n".join(csv_lines) + "\n")
    payload = {
        "schema": SCHEMA_VERSION,
        "command": "campanato",
        "config": replace(cfg, seed=seed),
        "seed": seed,
        "curve": curve,
        "fit": fit,
        "iteration_lemma": lemma,
        "outputs": {"csv": "campanato.csv"},
    }
    write_report(os.path.join(out, "campanato.json"), payload)
    return EXIT_OK


# ------------------------------------------------------------ report-merge

def cmd_report_merge(inputs, out: str) -> int:
    import json

    merged = {}
    for path in inputs:
        name = os.path.splitext(os.path.basename(path))[0]
        if name in merged:
            raise GridError(f"duplicate report name {name!r} in merge")
        try:
            with open(path, encoding="utf-8") as fh:
                merged[name] = json.load(fh)
        except UnicodeDecodeError as exc:
            raise GridError(f"{path}: not UTF-8 text at byte {exc.start}") from exc
        except (json.JSONDecodeError, RecursionError) as exc:
            raise GridError(f"{path} is not valid JSON: {exc}") from exc
    parent = os.path.dirname(os.path.abspath(out))
    os.makedirs(parent, exist_ok=True)
    write_report(out, {"schema": SCHEMA_VERSION, "command": "report-merge",
                       "reports": merged})
    return EXIT_OK


# ---------------------------------------------------------------- dispatch

def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"hessvar: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        if args.command == "report-merge":
            return cmd_report_merge(args.inputs, args.out)
        cfg = parse_config(args.config)
        seed = args.seed if args.seed is not None else cfg.seed
        if seed < 0:
            raise UsageError(f"--seed must be >= 0, got {seed}")
        base = os.path.dirname(os.path.abspath(args.config))
        if args.command == "solve":
            return cmd_solve(cfg, args.out, seed, base)
        if args.command == "diagnose":
            return cmd_diagnose(cfg, args.field, args.out, seed)
        if args.command == "hamstat":
            return cmd_hamstat(cfg, args.out, seed, base)
        if args.command == "campanato":
            return cmd_campanato(cfg, args.field, args.out, seed)
        raise UsageError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"hessvar: config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except UsageError as exc:
        print(f"hessvar: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (AdmissibilityError, ModelError, GridError, EmptyRegionError,
            gridio.FormatError, diag.DiagnosticsError, SolverError,
            PhaseError, OSError) as exc:
        print(f"hessvar: data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except MemoryError as exc:
        print(f"hessvar: data error: out of memory: {exc}", file=sys.stderr)
        return EXIT_DATA


def main() -> int:
    return run(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
