"""Workload definitions: configs, seeded inputs and correctness gates.

Every workload runs the paper's two-stage workflow through the ``hessvar``
CLI: a clamped ``solve``, ``hamstat`` on the solution, then ``diagnose`` and
``campanato`` on a matrix field.  Each runs all four commands so that every
layer has work, and a time, on every workload.  The workloads differ in
the layers they load:

* ``area-2d``: area model (eta = 0.1), 2D 129^2, cubic_biharmonic x0.3,
  init = boundary.  The variable-coefficient Newton operator plus Jacobi CG
  is nearly all of the solve, so preconditioner and matvec changes show in
  full.  The diagnostics run on the solution's Hessian D^2 u, written
  between ``solve`` and ``hamstat`` by ``child.export_hessian``.
* ``area-3d``: the same pipeline on 3D 33^3.  CG needs few iterations, so
  ``models.eval_d2F`` and the 3x3 Jacobi eigen kernel carry a large share;
  model and eigen-kernel changes show mainly here.
* ``bilap-regularity-2d``: quadratic model, 2D 129^2, harmonic_exp x0.3,
  init = zero, which takes the constant-coefficient composite 13-point
  path with no second-derivative model work.  The diagnostics run on a
  seeded synthetic 257^2 field (Hessian of harmonic_exp x0.3 plus a +-0.2 I
  jump across a seeded line), where ``diagnose`` is dominated by
  ``mean_oscillation`` over 2,716 balls that each build a full-grid mask.

Only this module knows the workload shapes; ``child.py`` runs them and
``run.py`` aggregates them.
"""

from __future__ import annotations

import json
import math
import os
import struct

import numpy as np

# BLAS threads, pinned before numpy is imported: OpenBLAS's default of two
# threads changes the CG iteration counts and the output bytes
BLAS_THREADS = "1"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

DIAG_SECTION = """\
[diagnostics]
ball_stride = 8
tau_sigma = 0.02
{radii}"""

WORKLOADS = {
    "area-2d": dict(model="area", dim=2, boundary="cubic_biharmonic",
                    init="boundary", field="hessian"),
    "area-3d": dict(model="area", dim=3, boundary="cubic_biharmonic",
                    init="boundary", field="hessian"),
    "bilap-regularity-2d": dict(model="quadratic", dim=2,
                                boundary="harmonic_exp", init="zero",
                                field="jump"),
}

AMPLITUDE = 0.3
ETA = 0.1
JUMP = 0.2

# nodes per axis of the solve grid and of the synthetic field
SIZES = {
    "full": {"area-2d": 129, "area-3d": 33, "bilap-regularity-2d": 129,
             "field": 257},
    "tiny": {"area-2d": 33, "area-3d": 17, "bilap-regularity-2d": 33,
             "field": 65},
}

# (r_max, r_min) = (12h, 3h) where the CLI defaults leave fewer than the
# three dyadic radii that campanato fits need; elsewhere the defaults hold
RADII = {
    ("full", "area-3d"): (0.375, 0.09375),
    ("tiny", "area-2d"): (0.375, 0.09375),
    ("tiny", "area-3d"): (0.75, 0.1875),
}

# energies of the seed commit's solutions (gate: 1e-9 relative)
REFERENCE_ENERGY = {
    ("full", "area-2d"): 1.0044393891614471,
    ("full", "area-3d"): 0.9259593003989195,
    ("full", "bilap-regularity-2d"): 0.10386742695376303,
    ("tiny", "area-2d"): 0.9558284619531882,
    ("tiny", "area-3d"): 0.8373446901107238,
    ("tiny", "bilap-regularity-2d"): 0.0982919146582847,
}
ENERGY_RTOL = 1e-9

COMMANDS = ("solve", "hamstat", "diagnose", "campanato")


def _config_text(spec: dict, nodes: int, boundary: str, radii) -> str:
    radii_lines = ""
    if radii is not None:
        radii_lines = f"r_max = {radii[0]!r}\nr_min = {radii[1]!r}\n"
    return (
        f"[model]\nkind = {spec['model']}\neta = {ETA}\n\n"
        f"[grid]\ndim = {spec['dim']}\nnodes = {nodes}\nhalf_width = 0.5\n\n"
        f"[boundary]\n{boundary}\n\n"
        f"[solver]\ninit = {spec['init']}\n\n"
        + DIAG_SECTION.format(radii=radii_lines)
    )


def write_inputs(workdir: str, workload: str, size: str, seed: int) -> list:
    """Write the configs and seeded inputs of one pass; return its commands.

    Each command is ``(name, argv)`` with paths relative to ``workdir``.
    The ``hessian`` field is produced between commands (see ``child.py``);
    the ``jump`` field is written here, from the seed.
    """
    spec = WORKLOADS[workload]
    nodes = SIZES[size][workload]
    radii = RADII.get((size, workload))
    with open(os.path.join(workdir, "solve.cfg"), "w") as fh:
        fh.write(_config_text(
            spec, nodes,
            f"kind = {spec['boundary']}\namplitude = {AMPLITUDE}", radii))
    with open(os.path.join(workdir, "post.cfg"), "w") as fh:
        fh.write(_config_text(spec, nodes,
                              "kind = file\nfile = solve/solution.hvgf", radii))
    if spec["field"] == "jump":
        write_jump_field(os.path.join(workdir, "field.hvgf"),
                         SIZES[size]["field"], seed)
    field = ["--field", "field.hvgf"]
    args = {"solve": ["--config", "solve.cfg"],
            "hamstat": ["--config", "post.cfg"],
            "diagnose": ["--config", "post.cfg"] + field,
            "campanato": ["--config", "post.cfg"] + field}
    return [(cmd, [cmd] + args[cmd] + ["--out", cmd, "--seed", str(seed)])
            for cmd in COMMANDS]


# ---------------------------------------------------------------- fields

def _coords(nodes: int, dim: int):
    h = 1.0 / (nodes - 1)
    axis = -0.5 + h * np.arange(nodes)
    return h, np.meshgrid(*([axis] * dim), indexing="ij")


def jump_geometry(seed: int) -> tuple[float, float]:
    """Seeded line {x . (cos a, sin a) = offset} for the synthetic jump."""
    rng = np.random.default_rng([seed, 2024])
    return float(rng.uniform(0.0, math.pi)), float(rng.uniform(-0.1, 0.1))


def jump_distance(X, Y, seed: int) -> np.ndarray:
    """Signed distance of nodes to the seeded jump line."""
    angle, offset = jump_geometry(seed)
    return X * math.cos(angle) + Y * math.sin(angle) - offset


def write_jump_field(path: str, nodes: int, seed: int) -> None:
    """Hessian of harmonic_exp x0.3 plus +-0.2 I across a seeded line.

    The Hessian is exact: (e^x cos y)_xx = e^x cos y = -(.)_yy and
    (.)_xy = -e^x sin y.  Packed order is (11, 12, 22).
    """
    h, (X, Y) = _coords(nodes, 2)
    ex = AMPLITUDE * np.exp(X)
    side = np.where(jump_distance(X, Y, seed) > 0.0, JUMP, -JUMP)
    packed = np.stack([ex * np.cos(Y) + side, -ex * np.sin(Y),
                       -ex * np.cos(Y) + side], axis=-1)
    write_hvgf(path, packed, h)


def write_hvgf(path: str, values: np.ndarray, h: float) -> None:
    """Packed matrix field as HVGF: magic, u32 dim, u32 extents, f64 h,
    then the f64 payload."""
    extents = values.shape[:-1]
    head = b"HVGF" + struct.pack("<I", len(extents))
    head += struct.pack(f"<{len(extents)}I", *extents) + struct.pack("<d", h)
    with open(path, "wb") as fh:
        fh.write(head + np.ascontiguousarray(values, dtype="<f8").tobytes())


def read_hvgf(path: str, dtype="<f8") -> tuple[np.ndarray, float]:
    """Payload and h of a scalar (f64) or mask (u8) HVGF file."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:4] != b"HVGF":
        raise ValueError(f"{path}: not an HVGF file")
    (dim,) = struct.unpack_from("<I", raw, 4)
    extents = struct.unpack_from(f"<{dim}I", raw, 8)
    (h,) = struct.unpack_from("<d", raw, 8 + 4 * dim)
    body = raw[16 + 4 * dim:]
    return np.frombuffer(body, dtype=dtype).reshape(extents), h


# ----------------------------------------------------------------- gates

def _boundary_values(name: str, nodes: int, dim: int) -> np.ndarray:
    _, X = _coords(nodes, dim)
    if name == "cubic_biharmonic":
        return AMPLITUDE * X[0] ** 3 * X[1]
    if name == "harmonic_exp":
        return AMPLITUDE * np.exp(X[0]) * np.cos(X[1])
    raise KeyError(name)


def _load(path: str):
    with open(path) as fh:
        return json.load(fh)


def _jump_gate(workdir: str, size: str, seed: int, sigma: dict) -> str | None:
    """The singular set must trace the seeded line.

    A node is flagged only when the smallest detector ball (radius 3h)
    straddles the jump, so every flagged node lies within 3h of the line,
    and the line crosses at least half the unit square.  The box-counting
    surrogate reads 1.1-1.5 on this detector band at 65^2 to 257^2 (the
    band is about five nodes wide), so its window is [0.8, 1.5].
    """
    mask, h = read_hvgf(os.path.join(workdir, "diagnose", sigma["mask_file"]),
                        np.uint8)
    _, (X, Y) = _coords(SIZES[size]["field"], 2)
    far = np.abs(jump_distance(X, Y, seed))[mask.astype(bool)].max(initial=0.0)
    if not sigma["flagged"] >= 0.5 / h:
        return f"singular set flags {sigma['flagged']} nodes, not the line"
    if far > 3.0 * h:
        return f"flagged node {far / h:.2f} h away from the jump line"
    if not 0.8 <= sigma["box_dim"] <= 1.5:
        return f"box dimension {sigma['box_dim']} is not that of a line"
    return None


def gate(workdir: str, workload: str, size: str, command: str) -> str | None:
    """None when the command's outputs pass its gate, else the reason."""
    spec = WORKLOADS[workload]
    if command == "solve":
        rep = _load(os.path.join(workdir, "solve", "solve_report.json"))
        if not rep["solver"]["converged"]:
            return "solve did not converge"
        if not rep["grad_norm"] <= rep["solver"]["grad_tol"]:
            return f"grad_norm {rep['grad_norm']} > grad_tol"
        ref = REFERENCE_ENERGY.get((size, workload))
        if ref is not None and abs(rep["energy"] - ref) > ENERGY_RTOL * abs(ref):
            return f"energy {rep['energy']!r} differs from {ref!r}"
        u, _ = read_hvgf(os.path.join(workdir, "solve", "solution.hvgf"))
        nodes = SIZES[size][workload]
        want = _boundary_values(spec["boundary"], nodes, spec["dim"])
        rings = np.ones(u.shape, dtype=bool)
        rings[(slice(2, -2),) * spec["dim"]] = False
        dev = np.abs(u[rings] - want[rings]).max()
        if dev > 1e-12 * (1.0 + np.abs(want[rings]).max()):
            return f"prescribed rings deviate from the boundary data by {dev:g}"
        return None
    if command == "hamstat":
        cert = _load(os.path.join(workdir, "hamstat",
                                  "hamstat_report.json"))["certificate"]
        if cert["diagonal_check"] != "pass" or not cert["min_eig"] > 0.0:
            return f"convexity certificate failed: {cert}"
        return None
    if command == "diagnose":
        rep = _load(os.path.join(workdir, "diagnose", "diagnostics.json"))
        if not rep["bmo"]["omega"] > 0.0:
            return "BMO modulus is not positive"
        if spec["field"] == "jump":
            return _jump_gate(workdir, size, rep["seed"], rep["sigma"])
        return None
    if command == "campanato":
        rep = _load(os.path.join(workdir, "campanato", "campanato.json"))
        if rep["fit"]["degenerate"]:
            return "campanato fit is degenerate"
        return None
    raise KeyError(command)
