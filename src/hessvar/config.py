"""Run configuration: flat ``key = value`` sections, strictly validated.

The format is INI-style with bracketed sections and no nesting::

    [model]
    kind = area
    eta = 0.1

    [grid]
    dim = 2
    nodes = 65
    half_width = 0.5

    [boundary]
    kind = cubic_biharmonic
    amplitude = 1.0

    [solver]
    max_iter = 50
    cg_rtol = 1e-12
    init = boundary

    [diagnostics]
    ball_stride = 8
    r_max = 0.2
    p = 2.0
    alpha = 0.5
    tau_sigma = 0.5

    [hamstat]
    samples = 2000

    [run]
    seed = 0

Every key has a default except where noted; parse errors carry line numbers.
A referenced boundary data file must exist at parse time.
The fully resolved configuration is embedded in every report so reruns are
reproducible bit for bit.
"""

from __future__ import annotations

import configparser
import math
import os
import sys
from dataclasses import dataclass

from .fixtures import POTENTIALS
from .grids import spacing_ok


class ConfigError(ValueError):
    """Malformed or invalid run configuration (CLI exit code 64)."""


@dataclass(frozen=True)
class RunConfig:
    # [model]
    model_kind: str = "quadratic"        # quadratic | area
    eta: float | None = None             # area admissibility margin
    rho_U: float | None = None           # explicit admissible radius (kind = area)
    # [grid]
    dim: int = 2
    nodes: int = 65
    half_width: float = 0.5
    # [boundary]
    boundary_kind: str = "zero"          # registry name or "file"
    boundary_file: str | None = None
    amplitude: float = 1.0
    # [solver]
    grad_tol: float | None = None
    max_iter: int = 50
    cg_rtol: float = 1e-12               # floor of the CG forcing term
    init: str = "boundary"               # boundary | zero
    # [diagnostics]
    ball_stride: int = 8
    r_min: float | None = None
    r_max: float | None = None
    osc_p: float = 2.0
    p0_K_max: float = 10.0
    tau_sigma: float | None = None       # required by diagnose; no default
    sigma_p0: float | None = None        # override for the detector exponent
    alpha: float = 0.5
    pair_budget: int = 2000
    omega_threshold: float = 0.1
    # [hamstat]
    hs_samples: int = 2000
    bump_scale: float = 0.3
    inner_fraction: float = 0.5
    # [run]
    seed: int = 0


_SCHEMA = {
    "model": {
        "kind": ("model_kind", str),
        "eta": ("eta", float),
        "rho_u": ("rho_U", float),
    },
    "grid": {
        "dim": ("dim", int),
        "nodes": ("nodes", int),
        "half_width": ("half_width", float),
    },
    "boundary": {
        "kind": ("boundary_kind", str),
        "file": ("boundary_file", str),
        "amplitude": ("amplitude", float),
    },
    "solver": {
        "grad_tol": ("grad_tol", float),
        "max_iter": ("max_iter", int),
        "cg_rtol": ("cg_rtol", float),
        "init": ("init", str),
    },
    "diagnostics": {
        "ball_stride": ("ball_stride", int),
        "r_min": ("r_min", float),
        "r_max": ("r_max", float),
        "p": ("osc_p", float),
        "p0_k_max": ("p0_K_max", float),
        "tau_sigma": ("tau_sigma", float),
        "sigma_p0": ("sigma_p0", float),
        "alpha": ("alpha", float),
        "pair_budget": ("pair_budget", int),
        "omega_threshold": ("omega_threshold", float),
    },
    "hamstat": {
        "samples": ("hs_samples", int),
        "bump_scale": ("bump_scale", float),
        "inner_fraction": ("inner_fraction", float),
    },
    "run": {
        "seed": ("seed", int),
    },
}


def _convert(raw: str, typ, where: str):
    raw = raw.strip()
    try:
        value = typ(raw)
    except ValueError as exc:
        raise ConfigError(f"{where}: cannot parse {raw!r} as {typ.__name__}") from exc
    if typ is float and not math.isfinite(value):
        raise ConfigError(f"{where}: {raw!r} is not a finite number")
    return value


def parse_config(path) -> RunConfig:
    """Read and validate a configuration file; raise ConfigError on defects."""
    if not os.path.exists(path):
        raise ConfigError(f"config file {path} does not exist")
    cp = configparser.ConfigParser(interpolation=None, strict=True)
    try:
        with open(path, encoding="utf-8") as fh:
            cp.read_file(fh, source=str(path))
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text at byte {exc.start}") from exc
    except configparser.Error as exc:
        lineno = getattr(exc, "lineno", None)
        at = f" (line {lineno})" if lineno else ""
        raise ConfigError(f"{path}{at}: {exc.message}") from exc

    overrides = {}
    for section in cp.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"{path}: unknown section [{section}]")
        for key, raw in cp.items(section):
            if key not in _SCHEMA[section]:
                raise ConfigError(f"{path}: unknown key {key!r} in [{section}]")
            attr, typ = _SCHEMA[section][key]
            overrides[attr] = _convert(raw, typ, f"{path} [{section}] {key}")
    cfg = RunConfig(**overrides)
    validate_config(cfg, base=os.path.dirname(os.path.abspath(path)))
    return cfg


def validate_config(cfg: RunConfig, base: str = ".") -> None:
    if cfg.model_kind not in ("quadratic", "area"):
        raise ConfigError(f"model kind {cfg.model_kind!r} not recognized")
    if cfg.rho_U is not None and cfg.model_kind != "area":
        raise ConfigError(f"rho_u needs model kind 'area', got {cfg.model_kind!r}")
    if cfg.eta is not None and not (0.0 < cfg.eta < 1.0):
        raise ConfigError(f"eta must lie in (0, 1), got {cfg.eta}")
    if not (0.0 < cfg.alpha < 1.0):
        raise ConfigError(f"alpha must lie in (0, 1), got {cfg.alpha}")
    if not cfg.osc_p >= 1.0:
        raise ConfigError(f"oscillation exponent p must be >= 1, got {cfg.osc_p}")
    if cfg.dim not in (2, 3):
        raise ConfigError(f"grid dim must be 2 or 3, got {cfg.dim}")
    if cfg.nodes < 11:
        raise ConfigError(f"grid needs at least 11 nodes per axis, got {cfg.nodes}")
    if cfg.nodes**cfg.dim * 8 * (cfg.dim * (cfg.dim + 1) // 2) ** 2 > sys.maxsize:
        # the packed second derivative, m^2 floats per node, is the largest array
        raise ConfigError(f"[grid] nodes = {cfg.nodes} gives {cfg.nodes}**{cfg.dim} nodes, "
                          f"more than an array can hold")
    h = 2.0 * cfg.half_width / (cfg.nodes - 1)     # the node count is below sys.maxsize
    if not spacing_ok(h, cfg.dim):
        raise ConfigError(f"half_width = {cfg.half_width!r} over {cfg.nodes} nodes gives a "
                          f"spacing h = {h!r} without a finite, nonzero h**{cfg.dim} "
                          f"and a finite 1/h**4")
    positive = {"rho_U": cfg.rho_U, "grad_tol": cfg.grad_tol, "r_min": cfg.r_min,
                "r_max": cfg.r_max, "p0_k_max": cfg.p0_K_max, "bump_scale": cfg.bump_scale}
    for key, value in positive.items():
        if value is not None and not value > 0:
            raise ConfigError(f"{key} must be positive, got {value}")
    if cfg.r_min is not None and cfg.r_max is not None and cfg.r_min > cfg.r_max:
        raise ConfigError(f"[diagnostics] r_min = {cfg.r_min} exceeds r_max = {cfg.r_max}")
    at_least = (("max_iter", cfg.max_iter, 0), ("ball_stride", cfg.ball_stride, 0),
                ("tau_sigma", cfg.tau_sigma, 0), ("sigma_p0", cfg.sigma_p0, 1),
                ("pair_budget", cfg.pair_budget, 1), ("seed", cfg.seed, 0))
    for key, value, lowest in at_least:
        if value is not None and not value >= lowest:
            raise ConfigError(f"{key} must be >= {lowest}, got {value}")
    if not (0.0 < cfg.cg_rtol < 1.0):
        raise ConfigError(f"cg_rtol must lie in (0, 1), got {cfg.cg_rtol}")
    if cfg.hs_samples < 1:
        raise ConfigError(f"hamstat samples must be >= 1, got {cfg.hs_samples}")
    if cfg.init not in ("boundary", "zero"):
        raise ConfigError(f"solver init must be 'boundary' or 'zero', got {cfg.init!r}")
    if cfg.boundary_kind == "file":
        if cfg.boundary_file is None:
            raise ConfigError("boundary kind 'file' needs a file path")
        bfile = os.path.join(base, cfg.boundary_file)
        if not os.path.exists(bfile):
            raise ConfigError(f"boundary file {bfile} does not exist")
    elif cfg.boundary_kind not in POTENTIALS:
        known = ", ".join(sorted(POTENTIALS))
        raise ConfigError(
            f"boundary kind {cfg.boundary_kind!r} is neither 'file' nor a "
            f"named potential ({known})"
        )
    if not (0.0 < cfg.inner_fraction <= 1.0):
        raise ConfigError(
            f"inner_fraction must lie in (0, 1], got {cfg.inner_fraction}"
        )
