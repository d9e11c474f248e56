import dataclasses
import json
import struct
import sys
import warnings

import numpy as np
import pytest

from hessvar import diagnostics as diag
from hessvar import fixtures, gridio, grids, models
from hessvar import cli as cli_module
from hessvar.cli import run
from hessvar.config import ConfigError, RunConfig, parse_config

import oracles


def write_config(path, text):
    path.write_text(text)
    return str(path)


BASE_SOLVE = """
[model]
kind = quadratic

[grid]
dim = 2
nodes = 33
half_width = 0.5

[boundary]
kind = cubic_biharmonic
amplitude = 1.0

[solver]
init = zero

[run]
seed = 3
"""

DIAG_TAIL = """
[diagnostics]
ball_stride = 8
r_max = 0.2
r_min = 0.05
p = 2.0
alpha = 0.5
tau_sigma = 0.5
pair_budget = 600
"""


def test_parse_config_defaults_and_values(tmp_path):
    cfg = parse_config(write_config(tmp_path / "c.cfg", BASE_SOLVE))
    assert cfg.model_kind == "quadratic"
    assert cfg.nodes == 33
    assert cfg.seed == 3
    assert cfg.osc_p == 2.0  # default


def test_parse_config_reports_line_numbers(tmp_path):
    bad = "[model\nkind = quadratic\n"
    with pytest.raises(ConfigError) as err:
        parse_config(write_config(tmp_path / "bad.cfg", bad))
    assert "line 1" in str(err.value)


def test_parse_config_validates_ranges(tmp_path):
    bad = "[model]\nkind = area\neta = 1.5\n"
    with pytest.raises(ConfigError):
        parse_config(write_config(tmp_path / "bad.cfg", bad))


def test_parse_config_missing_file_reference(tmp_path):
    bad = "[boundary]\nkind = file\nfile = nope.hvgf\n"
    with pytest.raises(ConfigError):
        parse_config(write_config(tmp_path / "bad.cfg", bad))


def test_solve_end_to_end(tmp_path):
    cfg = write_config(tmp_path / "solve.cfg",
                       BASE_SOLVE.replace("nodes = 33", "nodes = 65"))
    out = tmp_path / "out"
    assert run(["solve", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "solve_report.json").read_text())
    assert report["schema"] == 1
    assert report["grad_norm"] <= report["solver"]["grad_tol"]
    assert report["config"]["seed"] == 3
    u = gridio.read_grid(out / "solution.hvgf")
    g = grids.make_grid(2, 65, 0.5)
    exact = grids.sample(g, fixtures.potential("cubic_biharmonic"))
    assert np.abs(u.values - exact.values).max() < 1e-8


def test_solve_malformed_config_exits_64(tmp_path, capsys):
    cfg = write_config(tmp_path / "bad.cfg", "[model\nkind = quadratic\n")
    assert run(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 64
    assert "line" in capsys.readouterr().err


HAMSTAT_AREA = "[model]\nkind = area\neta = 0.1\n[run]\nseed = 0\n"


def _with_setting(text, section, key, value):
    """``text`` with ``key = value`` in ``[section]``, replacing any old value."""
    lines = [ln for ln in text.splitlines() if not ln.startswith(f"{key} =")]
    header = f"[{section}]"
    if header not in lines:
        lines += ["", header]
    at = lines.index(header) + 1
    return "\n".join(lines[:at] + [f"{key} = {value}"] + lines[at:]) + "\n"


@pytest.mark.parametrize("command, section, key, value", [
    ("hamstat", "hamstat", "samples", "0"),
    ("solve", "solver", "cg_rtol", "nan"),
    ("solve", "solver", "cg_rtol", "-1"),
    ("solve", "solver", "cg_rtol", "2"),
    ("solve", "solver", "max_iter", "-3"),
    ("solve", "solver", "grad_tol", "nan"),
    ("solve", "solver", "grad_tol", "-1"),
    ("solve", "grid", "half_width", "nan"),
    ("solve", "grid", "half_width", "inf"),
    ("solve", "boundary", "amplitude", "inf"),
    ("solve", "boundary", "amplitude", "nan"),
    ("solve", "model", "rho_u", "nan"),
    # rho_u sets the area integrand's admissible radius; no quadratic run reads it
    ("solve", "model", "rho_u", "0.9"),
    # the model kinds are quadratic and area; table and negate are unknown keys
    ("solve", "model", "kind", "table"),
    ("solve", "model", "table", "x.csv"),
    ("solve", "model", "negate", "true"),
    ("hamstat", "model", "negate", "true"),
    ("diagnose", "diagnostics", "pair_budget", "-5"),
    ("diagnose", "diagnostics", "pair_budget", "0"),
    ("diagnose", "diagnostics", "ball_stride", "-1"),
    ("diagnose", "diagnostics", "r_min", "0"),
    ("diagnose", "diagnostics", "r_max", "-0.1"),
    ("diagnose", "diagnostics", "p0_k_max", "0"),
    ("diagnose", "diagnostics", "sigma_p0", "-1"),
    ("diagnose", "diagnostics", "sigma_p0", "0.5"),
    ("diagnose", "diagnostics", "tau_sigma", "-0.5"),
    ("diagnose", "diagnostics", "p", "0.5"),
    ("diagnose", "diagnostics", "p", "nan"),
    ("hamstat", "hamstat", "bump_scale", "0"),
    # a negative seed reaches numpy's generator in hamstat and diagnose
    ("hamstat", "run", "seed", "-1"),
    ("diagnose", "run", "seed", "-1"),
    # h = 2 half_width / 16 underflows h**2, or overflows it
    ("solve", "grid", "half_width", "1e-200"),
    ("hamstat", "grid", "half_width", "1e200"),
    # a node count past the float range leaves no spacing to compute
    ("solve", "grid", "nodes", "1" + "0" * 400),
])
def test_out_of_range_config_value_exits_64(tmp_path, capsys, command,
                                             section, key, value):
    base = HAMSTAT_AREA if command == "hamstat" else BASE_SOLVE
    cfg = write_config(tmp_path / "bad.cfg",
                       _with_setting(base, section, key, value))
    # the config is rejected before the field file is opened
    field = ["--field", str(tmp_path / "absent.hvgf")] if command == "diagnose" else []
    assert run([command, "--config", cfg, "--out", str(tmp_path / "o")] + field) == 64
    err = capsys.readouterr().err
    assert "config error" in err and key in err
    assert "Traceback" not in err


def test_negative_seed_option_exits_64(tmp_path, capsys):
    cfg = write_config(tmp_path / "h.cfg", HAMSTAT_AREA)
    assert run(["hamstat", "--config", cfg, "--out", str(tmp_path / "o"),
                "--seed", "-3"]) == 64
    err = capsys.readouterr().err
    assert "--seed must be >= 0, got -3" in err
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["diagnose", "campanato"])
def test_inverted_radii_config_exits_64(tmp_path, capsys, command):
    text = _with_setting(BASE_SOLVE + DIAG_TAIL, "diagnostics", "r_min", "0.3")
    cfg = write_config(tmp_path / "bad.cfg", text)
    with pytest.raises(ConfigError, match="r_min = 0.3 exceeds r_max = 0.2"):
        parse_config(cfg)
    field = ["--field", str(tmp_path / "absent.hvgf")]
    assert run([command, "--config", cfg, "--out", str(tmp_path / "o")] + field) == 64
    err = capsys.readouterr().err
    assert "config error" in err and "r_min" in err and "r_max" in err


def test_solve_usage_error_exits_64(tmp_path):
    assert run(["solve", "--out", str(tmp_path)]) == 64


def test_solve_inadmissible_boundary_exits_65(tmp_path, capsys):
    text = BASE_SOLVE.replace("kind = quadratic", "kind = area\neta = 0.5")
    text = text.replace("amplitude = 1.0", "amplitude = 3.0")
    text = text.replace("init = zero", "init = boundary")
    cfg = write_config(tmp_path / "area.cfg", text)
    assert run(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 65
    assert "node" in capsys.readouterr().err


def test_solve_max_iter_flag_exit_2(tmp_path):
    text = BASE_SOLVE.replace("init = zero", "init = zero\nmax_iter = 0")
    cfg = write_config(tmp_path / "cap.cfg", text)
    assert run(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


# the finite check reports the overflow; numpy warns of none of it
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("dim, nodes, amplitude, kind", [
    (2, 17, "1e160", "quadratic"), (3, 11, "1e200", "quadratic"), (2, 17, "1e160", "area")],
    ids=["2-17-1e160", "3-11-1e200", "2-17-1e160-area"])
def test_solve_overflowing_energy_exits_65(tmp_path, capsys, dim, nodes, amplitude, kind):
    text = BASE_SOLVE.replace("dim = 2", f"dim = {dim}")
    text = text.replace("kind = quadratic", f"kind = {kind}")
    text = text.replace("nodes = 33", f"nodes = {nodes}")
    text = text.replace("amplitude = 1.0", f"amplitude = {amplitude}")
    text = text.replace("init = zero", "init = boundary")
    cfg = write_config(tmp_path / "huge.cfg", text)
    assert run(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 65
    err = capsys.readouterr().err
    assert "data error" in err and "finite" in err
    assert len(err.splitlines()) == 1, err
    assert "Traceback" not in err
    assert not (tmp_path / "o" / "solve_report.json").exists()


def test_solve_stagnated_gradient_exits_2(tmp_path):
    # grad_tol lies below the round-off floor of this 65^2 area gradient
    text = BASE_SOLVE.replace("kind = quadratic", "kind = area\nrho_u = 0.9")
    text = text.replace("nodes = 33", "nodes = 65")
    text = text.replace("kind = cubic_biharmonic\namplitude = 1.0",
                        "kind = harmonic_exp\namplitude = 0.3")
    text = text.replace("init = zero", "init = boundary\ngrad_tol = 1e-12\nmax_iter = 8")
    cfg = write_config(tmp_path / "stall.cfg", text)
    out = tmp_path / "o"
    assert run(["solve", "--config", cfg, "--out", str(out)]) == 2
    report = json.loads((out / "solve_report.json").read_text())["solver"]
    assert report["stagnated"] and not report["converged"]
    assert report["iterations"] < 8
    assert len(report["cg_forcing"]) == report["iterations"]


def test_solve_max_iter_zero_converged_start_exits_0(tmp_path):
    # the sampled cubic is the exact discrete solution: no step is needed
    text = BASE_SOLVE.replace("init = zero", "init = boundary\nmax_iter = 0")
    cfg = write_config(tmp_path / "cap.cfg", text)
    out = tmp_path / "o"
    assert run(["solve", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "solve_report.json").read_text())
    assert report["iterations"] == 0
    assert np.isfinite(report["solver"]["grad_tol"])
    assert report["grad_norm"] <= report["solver"]["grad_tol"]


def _constant_field_file(tmp_path, packed):
    g = grids.make_grid(2, 65, 0.5)
    field = grids.SymMatField(h=g.h, origin=g.origin,
                              values=np.broadcast_to(packed, g.extents + (3,)).copy())
    fpath = tmp_path / "const.hvgf"
    gridio.write_binary(fpath, field)
    return str(fpath)


def test_diagnose_constant_field(tmp_path):
    fpath = _constant_field_file(tmp_path, np.array([1.0, 0.0, 1.0]))
    cfg = write_config(tmp_path / "d.cfg", BASE_SOLVE + DIAG_TAIL)
    out = tmp_path / "diag"
    assert run(["diagnose", "--config", cfg, "--field", fpath, "--out", str(out)]) == 0
    rep = json.loads((out / "diagnostics.json").read_text())
    assert rep["bmo"]["omega"] == 0.0
    assert rep["bmo"]["small_bmo_regime"] is True
    assert rep["jn"]["degenerate"] is True
    assert rep["sigma"]["flagged"] == 0
    mask, h = gridio.read_binary(out / "sigma_mask.hvgf")
    assert mask.sum() == 0


def test_diagnose_on_solver_output_flags_small_bmo(tmp_path):
    # end-to-end: solve with smooth clamped data, diagnose the Hessian of
    # the solution; the measured modulus sits below the configured cutoff
    cfg = write_config(tmp_path / "s.cfg",
                       BASE_SOLVE.replace("nodes = 33", "nodes = 65")
                       + DIAG_TAIL + "omega_threshold = 0.5\n")
    out = tmp_path / "solve"
    assert run(["solve", "--config", cfg, "--out", str(out)]) == 0
    u = gridio.read_grid(out / "solution.hvgf")
    field = grids.hessian_field(u)
    fpath = tmp_path / "hess.hvgf"
    gridio.write_binary(fpath, field)
    dout = tmp_path / "diag"
    assert run(["diagnose", "--config", cfg, "--field", str(fpath),
                "--out", str(dout)]) == 0
    rep = json.loads((dout / "diagnostics.json").read_text())
    assert rep["bmo"]["omega"] < 0.5
    assert rep["bmo"]["small_bmo_regime"] is True
    assert rep["holder"]["seminorm"] > 0.0


def test_diagnose_requires_tau_sigma(tmp_path):
    g = grids.make_grid(2, 33, 0.5)
    field = grids.hessian_field(grids.sample(g, lambda x, y: x**2))
    fpath = tmp_path / "f.hvgf"
    gridio.write_binary(fpath, field)
    cfg = write_config(tmp_path / "d.cfg", BASE_SOLVE)  # no diagnostics section
    assert run(["diagnose", "--config", cfg, "--field", str(fpath),
                "--out", str(tmp_path / "o")]) == 64


def test_diagnose_jump_field_mask_and_dimension(tmp_path):
    g = grids.make_grid(2, 65, 0.5)
    field = oracles.hyperplane_jump_field(g, np.eye(2))
    fpath = tmp_path / "jump.hvgf"
    gridio.write_binary(fpath, field)
    tail = DIAG_TAIL.replace("tau_sigma = 0.5",
                             f"tau_sigma = {0.5 * np.pi * 2 ** 1.25}\nsigma_p0 = 2.5")
    cfg = write_config(tmp_path / "d.cfg", BASE_SOLVE + tail)
    out = tmp_path / "diag"
    assert run(["diagnose", "--config", cfg, "--field", str(fpath),
                "--out", str(out)]) == 0
    rep = json.loads((out / "diagnostics.json").read_text())
    assert rep["sigma"]["flagged"] > 0
    assert abs(rep["sigma"]["box_dim"] - 1.0) <= 0.3


def test_diagnose_missing_field_exits_65(tmp_path):
    cfg = write_config(tmp_path / "d.cfg", BASE_SOLVE + DIAG_TAIL)
    assert run(["diagnose", "--config", cfg, "--field",
                str(tmp_path / "absent.hvgf"), "--out", str(tmp_path / "o")]) == 65


def _diagnose_corrupted_field(tmp_path, corrupt, writer=gridio.write_binary,
                              name="f.hvgf"):
    g = grids.make_grid(2, 33, 0.5)
    fpath = tmp_path / name
    writer(fpath, grids.hessian_field(grids.sample(g, lambda x, y: x**2)))
    fpath.write_bytes(corrupt(fpath.read_bytes()))
    cfg = write_config(tmp_path / "d.cfg", BASE_SOLVE + DIAG_TAIL)
    return run(["diagnose", "--config", cfg, "--field", str(fpath),
                "--out", str(tmp_path / "o")])


def test_diagnose_truncated_header_exits_65(tmp_path, capsys):
    # magic + dim + one of two extents
    assert _diagnose_corrupted_field(tmp_path, lambda raw: raw[:12]) == 65
    assert "truncated header" in capsys.readouterr().err


@pytest.mark.parametrize("fmt", ["hvgf", "csv"])
def test_diagnose_nan_spacing_exits_65(tmp_path, capsys, fmt):
    if fmt == "hvgf":
        # h sits after the magic, the dim and two u32 extents
        nan_h = struct.pack("<d", float("nan"))
        code = _diagnose_corrupted_field(
            tmp_path, lambda raw: raw[:16] + nan_h + raw[24:])
    else:
        # second line is the metadata row dim,n_axes,h,boundary_width
        code = _diagnose_corrupted_field(
            tmp_path, lambda raw: raw.replace(b"\n2,33,0.03125,2\n", b"\n2,33,nan,2\n"),
            gridio.write_csv, "f.csv")
    assert code == 65
    assert "grid spacing" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["diagnose", "campanato"])
def test_huge_spacing_exits_65(tmp_path, capsys, command):
    # finite and positive, but the cell volume h**2 overflows a float
    g = grids.make_grid(2, 33, 0.5)
    fpath = tmp_path / "huge.hvgf"
    gridio.write_binary(fpath, grids.SymMatField(
        h=1e160, origin=g.origin, values=np.zeros(g.extents + (3,))))
    cfg = write_config(tmp_path / "d.cfg", BASE_SOLVE + DIAG_TAIL)
    assert run([command, "--config", cfg, "--field", str(fpath),
                "--out", str(tmp_path / "o")]) == 65
    assert "grid spacing" in capsys.readouterr().err


def test_spacing_whose_fourth_order_scale_overflows_exits_64(tmp_path, capsys):
    # h = 1.25e-101 on 17 nodes: h**2 is a normal float, 1/h**4 overflows
    text = _with_setting(_with_setting(BASE_SOLVE, "grid", "nodes", "17"),
                         "grid", "half_width", "1e-100")
    cfg = write_config(tmp_path / "tiny.cfg", text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 64
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "config error" in err and "1/h**4" in err
    assert not (tmp_path / "o").exists()
    # a grid file at that spacing is a data error, as gridio checks the same rule
    assert not grids.spacing_ok(1e-80, 2) and grids.spacing_ok(1e-70, 2)
    g = grids.make_grid(2, 33, 0.5)
    fpath = tmp_path / "tiny.hvgf"
    gridio.write_binary(fpath, grids.SymMatField(
        h=1e-80, origin=g.origin, values=np.zeros(g.extents + (3,))))
    cfg = write_config(tmp_path / "d.cfg", BASE_SOLVE + DIAG_TAIL)
    assert run(["diagnose", "--config", cfg, "--field", str(fpath),
                "--out", str(tmp_path / "o")]) == 65
    assert "1/h**4" in capsys.readouterr().err


@pytest.mark.parametrize("dim, nodes", [(2, 10**12), (3, 10**6), (2, 10**400)])
def test_node_count_no_array_can_hold_exits_64(tmp_path, capsys, dim, nodes):
    # counts numpy refuses before allocating anything: a grid of them is
    # past the largest array size
    text = _with_setting(_with_setting(BASE_SOLVE, "grid", "nodes", str(nodes)),
                         "grid", "dim", str(dim))
    cfg = write_config(tmp_path / "big.cfg", text)
    assert run(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 64
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "config error" in err and "nodes" in err
    assert "Traceback" not in err


def test_out_of_memory_is_one_line_and_exit_65(tmp_path, capsys, monkeypatch):
    # a grid that fits an array but not the memory ends in MemoryError;
    # simulated, so that nothing is allocated
    def no_memory(*args):
        raise MemoryError("Unable to allocate 74.5 GiB for an array")

    monkeypatch.setattr(cli_module, "make_grid", no_memory)
    cfg = write_config(tmp_path / "c.cfg", BASE_SOLVE)
    assert run(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 65
    err = capsys.readouterr().err
    assert err == "hessvar: data error: out of memory: Unable to allocate 74.5 GiB for an array\n"


@pytest.mark.parametrize("broken, code", [("config", 64), ("field", 65)])
def test_non_utf8_text_input_exits_documented_code(tmp_path, capsys, broken, code):
    g = grids.make_grid(2, 33, 0.5)
    fpath = tmp_path / "f.csv"
    gridio.write_csv(fpath, grids.hessian_field(grids.sample(g, lambda x, y: x**2)))
    cfg = write_config(tmp_path / "d.cfg", BASE_SOLVE + DIAG_TAIL)
    target = {"config": tmp_path / "d.cfg", "field": fpath}[broken]
    target.write_bytes(b"\xff\xfe" + target.read_bytes())
    assert run(["diagnose", "--config", cfg, "--field", str(fpath),
                "--out", str(tmp_path / "o")]) == code
    assert "not UTF-8 text" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["diagnose", "campanato"])
def test_all_nan_field_exits_65(tmp_path, capsys, command):
    g = grids.make_grid(2, 33, 0.5)
    fpath = tmp_path / "nan.hvgf"
    gridio.write_binary(fpath, grids.SymMatField(
        h=g.h, origin=g.origin, values=np.full(g.extents + (3,), np.nan)))
    cfg = write_config(tmp_path / "d.cfg", BASE_SOLVE + DIAG_TAIL)
    assert run([command, "--config", cfg, "--field", str(fpath),
                "--out", str(tmp_path / "o")]) == 65
    assert "data error" in capsys.readouterr().err


def test_hamstat_special_lagrangian_fixture(tmp_path):
    text = """
[model]
kind = area
eta = 0.1

[grid]
dim = 2
nodes = 33
half_width = 0.5

[boundary]
kind = cubic_harmonic
amplitude = 0.2

[hamstat]
samples = 400
bump_scale = 0.25

[run]
seed = 11
"""
    cfg = write_config(tmp_path / "h.cfg", text)
    out = tmp_path / "hs"
    assert run(["hamstat", "--config", cfg, "--out", str(out)]) == 0
    rep = json.loads((out / "hamstat_report.json").read_text())
    assert rep["phase"]["sup_abs"] <= 1e-12
    assert rep["certificate"]["C_eta"] == pytest.approx(0.0580, abs=5e-4)
    assert rep["certificate"]["diagonal_check"] == "pass"
    assert rep["residuals"]["variational_sup"] <= 1e-10
    phase = gridio.read_grid(out / "phase.hvgf")
    assert phase.extents == (33, 33)
    metric = gridio.read_field(out / "metric.hvgf")
    # metric entries g = I + M^2 have unit diagonal where the Hessian is zero
    center = metric.values[16, 16]
    assert center[0] >= 1.0 and center[2] >= 1.0


def test_hamstat_3d_smoke(tmp_path):
    text = """
[model]
kind = area
eta = 0.25

[grid]
dim = 3
nodes = 13
half_width = 0.5

[boundary]
kind = quadratic_iso
amplitude = 0.2

[hamstat]
samples = 200
bump_scale = 0.2

[run]
seed = 4
"""
    cfg = write_config(tmp_path / "h3.cfg", text)
    out = tmp_path / "hs3"
    assert run(["hamstat", "--config", cfg, "--out", str(out)]) == 0
    rep = json.loads((out / "hamstat_report.json").read_text())
    # constant Hessian: constant phase, zero residuals
    assert rep["residuals"]["variational_sup"] <= 1e-12
    assert rep["residuals"]["harmonicity"]["sup"] <= 1e-10
    assert rep["certificate"]["diagonal_check"] == "pass"


def test_hamstat_bump_outside_interior_exits_65(tmp_path, capsys):
    text = """
[model]
kind = area
eta = 0.1

[grid]
dim = 2
nodes = 17
half_width = 0.5

[boundary]
kind = cubic_harmonic
amplitude = 0.2

[hamstat]
bump_scale = 5.0

[run]
seed = 0
"""
    cfg = write_config(tmp_path / "h.cfg", text)
    assert run(["hamstat", "--config", cfg, "--out", str(tmp_path / "o")]) == 65
    err = capsys.readouterr().err
    assert "bump at (0.0, 0.0) with scale 5.0 leaves the interior" in err
    assert "np.float64" not in err


HAMSTAT_FILE = """
[model]
kind = area
eta = 0.1

[grid]
dim = {dim}
nodes = {nodes}
half_width = 0.5

[boundary]
kind = file
file = {file}

[hamstat]
samples = 50
bump_scale = 0.25

[run]
seed = 0
"""


def test_hamstat_builds_hessian_and_metric_once(tmp_path, monkeypatch):
    hess_calls, metric_shapes = [], []
    orig_hess, orig_metric = grids.hessian_field, models.graph_metric_packed

    def counting_hessian(u):
        hess_calls.append(u.extents)
        return orig_hess(u)

    def counting_metric(c):
        metric_shapes.append(np.shape(c[0]))
        return orig_metric(c)

    # the function is imported by name into several modules
    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "hessvar" and getattr(mod, "hessian_field", None) is orig_hess:
            monkeypatch.setattr(mod, "hessian_field", counting_hessian)
    monkeypatch.setattr(models, "graph_metric_packed", counting_metric)
    g = grids.make_grid(2, 33, 0.5)
    gridio.write_binary(tmp_path / "u.hvgf",
                        grids.sample(g, fixtures.potential("cubic_biharmonic", 0.3)))
    cfg = write_config(tmp_path / "h.cfg",
                       HAMSTAT_FILE.format(dim=2, nodes=33, file="u.hvgf"))
    assert run(["hamstat", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    assert hess_calls == [(33, 33)]
    # the metric is built on the 31^2 valid nodes only; the convexity
    # certificate evaluates the area model on its 50 samples
    assert [s for s in metric_shapes if s != (50,)] == [(31 * 31,)]


def test_hamstat_potential_extents_mismatch_exits_65(tmp_path, capsys):
    g = grids.make_grid(2, 33, 0.5)
    gridio.write_binary(tmp_path / "u.hvgf",
                        grids.sample(g, fixtures.potential("cubic_harmonic", 0.2)))
    cfg = write_config(tmp_path / "h.cfg",
                       HAMSTAT_FILE.format(dim=3, nodes=17, file="u.hvgf"))
    out = tmp_path / "o"
    assert run(["hamstat", "--config", cfg, "--out", str(out)]) == 65
    err = capsys.readouterr().err
    assert "(33, 33) do not match the configured grid (17, 17, 17)" in err
    assert not (out / "hamstat_report.json").exists()


@pytest.mark.parametrize("fmt, bad", [("hvgf", np.nan), ("csv", np.inf)],
                         ids=["hvgf-nan", "csv-inf"])
def test_hamstat_nonfinite_potential_exits_65(tmp_path, capsys, fmt, bad):
    g = grids.make_grid(2, 33, 0.5)
    vals = np.array(grids.sample(g, fixtures.potential("cubic_harmonic", 0.2)).values)
    vals[10:20, 12:22] = bad
    path = tmp_path / f"u.{fmt}"
    (gridio.write_binary if fmt == "hvgf" else gridio.write_csv)(
        path, g.with_values(vals))
    cfg = write_config(tmp_path / "h.cfg",
                       HAMSTAT_FILE.format(dim=2, nodes=33, file=path.name))
    for command in ("hamstat", "solve"):
        assert run([command, "--config", cfg, "--out", str(tmp_path / command)]) == 65
        err = capsys.readouterr().err
        assert f"u.{fmt}: non-finite potential value at node (10, 12)" in err
    assert not (tmp_path / "hamstat" / "hamstat_report.json").exists()


def test_boundary_file_at_another_spacing_exits_65(tmp_path, capsys):
    # same extents as the 17^2 grid of half-width 0.5, at twice its spacing
    g = grids.make_grid(2, 17, 1.0)
    gridio.write_binary(tmp_path / "u.hvgf",
                        grids.sample(g, fixtures.potential("quadratic_iso", 0.2)))
    cfg = write_config(tmp_path / "h.cfg",
                       HAMSTAT_FILE.format(dim=2, nodes=17, file="u.hvgf"))
    for command in ("hamstat", "solve"):
        assert run([command, "--config", cfg, "--out", str(tmp_path / command)]) == 65
        err = capsys.readouterr().err
        assert ("boundary file spacing 0.125 does not match the configured "
                "grid spacing 0.0625") in err
        assert not list((tmp_path / command).glob("*.json"))


@pytest.mark.parametrize("init", ["zero", "boundary"])
def test_solve_from_a_boundary_file_matches_the_named_potential(tmp_path, init):
    # a file sampled on the configured grid is the same data as the named
    # potential: both solves write the same solution and the same numbers
    text = BASE_SOLVE.replace("nodes = 33", "nodes = 17").replace(
        "init = zero", f"init = {init}")
    g = grids.make_grid(2, 17, 0.5)
    gridio.write_binary(tmp_path / "u.hvgf",
                        grids.sample(g, fixtures.potential("cubic_biharmonic", 1.0)))
    named = write_config(tmp_path / "named.cfg", text)
    filed = write_config(tmp_path / "file.cfg", text.replace(
        "kind = cubic_biharmonic\namplitude = 1.0", "kind = file\nfile = u.hvgf"))
    for cfg, out in ((named, "a"), (filed, "b")):
        assert run(["solve", "--config", cfg, "--out", str(tmp_path / out)]) == 0
    a, b = (json.loads((tmp_path / out / "solve_report.json").read_text())
            for out in "ab")
    assert (tmp_path / "a" / "solution.hvgf").read_bytes() == (
        tmp_path / "b" / "solution.hvgf").read_bytes()
    assert a["solver"] == b["solver"] and a["energy"] == b["energy"]
    assert b["config"]["boundary_kind"] == "file"


def test_nonfinite_named_potential_exits_65(tmp_path, capsys):
    # exp(x) overflows on the grid of half-width 1000
    text = _with_setting(HAMSTAT_AREA, "grid", "half_width", "1000")
    text = _with_setting(text, "boundary", "kind", "harmonic_exp")
    cfg = write_config(tmp_path / "h.cfg", text)
    for command in ("hamstat", "solve"):
        assert run([command, "--config", cfg, "--out", str(tmp_path / command)]) == 65
        err = capsys.readouterr().err
        assert "[boundary] kind 'harmonic_exp': non-finite potential value at node" in err
        assert not list((tmp_path / command).glob("*.json"))


def test_hamstat_invalid_eta_exits_64(tmp_path):
    text = "[model]\nkind = area\neta = 0.1\n[run]\nseed = 0\n"
    bad = text.replace("eta = 0.1", "eta = 1.2")
    cfg = write_config(tmp_path / "h.cfg", bad)
    assert run(["hamstat", "--config", cfg, "--out", str(tmp_path / "o")]) == 64


def test_campanato_command(tmp_path):
    g = grids.make_grid(2, 129, 0.5)
    X = g.coords()[0]
    field = grids.SymMatField(
        h=g.h, origin=g.origin,
        values=X[..., None] * np.array([1.0, 0.0, -1.0]))
    fpath = tmp_path / "lin.hvgf"
    gridio.write_binary(fpath, field)
    cfg = write_config(tmp_path / "c.cfg", BASE_SOLVE + DIAG_TAIL)
    out = tmp_path / "camp"
    assert run(["campanato", "--config", cfg, "--field", str(fpath),
                "--out", str(out)]) == 0
    rep = json.loads((out / "campanato.json").read_text())
    assert rep["fit"]["slope"] == pytest.approx(4.0, abs=0.1)
    lines = (out / "campanato.csv").read_text().strip().splitlines()
    assert lines[0] == "rho,oscillation,integral"
    assert len(lines) == 1 + len(rep["curve"]["radii"])


def test_diagnose_zero_field_writes_null_constants(tmp_path):
    # every reverse-Hoelder ratio is 0/0, so every gehring constant is NaN
    fpath = _constant_field_file(tmp_path, np.zeros(3))
    cfg = write_config(tmp_path / "d.cfg", BASE_SOLVE + DIAG_TAIL)
    out = tmp_path / "diag"
    assert run(["diagnose", "--config", cfg, "--field", fpath, "--out", str(out)]) == 0
    rep = json.loads((out / "diagnostics.json").read_text())
    constants = rep["gehring"]["constants"]
    assert len(constants) == 5 and all(row == [None] * 3 for row in constants)
    assert rep["bmo"]["omega"] == 0.0 and rep["jn"] == {"p": 2.0, "cbar": 0.0, "degenerate": True}
    assert sorted(rep["bmo"]) == sorted([f.name for f in dataclasses.fields(diag.BMOResult)]
                                        + ["small_bmo_regime", "omega_threshold"])
    assert set(rep["campanato"]) == {"curve", "fit"}
    assert rep["campanato"]["fit"]["degenerate"] is True


def test_campanato_constant_field_writes_null_iteration_lemma(tmp_path):
    fpath = _constant_field_file(tmp_path, np.array([1.0, 0.5, -2.0]))
    cfg = write_config(tmp_path / "c.cfg", BASE_SOLVE + DIAG_TAIL)
    out = tmp_path / "camp"
    assert run(["campanato", "--config", cfg, "--field", fpath, "--out", str(out)]) == 0
    rep = json.loads((out / "campanato.json").read_text())
    assert rep["iteration_lemma"] is None
    assert rep["fit"]["degenerate"] is True
    assert set(rep["fit"]) == {f.name for f in dataclasses.fields(diag.DecayFit)}
    assert set(rep["curve"]) == {f.name for f in dataclasses.fields(diag.OscillationCurve)}
    assert rep["config"]["seed"] == 3 and set(rep["config"]) == {
        f.name for f in dataclasses.fields(RunConfig)}


def test_report_merge(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text('{"schema": 1, "x": 1}\n')
    b.write_text('{"schema": 1, "y": [1.5, null]}\n')
    out = tmp_path / "merged.json"
    assert run(["report-merge", str(a), str(b), "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["reports"]["a"]["x"] == 1
    assert rep["reports"]["b"]["y"] == [1.5, None]


def test_report_merge_bad_json_exits_65(tmp_path):
    a = tmp_path / "a.json"
    a.write_text("not json")
    assert run(["report-merge", str(a), "--out", str(tmp_path / "m.json")]) == 65


@pytest.mark.parametrize("raw, message", [
    (b'{"a": "\xff"}', "not UTF-8 text"),
    (b"[" * 100000 + b"]" * 100000, "not valid JSON"),   # nested past the recursion limit
], ids=["non-utf8", "too-deep"])
def test_report_merge_undecodable_exits_65(tmp_path, capsys, raw, message):
    a = tmp_path / "a.json"
    a.write_bytes(raw)
    assert run(["report-merge", str(a), "--out", str(tmp_path / "m.json")]) == 65
    assert message in capsys.readouterr().err


def test_determinism_byte_identical_reports(tmp_path):
    g = grids.make_grid(2, 65, 0.5)
    field = grids.hessian_field(grids.sample(
        g, fixtures.potential("cubic_biharmonic", 0.5)))
    fpath = tmp_path / "f.hvgf"
    gridio.write_binary(fpath, field)
    cfg = write_config(tmp_path / "d.cfg", BASE_SOLVE + DIAG_TAIL)
    outs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        assert run(["diagnose", "--config", cfg, "--field", str(fpath),
                    "--out", str(out), "--seed", "17"]) == 0
        outs.append((out / "diagnostics.json").read_bytes())
    assert outs[0] == outs[1]

    souts = []
    for name in ("s1", "s2"):
        out = tmp_path / name
        assert run(["solve", "--config", cfg, "--out", str(out)]) == 0
        souts.append((out / "solve_report.json").read_bytes())
    assert souts[0] == souts[1]


def test_threads_config_key_exits_64(tmp_path, capsys, monkeypatch):
    # the environment variable of the removed thread setting is ignored
    monkeypatch.setenv("HESSVAR_THREADS", "not a number")
    cfg = write_config(tmp_path / "s.cfg", BASE_SOLVE + "threads = 2\n")
    assert run(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 64
    assert "unknown key 'threads' in [run]" in capsys.readouterr().err
    cfg = write_config(tmp_path / "ok.cfg", BASE_SOLVE)
    out = tmp_path / "out"
    assert run(["solve", "--config", cfg, "--out", str(out)]) == 0
    assert "threads" not in json.loads((out / "solve_report.json").read_text())["config"]


def test_threads_option_exits_64(tmp_path, capsys):
    cfg = write_config(tmp_path / "s.cfg", BASE_SOLVE)
    assert run(["solve", "--config", cfg, "--out", str(tmp_path / "o"),
                "--threads", "2"]) == 64
    assert "--threads" in capsys.readouterr().err
