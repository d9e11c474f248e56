"""Fuzzed reader inputs: malformed grids and configs raise only the documented errors.

HVGF and CSV files are assembled from mutated headers, extents, spacings and
payloads, and config text from mutated keys and values; each reader must
either return or raise ``FormatError`` / ``ConfigError`` (CLI exit 65 / 64),
never another exception.  Examples are derandomized, so tier-1 stays
deterministic.
"""

import math
import struct

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from hessvar import gridio
from hessvar.config import ConfigError, parse_config

FUZZ = settings(max_examples=120, deadline=None, derandomize=True, database=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])

# finite spacings whose cell volume h**dim overflows (1e160) or underflows
# (1e-170, 5e-324), non-positive and non-finite ones, then arbitrary floats
SPACINGS = st.floats(1e-3, 1e3) | st.sampled_from(
    [1e160, 1e-170, 5e-324, 0.0, -0.5, float("nan"), float("inf")])
GARBAGE = st.sampled_from(["", "x", "1e400", "-inf", "nan", "0x10", "2.5", "7"])
# at most one defect per file
HVGF_MUTATIONS = st.sampled_from(["none"] * 3 + ["magic", "dim", "extents",
                                                 "huge extent", "payload", "truncate"])
CSV_MUTATIONS = st.sampled_from(["none"] * 4 + ["header", "meta", "meta length",
                                                "columns", "rows", "row", "bytes"])


@st.composite
def hvgf_files(draw):
    dim = draw(st.sampled_from([2, 3]))
    extents = draw(st.lists(st.integers(5, 9), min_size=dim, max_size=dim))
    nodes = math.prod(extents)
    per_node = draw(st.sampled_from([8, 8 * dim * (dim + 1) // 2, 1]))
    payload = draw(st.binary(min_size=per_node * nodes, max_size=per_node * nodes))
    magic, mutation = b"HVGF", draw(HVGF_MUTATIONS)
    if mutation == "magic":
        magic = draw(st.binary(max_size=4))
    elif mutation == "dim":
        dim = draw(st.sampled_from([0, 1, 4, 2**32 - 1]))
    elif mutation == "extents":
        extents[draw(st.integers(0, len(extents) - 1))] = draw(st.integers(0, 9))
    elif mutation == "huge extent":
        extents[-1] = draw(st.sampled_from([2**31, 2**32 - 1]))
    elif mutation == "payload":
        payload = payload[:draw(st.integers(0, len(payload)))] + draw(st.binary(max_size=9))
    raw = (magic + struct.pack("<I", dim) + struct.pack(f"<{len(extents)}I", *extents)
           + struct.pack("<d", draw(SPACINGS)) + payload)
    if mutation == "truncate":
        raw = raw[:draw(st.integers(0, len(raw)))]
    return raw


@st.composite
def spliced(draw, text):
    """UTF-8 bytes of ``text`` with raw bytes (maybe not UTF-8) spliced in."""
    raw = text.encode("utf-8", "surrogatepass")
    at = draw(st.integers(0, len(raw)))
    return raw[:at] + draw(st.binary(min_size=1, max_size=4)) + raw[at:]


@st.composite
def csv_files(draw):
    dim = draw(st.sampled_from([2, 3]))
    n_axes = draw(st.integers(1, 8 if dim == 2 else 4))
    ncomp = draw(st.sampled_from([1, dim * (dim + 1) // 2]))
    meta = [str(dim), str(n_axes), repr(draw(SPACINGS)), draw(st.sampled_from("23"))]
    cols = ["i", "j", "k"][:dim] + ["v"] * ncomp
    values = draw(st.lists(st.floats() | st.integers(-9, 9), min_size=ncomp, max_size=ncomp))
    rows = [[*idx, *values] for idx in np.ndindex(*(n_axes,) * dim)]
    mutation = draw(CSV_MUTATIONS)
    head = "dim,n_axes,h,boundary_width" if mutation != "header" else "dim,n_axes,h"
    if mutation == "meta":
        meta[draw(st.integers(0, 3))] = draw(GARBAGE | st.integers(-2, 5).map(str))
    elif mutation == "meta length":     # too few fields, or one too many
        meta = meta[:draw(st.integers(0, 3))] or meta + ["0"]
    elif mutation == "columns":
        cols = cols[:draw(st.integers(0, len(cols) - 1))]
    elif mutation == "rows":
        rows = rows[:draw(st.integers(0, len(rows) - 1))]
    elif mutation == "row":
        rows[draw(st.integers(0, len(rows) - 1))][-1] = draw(GARBAGE)
    text = "\n".join([head, ",".join(meta), ",".join(cols)]
                     + [",".join(map(str, r)) for r in rows]) + "\n"
    return draw(spliced(text)) if mutation == "bytes" else text.encode()


GOOD_CONFIG = {
    "model": {"kind": "area", "eta": "0.1"},
    "grid": {"dim": "2", "nodes": "17", "half_width": "0.5"},
    "boundary": {"kind": "cubic_biharmonic", "amplitude": "0.3"},
    "solver": {"max_iter": "5", "cg_rtol": "1e-10"},
    "diagnostics": {"ball_stride": "4", "r_max": "0.2", "p": "2", "tau_sigma": "0.5"},
    "hamstat": {"samples": "10"},
    "run": {"seed": "0"},
}


@st.composite
def config_texts(draw):
    sections = {s: dict(kv) for s, kv in GOOD_CONFIG.items()}
    for _ in range(draw(st.integers(0, 4))):
        section = draw(st.sampled_from(sorted(sections) + ["bogus"]))
        key = draw(st.sampled_from(sorted(sections.get(section, {"x": 0}))
                                   + ["table", "file", "rho_u", "negate", "unknown"]))
        value = draw(GARBAGE | SPACINGS.map(repr) | st.integers(-2, 70).map(str)
                     | st.sampled_from(["true", "maybe", "file", "table", "zero",
                                        "1_000", "%(x)s", "9" * 5000])
                     | st.text(max_size=8))
        sections.setdefault(section, {})[key] = value
    lines = []
    for section, kv in sections.items():
        lines.append(f"[{section}]")
        lines += [f"{k} = {v}" for k, v in kv.items()]
    text = "\n".join(lines) + "\n"
    at = draw(st.integers(0, len(text)))
    text = text[:at] + draw(st.text(max_size=12)) + text[at:]
    return draw(spliced(text)) if draw(st.booleans()) else text.encode("utf-8", "surrogatepass")


def _cell_volume(obj) -> float:
    if isinstance(obj, tuple):      # (mask, h)
        return obj[1] ** obj[0].ndim
    return obj.h ** obj.dim


@FUZZ
@given(raw=hvgf_files())
def test_read_binary_raises_only_format_error(tmp_path, raw):
    path = tmp_path / "f.hvgf"
    path.write_bytes(raw)
    try:
        obj = gridio.read_binary(path)
    except gridio.FormatError:
        return
    assert 0.0 < _cell_volume(obj) < math.inf


@FUZZ
@given(raw=csv_files())
def test_read_csv_raises_only_format_error(tmp_path, raw):
    path = tmp_path / "f.csv"
    path.write_bytes(raw)
    try:
        obj = gridio.read_csv(path)
    except gridio.FormatError:
        return
    assert 0.0 < _cell_volume(obj) < math.inf


@FUZZ
@given(raw=config_texts())
def test_parse_config_raises_only_config_error(tmp_path, raw):
    path = tmp_path / "run.cfg"
    path.write_bytes(raw)
    try:
        parse_config(path)
    except ConfigError:
        pass
