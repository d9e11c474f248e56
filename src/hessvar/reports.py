"""Deterministic JSON report emission.

Reports embed the fully resolved configuration and seed, carry a ``schema``
version key, and serialize with sorted keys and shortest round-trip float
formatting, so identical inputs produce byte-identical files.  Non-finite
values are mapped to ``null`` before encoding (strict JSON has no NaN).

Result records serialize by their fields: :func:`sanitize` turns a dataclass
instance into the dict of its fields, so a report section is the record
itself.  A record has a ``to_dict`` only where its report section leaves out
or renames fields.
"""

from __future__ import annotations

import dataclasses
import json
import math

import numpy as np

SCHEMA_VERSION = 1


def sanitize(obj):
    """Recursively convert records, numpy scalars/arrays; drop non-finite floats."""
    if isinstance(obj, dict):
        return {str(k): sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [sanitize(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [sanitize(v) for v in obj.tolist()]
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, (np.floating, float)):
        val = float(obj)
        return val if math.isfinite(val) else None
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: sanitize(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    return obj


def report_text(payload: dict) -> str:
    body = dict(sanitize(payload))
    body.setdefault("schema", SCHEMA_VERSION)
    return json.dumps(body, sort_keys=True, indent=2, allow_nan=False) + "\n"


def write_report(path, payload: dict) -> None:
    with open(path, "w") as fh:
        fh.write(report_text(payload))
