import dataclasses
import json
import math

import numpy as np

from hessvar import diagnostics as diag
from hessvar import grids, reports, solver


def test_sanitize_turns_a_record_into_its_fields():
    bmo = diag.BMOResult(omega=np.float64(0.25), family_size=np.int64(7),
                         ball=grids.Ball(center=(0, 0.5), radius=0.125))
    d = reports.sanitize(bmo)
    assert list(d) == [f.name for f in dataclasses.fields(bmo)]
    assert d == {"omega": 0.25, "ball": {"center": [0.0, 0.5], "radius": 0.125},
                 "family_size": 7}
    assert type(d["omega"]) is float and type(d["family_size"]) is int


def test_sanitize_maps_non_finite_fields_to_null():
    rep = solver.SolveReport(iterations=np.int64(2), steps=[np.float64(1.0), 0.5],
                             cg_residuals=(math.nan, np.inf, 1e-3),
                             converged=np.bool_(True))
    d = reports.sanitize(rep)
    assert list(d) == [f.name for f in dataclasses.fields(rep)]
    assert d["grad_norm"] is None and d["energy"] is None    # inf and NaN defaults
    assert d["cg_residuals"] == [None, None, 1e-3]            # a tuple becomes a list
    assert d["steps"] == [1.0, 0.5] and type(d["steps"][0]) is float
    assert d["iterations"] == 2 and type(d["iterations"]) is int
    assert d["converged"] is True and d["stagnated"] is False
    json.dumps(d, allow_nan=False)
    # records nest inside a payload; a dataclass type is not a record
    assert reports.sanitize({"solver": rep, "k": [rep]}) == {"solver": d, "k": [d]}
    assert reports.sanitize(solver.SolveReport) is solver.SolveReport
