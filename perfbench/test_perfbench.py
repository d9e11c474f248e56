"""Self-test of the benchmark at tiny sizes (2D 33^2, 3D 17^3, field 65^2).

Run from the checkout root::

    python3 -m pytest -q perfbench/test_perfbench.py

Each workload runs once untraced and once traced.  The tests check that
every metric named in BENCHMARK.json is printed with its unit, that the
gates pass, and that the traced self times add up to the traced command
time within the measured tracing overhead.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


@pytest.fixture(scope="module", params=sorted(workloads.WORKLOADS))
def records(request):
    plain = run.run_workload(request.param, 0, 0.0, False, size="tiny")
    traced = run.run_workload(request.param, 0, 0.0, True, size="tiny")
    return plain, traced


def _units(metrics: dict) -> dict:
    return {name: m["unit"] for name, m in metrics.items()}


def test_every_metric_is_printed_with_its_unit(records):
    plain, traced = records
    assert _units(plain["result"]["metrics"]) == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert _units(traced["result"]["metrics"]) == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for rec in records:
        for m in rec["result"]["metrics"].values():
            assert isinstance(m["value"], (int, float))


def test_gates_pass_and_outputs_repeat(records):
    for rec in records:
        assert rec["failures"] == []
        line = rec["result"]
        assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 4


def test_traced_self_times_add_up_to_the_command_time(records):
    _, traced = records
    passes = traced["passes"]
    overhead = traced["result"]["metrics"]["trace.overhead_s"]["value"]
    (tp,) = [p for p in passes if p["traced"]]
    covered = sum(tp["layer_self_s"].values())
    assert all(v >= 0.0 for v in tp["layer_self_s"].values())
    assert 0.0 <= tp["wall_s"] - covered <= max(abs(overhead), 1e-3)


def test_counts_match_the_solve_report(records):
    _, traced = records
    metrics = traced["result"]["metrics"]
    (tp,) = [p for p in traced["passes"] if p["traced"]]
    cg = metrics["solver.cg_iters"]["value"]
    steps = metrics["solver.newton_steps"]["value"]
    assert cg == sum(tp["solver"]["cg_iters_per_step"]) > 0
    # one residual matvec per CG solve plus one per iteration
    assert metrics["solver.matvec_calls"]["value"] == cg + steps


def test_without_sources_it_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "area-2d",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
