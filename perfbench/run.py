"""Benchmark of the ``hessvar`` CLI: three pipelines timed end to end.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload area-2d --seed 0 --seconds 42 --trace 0
    python3 perfbench/run.py --workload all --seed 0

Load model: a closed loop with one client.  Each pass is one child
interpreter (``child.py``) that runs a workload's commands back to back
through ``hessvar.cli.run``; passes run one at a time until ``--seconds``
would be exceeded, and at least one runs.  Before each pass a set-up-only
child times start-up, ``import hessvar`` and input generation once more,
so the set-up samples spread over the run like the passes.

``--trace 0`` prints the end-to-end metrics (medians over passes).  They
are the ones that stay seconds long on every workload: on this kind of
shared two-core host the speed drifts by tens of percent over ten-second
spans, and a command that takes 0.05-0.5 s (``hamstat`` everywhere,
``diagnose`` on the area workloads) spreads past any useful bound.  Those
command times are printed by ``--trace 1`` instead, as ``cli.<command>_s``.
``--trace 1`` alternates untraced and traced passes and prints the
per-layer metrics of the traced ones; ``trace.overhead_s`` is the traced
minus the untraced median wall time.

Every command's outputs pass a gate (``workloads.gate``) and every file a
pass writes must hash the same in every pass.  The last stdout line is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``; the run
record with the host block goes to ``.perfbench_runs/``.  The exit code is
non-zero on any failure, and without a result when the program cannot be
run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from spans import LAYERS  # noqa: E402
from workloads import BLAS_THREADS, THREAD_VARS  # noqa: E402

RUNS_DIR = os.path.join(ROOT, ".perfbench_runs")
RUN_CAP_S = 170.0       # a run must end within 180 s


class BenchError(RuntimeError):
    """The program could not be run; no result is printed."""


# ------------------------------------------------------------- metrics

def end_to_end(setups, plain) -> dict:
    values = {
        "setup_s": (median(setups), "s"),
        "wall_s": (median(p["wall_s"] for p in plain), "s"),
        "solve_s": (median(p["command_s"]["solve"] for p in plain), "s"),
        "peak_rss_mb": (median(p["peak_rss_mb"] for p in plain), "MB"),
    }
    return {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}


def _total(name):
    return lambda p: p["spans"].get(name, {}).get("total_s", 0.0)


def _self(name):
    return lambda p: p["spans"].get(name, {}).get("self_s", 0.0)


def _calls(name):
    return lambda p: p["spans"].get(name, {}).get("calls", 0)


def _per_call_ms(name):
    return lambda p: 1e3 * _total(name)(p) / max(_calls(name)(p), 1)


# (name, unit, value of one traced pass); units "count"/"B" must repeat
PER_LAYER = [
    ("solver.cg_iters", "count", lambda p: p["solver"].get("cg_iters", 0)),
    ("solver.newton_steps", "count",
     lambda p: p["solver"].get("newton_steps", 0)),
    ("solver.backtracks", "count", lambda p: p["solver"].get("backtracks", 0)),
    ("solver.matvec_calls", "count", _calls("solver.matvec")),
    ("solver.matvec_s", "s", _total("solver.matvec")),
    ("solver.matvec_ms_per_call", "ms", _per_call_ms("solver.matvec")),
    ("solver.cg_self_s", "s", _self("solver.conjugate_gradient")),
    ("solver.jacobi_diagonal_s", "s", _total("solver.jacobi_diagonal")),
    ("solver.assemble_energy_s", "s", _total("solver.assemble_energy")),
    ("solver.assemble_energy_calls", "count", _calls("solver.assemble_energy")),
    ("solver.energy_gradient_s", "s", _total("solver.energy_gradient")),
    ("solver.energy_gradient_calls", "count", _calls("solver.energy_gradient")),
    ("solver.minimize_self_s", "s", _self("solver.minimize_clamped")),
    ("models.eval_F_s", "s", _total("models.eval_F")),
    ("models.eval_F_calls", "count", _calls("models.eval_F")),
    ("models.eval_dF_s", "s", _total("models.eval_dF")),
    ("models.eval_dF_calls", "count", _calls("models.eval_dF")),
    ("models.eval_d2F_s", "s", _total("models.eval_d2F")),
    ("models.eval_d2F_calls", "count", _calls("models.eval_d2F")),
    ("models.tensor_apply_s", "s", _total("models.tensor_apply")),
    ("symmat.sym_eigvals_s", "s", _total("symmat.sym_eigvals")),
    ("symmat.sym_eigvals_calls", "count", _calls("symmat.sym_eigvals")),
    ("symmat.op_norm_calls", "count", _calls("symmat.op_norm")),
    ("grids.hessian_field_s", "s", _total("grids.hessian_field")),
    ("grids.hessian_field_calls", "count", _calls("grids.hessian_field")),
    ("grids.hessian_adjoint_s", "s", _total("grids.hessian_adjoint")),
    ("grids.hessian_adjoint_calls", "count", _calls("grids.hessian_adjoint")),
    ("grids.shifted_s", "s", _total("grids.shifted")),
    ("grids.shifted_calls", "count", _calls("grids.shifted")),
    ("grids.ball_family_s", "s", _total("grids.ball_family")),
    ("grids.ball_mask_s", "s", _total("grids.ball_mask")),
    ("diagnostics.mean_oscillation_s", "s", _total("diagnostics.mean_oscillation")),
    ("diagnostics.mean_oscillation_calls", "count",
     _calls("diagnostics.mean_oscillation")),
    ("diagnostics.balls", "count", lambda p: p.get("balls", 0)),
    ("diagnostics.bmo_modulus_s", "s", _total("diagnostics.bmo_modulus")),
    ("diagnostics.john_nirenberg_ratio_s", "s",
     _total("diagnostics.john_nirenberg_ratio")),
    ("diagnostics.singular_set_s", "s", _total("diagnostics.singular_set")),
    ("diagnostics.fit_p0_s", "s", _total("diagnostics.fit_p0")),
    ("diagnostics.reverse_holder_check_s", "s",
     _total("diagnostics.reverse_holder_check")),
    ("diagnostics.holder_seminorm_s", "s", _total("diagnostics.holder_seminorm")),
    ("diagnostics.box_counting_dimension_s", "s",
     _total("diagnostics.box_counting_dimension")),
    ("diagnostics.campanato_decay_s", "s", _total("diagnostics.campanato_decay")),
    ("hamstat.lagrangian_phase_s", "s", _total("hamstat.lagrangian_phase")),
    ("hamstat.induced_metric_s", "s", _total("hamstat.induced_metric")),
    ("hamstat.hamstat_residual_s", "s", _total("hamstat.hamstat_residual")),
    ("hamstat.phase_harmonicity_residual_s", "s",
     _total("hamstat.phase_harmonicity_residual")),
    ("hamstat.convexity_certificate_s", "s",
     _total("hamstat.convexity_certificate")),
    # seconds in gridio read_*/write_* spans not nested in another one
    ("gridio.read_s", "s", lambda p: p["gridio"]["read"]),
    ("gridio.write_s", "s", lambda p: p["gridio"]["write"]),
    ("gridio.bytes_written", "B", lambda p: p["bytes_written"]),
] + [
    (f"layer.{layer}_self_s", "s", lambda p, layer=layer: p["layer_self_s"][layer])
    for layer in LAYERS
] + [
    ("trace.spans", "count", lambda p: p["span_count"]),
]

EXACT_UNITS = ("count", "B")


def per_layer(plain, traced) -> tuple[dict, list]:
    """Medians of the traced passes' layer metrics, and the names of counts
    that did not repeat exactly across traced passes."""
    out, unsteady = {}, []
    for name, unit, get in PER_LAYER:
        values = [get(p) for p in traced]
        if unit in EXACT_UNITS:
            if len(set(values)) != 1:
                unsteady.append(name)
            value = values[0]
        else:
            value = median(values)
        out[name] = {"value": value, "unit": unit}
    overhead = (median(p["wall_s"] for p in traced)
                - median(p["wall_s"] for p in plain))
    out["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    for cmd in workloads.COMMANDS:
        out[f"cli.{cmd}_s"] = {
            "value": median(p["command_s"][cmd] for p in plain), "unit": "s"}
    return out, unsteady


# -------------------------------------------------------------- passes

def run_child(workload: str, seed: int, size: str, workdir: str,
              flags: list, timeout: float) -> dict:
    env = dict(os.environ, **{v: BLAS_THREADS for v in THREAD_VARS})
    argv = [sys.executable, os.path.join(HERE, "child.py"),
            "--workload", workload, "--seed", str(seed), "--size", size,
            "--workdir", workdir] + flags
    shutil.rmtree(workdir, ignore_errors=True)
    t_spawn = time.perf_counter()
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=env, timeout=timeout,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"pass exceeded {timeout:.0f} s") from exc
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise BenchError(f"child exited with {proc.returncode}")
    with open(os.path.join(workdir, "result.json")) as fh:
        result = json.load(fh)
    shutil.rmtree(workdir)
    result["setup_s"] = result["setup_done"] - t_spawn
    return result


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 size: str = "full") -> dict:
    """All passes of one run; returns the result line and the run record."""
    if not os.path.isfile(os.path.join(ROOT, "src", "hessvar", "cli.py")):
        raise BenchError(f"no hessvar sources under {ROOT}/src")
    start = time.perf_counter()
    load_before = os.getloadavg()
    work = os.path.join(RUNS_DIR, "work")

    def remaining():
        return RUN_CAP_S - (time.perf_counter() - start)

    # each step: a set-up-only child, then a plain or (in turn) traced pass;
    # stop before a step as long as the longest so far would overrun
    cycle = [False, True] if trace else [False]
    budget = min(seconds, RUN_CAP_S)
    setups, passes, longest = [], [], 0.0
    while len(passes) < len(cycle) or (
            time.perf_counter() - start + longest <= budget):
        t_step = time.perf_counter()
        traced = cycle[len(passes) % len(cycle)]
        setups.append(run_child(workload, seed, size, os.path.join(work, "setup"),
                                ["--setup-only"], remaining())["setup_s"])
        r = run_child(workload, seed, size, os.path.join(work, f"pass{len(passes)}"),
                      ["--trace"] if traced else [], remaining())
        r["traced"] = traced
        passes.append(r)
        setups.append(r["setup_s"])
        longest = max(longest, time.perf_counter() - t_step)

    plain = [p for p in passes if not p["traced"]]
    traced_passes = [p for p in passes if p["traced"]]
    failures = []
    for i, p in enumerate(passes):
        failures += [f"pass {i} {cmd}: {why}" for cmd, why in p["failures"].items()]
        if i and p["hashes"] != passes[0]["hashes"]:
            diff = sorted(k for k in set(p["hashes"]) | set(passes[0]["hashes"])
                          if p["hashes"].get(k) != passes[0]["hashes"].get(k))
            failures.append(f"pass {i} outputs differ from pass 0: {diff}")
    attempted = sum(len(p["exit_codes"]) for p in passes) + len(passes) - 1
    if trace:
        metrics, unsteady = per_layer(plain, traced_passes)
        if unsteady:
            failures.append(f"counts differ across traced passes: {unsteady}")
    else:
        metrics = end_to_end(setups, plain)
    host = dict(passes[0]["host"],
                nproc=os.cpu_count(),
                affinity=len(os.sched_getaffinity(0)),
                python=platform.python_version(),
                loadavg_before=load_before,
                loadavg_after=os.getloadavg(),
                reference_loop_s=median(p["reference_loop_s"] for p in passes))
    line = {"correct": not failures, "attempted": attempted,
            "failed": len(failures), "metrics": metrics}
    commands = {f"{cmd}_s": median(p["command_s"][cmd] for p in plain)
                for cmd in workloads.COMMANDS}
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "size": size, "host": host, "failures": failures,
        "command_medians_s": commands,
        "setup_samples_s": setups,
        "passes": [{k: p[k] for k in ("traced", "setup_s", "wall_s",
                                      "command_s", "peak_rss_mb", "solver",
                                      "reference_loop_s", "layer_self_s")
                    if k in p}
                   for p in passes],
        "result": line,
    }
    if traced_passes:
        record["spans"] = traced_passes[0]["spans"]
    return record


def write_record(record: dict) -> None:
    os.makedirs(RUNS_DIR, exist_ok=True)
    path = os.path.join(
        RUNS_DIR, f"{record['workload']}-seed{record['seed']}-"
                  f"trace{int(record['trace'])}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)


def print_summary(record: dict) -> None:
    line = record["result"]
    print(f"# {record['workload']} seed={record['seed']} "
          f"passes={len(record['passes'])} host={json.dumps(record['host'])}")
    rows = [(name, m["value"], m["unit"]) for name, m in line["metrics"].items()]
    if not record["trace"]:
        rows += [(f"{name} (unbounded)", v, "s")
                 for name, v in record["command_medians_s"].items()
                 if name not in line["metrics"]]
    rows.append(("fail_ratio", line["failed"] / line["attempted"], "1"))
    for name, value, unit in rows:
        print(f"{record['workload']:>20} {name:<40} {value:>14.6g} {unit}")
    for why in record["failures"]:
        print(f"FAILED {record['workload']}: {why}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(workloads.WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=42.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=sorted(workloads.SIZES), default="full")
    args = p.parse_args(argv)
    names = sorted(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    lines = {}
    try:
        for name in names:
            record = run_workload(name, args.seed, args.seconds,
                                  bool(args.trace), args.size)
            write_record(record)
            print_summary(record)
            lines[name] = record["result"]
    except (BenchError, OSError, json.JSONDecodeError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(os.path.join(RUNS_DIR, "work"), ignore_errors=True)
    print(json.dumps(lines if args.workload == "all" else lines[args.workload]))
    return 0 if all(line["correct"] for line in lines.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
