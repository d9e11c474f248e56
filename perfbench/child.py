"""One pass of a workload in a fresh interpreter.

Usage (from the checkout root; ``run.py`` starts it)::

    python3 perfbench/child.py --workload area-2d --seed 0 --size full \
        --workdir .perfbench_runs/work/p0 [--trace] [--setup-only]

The BLAS thread count is pinned before numpy is imported: with OpenBLAS's
default of two threads the CG iteration counts and the output bytes
change.  Set-up (interpreter start, ``import hessvar``, configs and seeded
inputs) ends at ``setup_done``; then a fixed numpy reference loop records
host speed, and the workload's commands run back to back through
``hessvar.cli.run``.  Gates and hashes are computed after the timed
section.  The result goes to ``<workdir>/result.json``.
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

from workloads import BLAS_THREADS, THREAD_VARS  # noqa: E402

for _var in THREAD_VARS:
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

import hessvar.cli  # noqa: E402
from hessvar import gridio, grids  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402


def reference_loop() -> float:
    """Seconds for a fixed numpy loop: a host-speed probe, not a metric."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal(1 << 18)
    t0 = time.perf_counter()
    for _ in range(40):
        a = np.sqrt(a * a + 1.0) - 0.5 * a
    return time.perf_counter() - t0


def host_info() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def export_hessian(workdir: str) -> None:
    """D^2 u of the solve output as the matrix field the diagnostics read."""
    u = gridio.read_grid(os.path.join(workdir, "solve", "solution.hvgf"))
    gridio.write_binary(os.path.join(workdir, "field.hvgf"),
                        grids.hessian_field(u))


def file_hashes(workdir: str) -> dict:
    out = {}
    for base, _, files in os.walk(workdir):
        for name in files:
            path = os.path.join(base, name)
            rel = os.path.relpath(path, workdir)
            if rel == "result.json":
                continue
            with open(path, "rb") as fh:
                out[rel] = hashlib.sha256(fh.read()).hexdigest()
    return dict(sorted(out.items()))


def solver_counts(workdir: str) -> dict:
    path = os.path.join(workdir, "solve", "solve_report.json")
    if not os.path.exists(path):
        return {}
    with open(path) as fh:
        rep = json.load(fh)["solver"]
    return {
        "cg_iters": sum(rep["cg_iterations"]),
        "cg_iters_per_step": rep["cg_iterations"],
        "newton_steps": len(rep["steps"]),
        "backtracks": sum(round(-math.log2(t)) for t in rep["steps"]),
        "energy": rep["energy"],
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--size", default="full", choices=sorted(workloads.SIZES))
    p.add_argument("--workdir", required=True)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    workdir = os.path.abspath(args.workdir)
    os.makedirs(workdir)
    commands = workloads.write_inputs(workdir, args.workload, args.size,
                                      args.seed)
    result = {"setup_done": time.perf_counter(), "host": host_info()}
    if not args.setup_only:
        result.update(run_pipeline(workdir, args, commands))
    result["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(os.path.join(workdir, "result.json"), "w") as fh:
        json.dump(result, fh)
    return 0


def run_pipeline(workdir: str, args, commands) -> dict:
    ref_s = reference_loop()
    tracer = spans.Tracer() if args.trace else None
    exports = workloads.WORKLOADS[args.workload]["field"] == "hessian"
    times, codes = {}, {}
    os.chdir(workdir)
    if tracer is not None:
        tracer.install()
    t_first = time.perf_counter()
    try:
        for name, argv in commands:
            t0 = time.perf_counter()
            codes[name] = hessvar.cli.run(argv)
            times[name] = time.perf_counter() - t0
            if name == "solve" and exports and codes[name] == 0:
                t0 = time.perf_counter()
                export_hessian(workdir)
                times["export"] = time.perf_counter() - t0
        wall = time.perf_counter() - t_first
    finally:
        if tracer is not None:
            tracer.uninstall()
    os.chdir(ROOT)

    failures = {}
    for name, _ in commands:
        if codes[name] != 0:
            failures[name] = f"exit code {codes[name]}"
            continue
        reason = workloads.gate(workdir, args.workload, args.size, name)
        if reason is not None:
            failures[name] = reason
    out = {
        "reference_loop_s": ref_s,
        "wall_s": wall,
        "command_s": times,
        "exit_codes": codes,
        "failures": failures,
        "solver": solver_counts(workdir),
        "hashes": file_hashes(workdir),
        "bytes_written": sum(
            os.path.getsize(os.path.join(workdir, name, f))
            for name, _ in commands if os.path.isdir(os.path.join(workdir, name))
            for f in os.listdir(os.path.join(workdir, name))
            if f.endswith(".hvgf")
        ) + (os.path.getsize(os.path.join(workdir, "field.hvgf")) if exports else 0),
    }
    diag_path = os.path.join(workdir, "diagnose", "diagnostics.json")
    if os.path.exists(diag_path):
        with open(diag_path) as fh:
            out["balls"] = json.load(fh)["bmo"]["family_size"]
    if tracer is not None:
        summary = spans.summarize(tracer.spans)
        out["spans"] = summary
        out["span_count"] = len(tracer.spans)
        out["layer_self_s"] = spans.layer_self(summary)
        out["gridio"] = {kind: spans.outermost_total(tracer.spans, f"gridio.{kind}_")
                         for kind in ("read", "write")}
    return out


if __name__ == "__main__":
    sys.exit(main())
