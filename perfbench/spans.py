"""Span tracing of ``hessvar`` layers from outside the package.

:class:`Tracer` replaces every public function of each layer module with a
wrapper that records a span (name, start, end, parent) in memory.  The
wrapper is installed at the module attribute and in every ``hessvar``
module that imported the function by name (``solver.hessian_field``,
``cli.minimize_clamped``, ...), and around ``NewtonOperator.matvec`` and
``NewtonOperator.jacobi_diagonal``.  :meth:`Tracer.uninstall` restores the
originals.  Nothing under ``src/`` knows about it.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

# layer modules in the order the CLI reaches them; fixtures only makes inputs
LAYERS = ("cli", "config", "reports", "gridio", "grids", "models", "symmat",
          "solver", "diagnostics", "hamstat")

# NewtonOperator methods traced as solver spans
METHODS = (("solver", "NewtonOperator", "matvec"),
           ("solver", "NewtonOperator", "jacobi_diagonal"))


class Tracer:
    def __init__(self):
        self.spans: list[list] = []     # [name, start, end, parent index]
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        pkg = [m for n, m in sys.modules.items()
               if n == "hessvar" or n.startswith("hessvar.")]
        wrapped = {}
        for layer in LAYERS:
            mod = sys.modules[f"hessvar.{layer}"]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrapped[obj] = self._wrap(f"{layer}.{attr}", obj)
        for mod in pkg:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, wrapped[obj])
        for layer, cls_name, meth in METHODS:
            cls = getattr(sys.modules[f"hessvar.{layer}"], cls_name)
            orig = cls.__dict__[meth]
            self._restore.append((cls, meth, orig))
            setattr(cls, meth, self._wrap(f"{layer}.{meth}", orig))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()


def summarize(spans) -> dict:
    """Per span name: calls, total seconds (outermost spans only) and self
    seconds (duration minus the time covered by child spans)."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for i, (name, start, end, parent) in enumerate(spans):
        rec = out[name]
        rec["calls"] += 1
        rec["self_s"] += (end - start) - child[i]
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            rec["total_s"] += end - start
    return dict(out)


def outermost_total(spans, prefix: str) -> float:
    """Seconds in spans named ``prefix*`` that no such span encloses."""
    total = 0.0
    for name, start, end, parent in spans:
        if not name.startswith(prefix):
            continue
        while parent >= 0 and not spans[parent][0].startswith(prefix):
            parent = spans[parent][3]
        if parent < 0:
            total += end - start
    return total


def layer_self(summary: dict) -> dict:
    """Self seconds per layer module, summed over its span names."""
    out = {layer: 0.0 for layer in LAYERS}
    for name, rec in summary.items():
        out[name.split(".", 1)[0]] += rec["self_s"]
    return out
