"""In-memory spans around heigen's public functions.

``install`` wraps every public function defined in a heigen module and
rebinds the wrapper in every module namespace that holds the original
(``analysis`` and ``cli`` import functions by name, and the package
re-exports them), so calls between modules and within a module are both
seen.  A span is (name, start, end, parent, op): ``parent`` is the index of
the enclosing span or -1, and ``op`` is shared by all spans of one
benchmark operation.  Spans stay in memory until ``write`` at the end of
the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import defaultdict

MODULES = ("hypergraph", "constructions", "canon", "spectral", "analysis", "cli")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.ops: list[int] = []
        self.converged: dict[int, bool] = {}
        self.op = -1
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(self.names)
            self.names.append(name)
            self.parents.append(self._stack[-1] if self._stack else -1)
            self.ops.append(self.op)
            self.ends.append(0.0)
            self._stack.append(i)
            self.starts.append(time.perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                self.ends[i] = time.perf_counter()
                self._stack.pop()
            flag = getattr(out, "converged", None)
            if isinstance(flag, bool):
                self.converged[i] = flag
            return out

        return traced

    def totals(self) -> dict[str, dict[str, float]]:
        """Per function name: calls, inclusive seconds, self seconds (a span
        minus its child spans) and converged results."""
        child = [0.0] * len(self.names)
        for i, p in enumerate(self.parents):
            if p >= 0:
                child[p] += self.ends[i] - self.starts[i]
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0, "converged": 0})
        for i, name in enumerate(self.names):
            row = out[name]
            dt = self.ends[i] - self.starts[i]
            row["calls"] += 1
            row["s"] += dt
            row["self_s"] += dt - child[i]
            row["converged"] += self.converged.get(i, False)
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, name in enumerate(self.names):
                fh.write(json.dumps([i, name, self.starts[i], self.ends[i], self.parents[i], self.ops[i]]) + "\n")


def install(tracer: Tracer):
    """Wrap heigen's public functions; returns a callable that restores them."""
    import heigen

    modules = {name: importlib.import_module(f"heigen.{name}") for name in MODULES}
    wrapped = {}
    for short, mod in modules.items():
        for name, obj in vars(mod).items():
            if not name.startswith("_") and inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                wrapped[obj] = tracer.wrap(f"{short}.{name}", obj)
    undo = []
    for mod in (heigen, *modules.values()):
        for name, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(mod, name, wrapped[obj])
                undo.append((mod, name, obj))

    def restore() -> None:
        for mod, name, obj in undo:
            setattr(mod, name, obj)

    return restore
