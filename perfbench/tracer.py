"""In-memory span tracing for the benchmark's traced run.

`Tracer.install` wraps every public function of each axivisc layer module
and rebinds the wrapper at every package attribute that names the function,
so a call is seen under the name its caller looks up
(`evolution.velocity_from_vorticity`, `norms.rearrange`, ...).  The package
itself is not edited; `uninstall` puts the original functions back.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import sys
import time

PACKAGE = "axivisc"
LAYERS = ("grid", "norms", "biot_savart", "evolution", "diagnostics",
          "experiment", "cli")


class Tracer:
    """Records spans as [name, start, end, parent index]; parent -1 is a root."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    # -- spans ----------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(idx)
        return idx

    def close(self, idx: int):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)
        return traced

    # -- wrapping -------------------------------------------------------

    def install(self):
        if self._patches:
            return
        modules = [m for n, m in list(sys.modules.items()) if m is not None
                   and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"{PACKAGE}.{layer}"]
            for name, fn in vars(mod).items():
                if (not name.startswith("_") and inspect.isfunction(fn)
                        and fn.__module__ == mod.__name__):
                    wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{name}", fn))
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    self._patches.append((mod, attr, val))
                    setattr(mod, attr, hit[1])

    def uninstall(self):
        for mod, attr, fn in reversed(self._patches):
            setattr(mod, attr, fn)
        self._patches.clear()

    # -- analysis -------------------------------------------------------

    def roots(self) -> list[int]:
        """Index of each span's root ancestor (parents precede children)."""
        out = []
        for i, (_, _, _, parent) in enumerate(self.spans):
            out.append(i if parent < 0 else out[parent])
        return out

    def self_times(self) -> list[float]:
        """Span duration minus the time covered by its direct children."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - c
                for (_, start, end, _), c in zip(self.spans, child)]

    def dump(self, path: str):
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [{"name": n, "start": s - t0, "end": e - t0, "parent": p}
                for n, s, e, p in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(rows, fh)
