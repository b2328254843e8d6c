"""Outside-in tracing of densitylab, installed from the benchmark process.

``Tracer.install()`` wraps every public function of the densitylab modules
and rebinds each name wherever a densitylab module holds it: in its own
module, in every module that did ``from .x import f``, and in module-level
dispatch tables such as ``DOMINANCE_PREDICATES``.  It also wraps sympy's
``limit``, ``combsimp`` and ``cancel`` when sympy is first imported, so the
lazy import stays lazy.

A span opens only when control crosses from one module into another; the
caller's module is that of the innermost open span.  A call inside a module
only bumps the callee's call counter.  ``run_check`` and ``cli.emit`` are
the exceptions: they open a span on every call, because verify reaches them
from their own module and each check is timed on its own.

Spans live in preallocated arrays (name, parent, start, end) and are written
out when the run ends.  Self time, a span's duration minus the time covered
by its child spans, is accumulated as each span closes.
"""

from __future__ import annotations

import importlib
import importlib.abc
import importlib.util
import sys
import time
from array import array
from collections import Counter, defaultdict

MODULES = ("indexsets", "densities", "streams", "dominance", "welfare", "gadgets", "dsl",
           "verification", "cli")
SYMPY_ENTRY_POINTS = ("limit", "combsimp", "cancel")
# Spans opened on every call, not only when control changes module.
ALWAYS_SPAN = {"verification.run_check", "cli.emit"}
# Spans kept for the span file; later spans still count in the totals.
SPAN_CAP = 1_000_000

_perf = time.perf_counter


class Tracer:
    def __init__(self, span_cap: int = SPAN_CAP):
        self.stack: list[list] = []  # frames: [name_id, module, child_s, span_index]
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.calls: dict[str, list[int]] = {}
        self.self_s: defaultdict[int, float] = defaultdict(float)
        self.total_s: defaultdict[int, float] = defaultdict(float)
        self.spans: Counter = Counter()
        self.n_spans = 0
        self.cap = span_cap
        self.span_name = array("i", bytes(4 * span_cap))
        self.span_parent = array("i", bytes(4 * span_cap))
        self.span_start = array("d", bytes(8 * span_cap))
        self.span_end = array("d", bytes(8 * span_cap))
        self.density_exact = [0, 0]
        self.verdicts: Counter = Counter()
        self.sympy_import_s = 0.0
        self.originals: dict[str, object] = {}

    # -- spans -------------------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def run(self, nid: int, module: str, fn, args=(), kwargs=None, on_result=None):
        """Call fn inside a span."""
        stack = self.stack
        parent = stack[-1][3] if stack else -1
        idx = self.n_spans
        self.n_spans = idx + 1
        frame = [nid, module, 0.0, idx]
        stack.append(frame)
        t0 = _perf()
        try:
            result = fn(*args, **(kwargs or {}))
        finally:
            t1 = _perf()
            stack.pop()
            dur = t1 - t0
            self.self_s[nid] += dur - frame[2]
            self.total_s[nid] += dur
            self.spans[nid] += 1
            if stack:
                stack[-1][2] += dur
            if idx < self.cap:
                self.span_name[idx] = nid
                self.span_parent[idx] = parent
                self.span_start[idx] = t0
                self.span_end[idx] = t1
        if on_result is not None:
            on_result(result)
        return result

    def wrap(self, fn, module: str, name: str, on_result=None, span_name=None):
        tracer = self
        counter = self.calls.setdefault(name, [0])
        nid = self.name_id(name)
        always = name in ALWAYS_SPAN

        def traced(*args, **kwargs):
            counter[0] += 1
            stack = tracer.stack
            if not always and stack and stack[-1][1] == module:
                return fn(*args, **kwargs)
            span_id = nid if span_name is None else tracer.name_id(span_name(args))
            return tracer.run(span_id, module, fn, args, kwargs, on_result)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap and rebind the public functions of every densitylab module."""
        mods = {name: importlib.import_module(f"densitylab.{name}") for name in MODULES}
        wrappers: dict[int, object] = {}
        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                name = f"{short}.{attr}"
                self.originals[name] = obj
                wrappers[id(obj)] = self.wrap(obj, short, name, **self._hooks(short, attr))
        for modname, mod in list(sys.modules.items()):
            if modname != "densitylab" and not modname.startswith("densitylab."):
                continue
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    setattr(mod, attr, wrappers[id(obj)])
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        if id(value) in wrappers:
                            obj[key] = wrappers[id(value)]
        if "sympy" in sys.modules:
            self._wrap_sympy(sys.modules["sympy"])
        else:
            sys.meta_path.insert(0, _SympyHook(self))

    def _hooks(self, module: str, attr: str) -> dict:
        if module == "densities" and attr == "density":
            return {"on_result": self._count_density}
        if module == "dominance":
            return {"on_result": self._count_verdicts}
        if module == "verification" and attr == "run_check":
            return {"span_name": lambda args: f"verification.{args[0][0]}"}
        return {}

    def _count_density(self, result) -> None:
        self.density_exact[0] += bool(result.exact)
        self.density_exact[1] += 1

    def _count_verdicts(self, result) -> None:
        entries = getattr(result, "entries", None)
        verdicts = [v for _, v in entries] if entries is not None else [result]
        for v in verdicts:
            status = getattr(v, "status", None)
            if status is not None:
                self.verdicts[status.value] += 1

    def _wrap_sympy(self, sympy) -> None:
        for attr in SYMPY_ENTRY_POINTS:
            setattr(sympy, attr, self.wrap(getattr(sympy, attr), "sympy", f"sympy.{attr}"))

    # -- results -----------------------------------------------------------

    def cache_info(self, name: str) -> list[int]:
        info = self.originals[name].cache_info()
        return [info.hits, info.misses]

    def summary(self) -> dict:
        return {
            "calls": {name: cell[0] for name, cell in self.calls.items() if cell[0]},
            "self_s": {self.names[i]: v for i, v in self.self_s.items()},
            "total_s": {self.names[i]: v for i, v in self.total_s.items()},
            "spans": {self.names[i]: v for i, v in self.spans.items()},
            "n_spans": self.n_spans,
            "cache": {name: self.cache_info(name)
                      for name in ("indexsets.count", "indexsets.periodic_profile")},
            "density_exact": list(self.density_exact),
            "verdicts": dict(self.verdicts),
            "sympy_import_s": self.sympy_import_s,
        }

    def write_spans(self, path) -> int:
        """Write the kept spans as columns of a compressed numpy archive."""
        import numpy as np

        kept = min(self.n_spans, self.cap)
        np.savez_compressed(
            path,
            names=np.array(self.names, dtype=object).astype(str),
            name=np.frombuffer(self.span_name, dtype=np.int32)[:kept],
            parent=np.frombuffer(self.span_parent, dtype=np.int32)[:kept],
            start=np.frombuffer(self.span_start, dtype=np.float64)[:kept],
            end=np.frombuffer(self.span_end, dtype=np.float64)[:kept],
        )
        return kept


class _SympyHook(importlib.abc.MetaPathFinder):
    """Wraps sympy's entry points right after its first import."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer

    def find_spec(self, name, path, target=None):
        if name != "sympy":
            return None
        sys.meta_path.remove(self)
        spec = importlib.util.find_spec(name)
        exec_module = spec.loader.exec_module
        tracer = self.tracer

        def exec_and_wrap(module):
            t0 = _perf()
            exec_module(module)
            tracer.sympy_import_s += _perf() - t0
            tracer._wrap_sympy(module)

        spec.loader.exec_module = exec_and_wrap
        return spec
