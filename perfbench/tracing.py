"""In-memory span tracing of spinlearn's public functions, installed from outside.

The traced pass replaces every public module-level function of the package
(and ``HeisenbergGate.apply``) by a wrapper that records one span per call:
name, start, end, parent span, operation id and counters.  Names another
module re-imported (``heisenberg.clebsch_gordan``, ``optimal.kraus_from_choi`` ...) are
patched too, because every module attribute bound to a wrapped function is
replaced.  Spans stay in memory and are summarized after the run; a layer's
self time is its span duration minus the time covered by its child spans.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import math
import time
import tracemalloc
from collections import defaultdict

MODULES = ("rotations", "spins", "channels", "optimal", "mo", "heisenberg",
           "memory", "montecarlo", "cli")

# O(1) argument checks and index helpers: not layer boundaries, and called in
# every inner loop, so spanning them would only add overhead.
UNTRACED = {
    "spins.check_two_j", "spins.check_valid_m", "spins.dim", "spins.two_m_values",
    "spins.m_values", "spins.basis_index",
    "channels.average_from_entanglement", "channels.entanglement_from_average",
}

# Private functions that are the boundary of a counted quantity.
EXTRA = {"mo._povm_outcome_offsets"}


def _vectors(args, kwargs, result):
    shape = getattr(args[1], "shape", ())
    return {"vectors": math.prod(shape[:-1]) if len(shape) > 1 else 1}


COUNTERS = {
    "heisenberg.HeisenbergGate.apply": _vectors,
    "rotations.haar_quaternions": lambda a, k, r: {"draws": len(r)},
    "mo._povm_outcome_offsets": lambda a, k, r: {"samples": len(r)},
    "cli.write_rows": lambda a, k, r: {"rows": len(a[0])},
}


class Tracer:
    """Collects spans while ``enabled``; ``op`` labels the current operation.

    A span is the list [name, start, end, parent, op, counters, peak_bytes];
    ``parent`` is the index of the enclosing span or -1.  With ``alloc`` the
    tracemalloc peak is reset at each span boundary and the peak allocation
    above the span's starting level is kept (slow: a separate pass).
    """

    def __init__(self, alloc: bool = False):
        self.spans: list[list] = []
        self.enabled = False
        self.op: str | None = None
        self.alloc = alloc
        self._stack: list[int] = []
        self._level: list[list[int]] = []  # per open span: [base, running max]

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, tracer._stack[-1] if tracer._stack else -1,
                    tracer.op, None, 0]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            if tracer.alloc:
                tracer._enter_alloc()
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()
                if tracer.alloc:
                    span[6] = tracer._exit_alloc()
            if counter is not None:
                span[5] = counter(args, kwargs, result)
            return result

        return traced

    def _enter_alloc(self) -> None:
        current, peak = tracemalloc.get_traced_memory()
        if self._level:
            self._level[-1][1] = max(self._level[-1][1], peak)
        tracemalloc.reset_peak()
        self._level.append([current, current])

    def _exit_alloc(self) -> int:
        _, peak = tracemalloc.get_traced_memory()
        base, running = self._level.pop()
        running = max(running, peak)
        if self._level:
            self._level[-1][1] = max(self._level[-1][1], running)
        tracemalloc.reset_peak()
        return running - base


def install(tracer: Tracer, package) -> callable:
    """Patch the package's modules for ``tracer``; returns an undo function."""
    modules = [importlib.import_module(f"{package.__name__}.{m}") for m in MODULES]
    wrappers = {}
    for mod in modules:
        short = mod.__name__.rsplit(".", 1)[-1]
        for attr, obj in vars(mod).items():
            name = f"{short}.{attr}"
            public = not attr.startswith("_") or name in EXTRA
            callable_fn = inspect.isfunction(obj) or isinstance(obj, functools._lru_cache_wrapper)
            if (public and callable_fn and getattr(obj, "__module__", None) == mod.__name__
                    and name not in UNTRACED and id(obj) not in wrappers):
                wrappers[id(obj)] = (obj, tracer.wrap(name, obj))
    undo = []
    for mod in modules:
        for attr, obj in list(vars(mod).items()):
            hit = wrappers.get(id(obj))
            if hit is not None and hit[0] is obj:
                undo.append((mod, attr, obj))
                setattr(mod, attr, hit[1])
    gate = package.heisenberg.HeisenbergGate
    apply = gate.apply
    gate.apply = tracer.wrap("heisenberg.HeisenbergGate.apply", apply)
    undo.append((gate, "apply", apply))

    def restore():
        for owner, attr, obj in undo:
            setattr(owner, attr, obj)

    return restore


def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the union of its direct children's intervals."""
    children = defaultdict(list)
    for span in spans:
        if span[3] >= 0:
            children[span[3]].append((span[1], span[2]))
    out = []
    for i, span in enumerate(spans):
        covered = 0.0
        end_so_far = -math.inf
        for start, end in sorted(children.get(i, ())):
            start = max(start, end_so_far, span[1])
            end = min(end, span[2])
            if end > start:
                covered += end - start
            end_so_far = max(end_so_far, end)
        out.append(max(span[2] - span[1] - covered, 0.0))
    return out


def summarize(spans: list[list]) -> dict:
    """Per-name and per-(name, op) aggregates used by the per-layer metrics.

    ``busy`` counts only outermost spans of a name, so recursion through the
    same function is not double counted.
    """
    selfs = self_times(spans)
    calls = defaultdict(int)
    self_s = defaultdict(float)
    module_self = defaultdict(float)
    busy = defaultdict(float)
    busy_op = defaultdict(float)
    counters = defaultdict(int)
    peak = defaultdict(int)
    for i, span in enumerate(spans):
        name, start, end, parent, op, count, peak_bytes = span
        calls[name] += 1
        self_s[name] += selfs[i]
        module_self[name.split(".", 1)[0]] += selfs[i]
        outer = parent
        while outer >= 0 and spans[outer][0] != name:
            outer = spans[outer][3]
        if outer < 0:
            busy[name] += end - start
            busy_op[f"{name}|{op}"] += end - start
            peak[f"{name}|{op}"] = max(peak[f"{name}|{op}"], peak_bytes)
        for key, value in (count or {}).items():
            counters[f"{name}.{key}"] += value
        if name == "rotations.haar_quaternions" and parent >= 0 \
                and spans[parent][0] == "mo._povm_outcome_offsets":
            counters["mo.povm.proposals"] += count["draws"]
    return {"calls": dict(calls), "self_s": dict(self_s), "module_self_s": dict(module_self),
            "busy_s": dict(busy), "busy_op_s": dict(busy_op), "counters": dict(counters),
            "peak_bytes": dict(peak), "spans": len(spans)}


def write_spans(spans: list[list], path: str) -> None:
    """One JSON array per span: name, start, end, parent, op, counters, peak bytes."""
    with gzip.open(path, "wt") as fh:
        for span in spans:
            fh.write(json.dumps(span) + "\n")
