"""Span tracing from outside the program.

:func:`install` wraps the public functions and methods of every layer
module (``gridlight.<layer>``) in a span recorder and rebinds every name
that refers to them, in the program's modules and the benchmark's, so that
calls between layers pass through the wrappers.  Spans are kept in memory
as (name, start, end, parent) and written out when the run ends.  A span's
self time is its duration minus the part covered by its child spans; each
layer's self time is the sum over its spans.

A few leaf helpers run inside the engine's per-tick loops, where a span
would cost more than the work it measures; they stay unwrapped and their
time counts as their caller's self time (see ``UNWRAPPED``).
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
from time import perf_counter_ns
from typing import Callable, Iterable

LAYERS = (
    "network", "roadnet", "flows", "engine", "signalmath", "control", "learner",
    "experiment", "telemetry",
)

UNWRAPPED = frozenset(
    {
        "network.Road.lane_for_turn",
        "network.Intersection.movement",
        "network.RoadNetwork.intersection",
        "network.RoadNetwork.movement",
        "network.RoadNetwork.lane_downstream",
        "network.RoadNetwork.road_of_lane",
        "signalmath.n_pass",
        "signalmath.prcol",
        "signalmath.pressure",
        "signalmath.platoon_clear_time",
        "engine.World.needs_decision",
        "engine.World.occupancy",
        "engine.World.queue_length",
        # read by the benchmark's own per-tick counting hook
        "engine.World.on_network_count",
        "engine.World.buffered_count",
    }
)


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[tuple[int, int, int, int] | None] = []
        self._stack: list[int] = []

    def _nid(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name: str, fn: Callable) -> Callable:
        nid = self._nid(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx] = (nid, start, perf_counter_ns(), parent)
                stack.pop()

        return traced

    @contextlib.contextmanager
    def span(self, name: str):
        nid = self._nid(name)
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        start = perf_counter_ns()
        try:
            yield
        finally:
            self.spans[idx] = (nid, start, perf_counter_ns(), parent)
            self._stack.pop()

    def summary(self) -> dict[str, dict[str, int]]:
        """Per span name: calls, inclusive ns and self ns."""
        child_ns = [0] * len(self.spans)
        for span in self.spans:
            if span is not None and span[3] >= 0:
                child_ns[span[3]] += span[2] - span[1]
        out = {name: {"calls": 0, "incl_ns": 0, "self_ns": 0} for name in self.names}
        for idx, span in enumerate(self.spans):
            if span is None:
                continue
            row = out[self.names[span[0]]]
            row["calls"] += 1
            row["incl_ns"] += span[2] - span[1]
            row["self_ns"] += span[2] - span[1] - child_ns[idx]
        return out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span,name,start_ns,end_ns,parent\n")
            for idx, span in enumerate(self.spans):
                if span is not None:
                    fh.write(f"{idx},{self.names[span[0]]},{span[1]},{span[2]},{span[3]}\n")


def _targets(layer: str) -> Iterable[tuple[str, object, str, Callable]]:
    """(span name, owner, attribute, function) for a layer's public surface."""
    mod = importlib.import_module(f"gridlight.{layer}")
    for attr in getattr(mod, "__all__", ()):
        obj = getattr(mod, attr)
        if getattr(obj, "__module__", None) != mod.__name__:
            continue
        if inspect.isclass(obj):
            for meth, fn in vars(obj).items():
                public = not meth.startswith("_") or (obj.__name__ == "World" and meth == "__init__")
                if public and inspect.isfunction(fn):
                    name = f"{layer}.{obj.__name__}.{meth}"
                    if name not in UNWRAPPED:
                        yield name, obj, meth, fn
        elif inspect.isfunction(obj):
            name = f"{layer}.{attr}"
            if name not in UNWRAPPED:
                yield name, mod, attr, obj


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def rebind(self, original: Callable, replacement: Callable, modules: Iterable) -> None:
        """Point every module-level name bound to ``original`` at ``replacement``."""
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self.set(mod, attr, replacement)

    def undo(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def install(
    tracer: Tracer,
    patches: Patches,
    extra_modules: Iterable = (),
    hooks: dict[str, Callable[[Callable], Callable]] | None = None,
) -> None:
    """Wrap every layer's public functions; ``hooks`` wrap a traced function once more."""
    hooks = hooks or {}
    modules = [m for n, m in sys.modules.items() if n.startswith("gridlight")]
    modules += list(extra_modules)
    for layer in LAYERS:
        for name, owner, attr, fn in list(_targets(layer)):
            wrapped = tracer.wrap(name, fn)
            if name in hooks:
                wrapped = functools.wraps(fn)(hooks[name](wrapped))
            if inspect.isclass(owner):
                patches.set(owner, attr, wrapped)
            else:
                patches.rebind(fn, wrapped, modules)
