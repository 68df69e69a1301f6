"""Spans and call counts around itkit's public functions, recorded from outside.

:class:`Tracer` replaces every public function of the itkit modules, in
every module namespace that refers to it, by a wrapper that records a span
(name, start, end, parent) and counts the call.  Spans stay in memory until
the run ends.  Writers (``*_to_csv``, ``*_to_json``) are all recorded under
one span name, ``cli.write``, and the bytes they leave on disk are counted.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time
from collections import defaultdict

LAYERS = ("core", "classical", "propagate", "imaging", "coincidence", "scatter", "bessel", "cli")
WRITE_SPAN = "cli.write"


def _span_name(layer: str, func_name: str) -> str:
    if func_name.endswith(("_to_csv", "_to_json")):
        return WRITE_SPAN
    return f"{layer}.{func_name}"


def _split_fft_points(args, kwargs) -> int:
    """Transforms x grid points of one evolve_split_operator call, from its spec."""
    field = kwargs.get("field", args[0] if args else None)
    spec = kwargs.get("spec", args[1] if len(args) > 1 else None)
    return 2 * int(spec.n_steps) * int(field.values.size)


class Tracer:
    """Install with :meth:`install`, remove with :meth:`uninstall`."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        # one [name_id, start, end, parent_index] per call, in call order
        self.spans: list[list] = []
        self.counters: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._wrappers: dict[int, object] = {}

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, name: str, fn):
        name_id = self._name_id(name)
        spans, stack, counters = self.spans, self._stack, self.counters
        clock = time.perf_counter
        path_param = None
        if name == WRITE_SPAN:
            path_param = inspect.signature(fn)
        fft_points = fn.__name__ == "evolve_split_operator"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            record = [name_id, clock(), 0.0, stack[-1] if stack else -1]
            spans.append(record)
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
                if path_param is not None:
                    path = path_param.bind(*args, **kwargs).arguments["path"]
                    counters["cli.bytes_written"] += os.path.getsize(path)
                if fft_points:
                    counters["propagate.split_fft_points"] += _split_fft_points(args, kwargs)

        return traced

    def install(self) -> None:
        """Wrap every public function of the itkit modules already imported."""
        modules = [importlib.import_module("itkit")]
        originals: dict[int, tuple[object, str]] = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"itkit.{layer}")
            modules.append(mod)
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                    originals[id(obj)] = (obj, _span_name(layer, attr))
        for key, (fn, name) in originals.items():
            if key not in self._wrappers:
                self._wrappers[key] = self._wrap(name, fn)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                wrapper = self._wrappers.get(id(obj))
                if wrapper is not None:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def mark(self) -> int:
        """Position in the span list; pass it to :meth:`summarize` later."""
        return len(self.spans)

    def summarize(self, first: int) -> tuple[dict[str, float], dict[str, int]]:
        """Self seconds and call counts per span name for spans from ``first`` on.

        A span's self time is its duration minus the durations of its direct
        children; calls run on one thread, so children nest inside parents.
        """
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        child: dict[int, float] = defaultdict(float)
        for index in range(first, len(self.spans)):
            _, start, end, parent = self.spans[index]
            if parent >= first:
                child[parent] += end - start
        for index in range(first, len(self.spans)):
            name_id, start, end, _ = self.spans[index]
            name = self.names[name_id]
            self_s[name] += end - start - child.get(index, 0.0)
            calls[name] += 1
        return dict(self_s), dict(calls)

    def take_counters(self) -> dict[str, int]:
        out = dict(self.counters)
        self.counters.clear()
        return out

    def dump(self, t0: float) -> dict:
        """Spans as plain lists, times in seconds from ``t0``."""
        return {
            "names": self.names,
            "spans": [[n, round(s - t0, 7), round(e - t0, 7), p] for n, s, e, p in self.spans],
        }
