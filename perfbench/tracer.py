"""Tracing of the mtlopt package from outside its source.

The tracer wraps public callables of the mtlopt package from outside: a
module-level function is replaced at every mtlopt namespace that binds it
(so ``from .network import per_task_gradients`` call sites are traced too),
and a method is replaced on its class. Each call records a span (name,
start, end, parent) in memory. A span's self time is its duration minus the
time its child spans cover, including the tracer's own work for those
children, so bookkeeping overhead lands in the child, not in the parent.
"""
from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter
from typing import Callable


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []  # name, start, end, parent
        self.self_s: dict[str, list[float]] = defaultdict(list)
        self.total_s: dict[str, list[float]] = defaultdict(list)
        self.counters: dict[str, float] = defaultdict(float)
        self.distinct: dict[str, set] = defaultdict(set)  # for distinct-over-calls ratios
        self._stack: list[list] = []  # [span index, child seconds]
        self._restore: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def call(self, name: str, fn: Callable, args: tuple, kwargs: dict,
             after: Callable | None = None):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append((name, 0.0, 0.0, parent[0] if parent else -1))
        frame = [index, 0.0]
        self._stack.append(frame)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, self.spans[index][3])
            self.total_s[name].append(end - start)
            self.self_s[name].append(end - start - frame[1])
        if after is not None:
            after(self, args, kwargs, result)
        if parent is not None:
            parent[1] += perf_counter() - start
        return result

    def span(self, name: str, fn: Callable, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span opened by the benchmark itself."""
        return self.call(name, fn, args, kwargs)

    # -- patching ------------------------------------------------------------

    def _wrapper(self, name, fn, after):
        namer = name if callable(name) else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = namer(args, kwargs) if namer else name
            return self.call(label, fn, args, kwargs, after)
        return traced

    def patch_function(self, module, attr: str, name: str, after=None) -> None:
        """Replace module.attr wherever an mtlopt module binds the same object."""
        original = getattr(module, attr)
        wrapper = self._wrapper(name, original, after)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "mtlopt" or mod_name.startswith("mtlopt.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._restore.append((mod, key, original))

    def patch_method(self, cls, attr: str, name, after=None) -> None:
        original = cls.__dict__[attr]
        setattr(cls, attr, self._wrapper(name, original, after))
        self._restore.append((cls, attr, original))

    def restore(self) -> None:
        while self._restore:
            owner, key, original = self._restore.pop()
            setattr(owner, key, original)
