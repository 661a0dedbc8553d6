"""Span tracing of morphfit from outside the program.

`Tracer` replaces every public function of the traced modules, in every
`morphfit` module namespace that binds it, with a wrapper that records a
span (name, parent, start, end). Restoring puts the original objects back,
so an untraced pass after a traced one runs the program as shipped.

Optional hooks see each call's bound arguments and result and add exact
counts (pairs scored, bytes written, ...). Their own run time is taken off
the tracer's clock, so counting does not show up as time in any span.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

TRACED_MODULES = ("cli", "synthetic", "serialization", "fitting", "network",
                  "evaluation", "geometry")


class Tracer:
    """Wraps public morphfit functions while active; use as a context manager.

    `hooks` maps a span name such as "network.optimizer_step" to a callable
    `hook(counters, arguments, result)` run after each successful call, with
    `arguments` the call's parameters by name, defaults included.
    """

    def __init__(self, hooks=None):
        self.hooks = dict(hooks or {})
        self.spans: list[list] = []   # [name, parent index, start, end]
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []
        self._hook_s = 0.0
        self._patched: list[tuple] = []

    def _now(self) -> float:
        return time.perf_counter() - self._hook_s

    def _wrap(self, name: str, fn):
        hook = self.hooks.get(name)
        signature = inspect.signature(fn) if hook is not None else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            span = [name, self._stack[-1] if self._stack else -1, 0.0, 0.0]
            self.spans.append(span)
            self._stack.append(index)
            span[2] = self._now()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = self._now()
                self._stack.pop()
            if hook is not None:
                started = time.perf_counter()
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(self.counters, bound.arguments, result)
                self._hook_s += time.perf_counter() - started
            return result
        return wrapper

    def __enter__(self):
        wrappers = {}
        for short in TRACED_MODULES:
            module = sys.modules[f"morphfit.{short}"]
            for attr, value in vars(module).items():
                if (inspect.isfunction(value) and not attr.startswith("_")
                        and value.__module__ == module.__name__):
                    wrappers[id(value)] = self._wrap(f"{short}.{attr}", value)
        namespaces = [m for n, m in list(sys.modules.items())
                      if m is not None and (n == "morphfit"
                                            or n.startswith("morphfit."))]
        for module in namespaces:
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()
        return False

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds.

        Self time is a span's duration minus the durations of its direct
        children.
        """
        child_s = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for (name, _parent, start, end), inner in zip(self.spans, child_s):
            entry = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["s"] += end - start
            entry["self_s"] += end - start - inner
        return out
