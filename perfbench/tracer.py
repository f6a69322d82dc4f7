"""Span tracer installed around the program's layer functions from outside.

The program carries no instrumentation of its own.  :class:`Tracer`
replaces selected module or class attributes with timing wrappers,
keeps a span stack so every span knows how much of its time its traced
children took (self time = inclusive time minus child time), and
restores the originals on :meth:`Tracer.uninstall`.

A :class:`Span` names one wrapped callable and the metric names it
feeds.  Counter-only spans (``timed=False``) record counts through their
``on_result`` hook without opening a span, so wrapping a leaf such as
``solve_ivp`` does not split its caller's self time.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Span:
    """One wrapped callable.

    ``target`` is ``"module.path:Attr"`` or ``"module.path:Class.attr"``;
    the wrapper is installed where callers look the name up (a name
    imported with ``from x import f`` must be patched in the importing
    module).  ``time_metric``/``self_metric``/``calls_metric`` name the
    per-layer metrics the span feeds (``None`` = not reported).
    ``on_result(tracer, result, args, kwargs)`` adds counters.
    """

    target: str
    time_metric: str | None = None
    self_metric: str | None = None
    calls_metric: str | None = None
    on_result: Callable | None = None
    timed: bool = True


def _resolve(target: str):
    module_name, _, attr_path = target.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = attr_path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    """Wrapper-based span recorder; see the module docstring."""

    def __init__(self, spans):
        self.spans = list(spans)
        self.metrics: dict[str, float] = defaultdict(float)
        self.n_spans = 0
        self._stack: list[float] = []   # child time of each open span
        self._installed: list[tuple] = []

    # -------------------------------------------------------- install

    def install(self) -> None:
        for span in self.spans:
            owner, attr = _resolve(span.target)
            original = getattr(owner, attr)
            setattr(owner, attr, self._wrap(span, original))
            self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # ---------------------------------------------------------- record

    def count(self, metric: str, value: float = 1.0) -> None:
        self.metrics[metric] += value

    def _wrap(self, span: Span, fn):
        stack = self._stack
        metrics = self.metrics
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if span.timed:
                stack.append(0.0)
                t0 = perf()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    dt = perf() - t0
                    child = stack.pop()
                    if stack:
                        stack[-1] += dt
                    self.n_spans += 1
                    if span.time_metric:
                        metrics[span.time_metric] += dt
                    if span.self_metric:
                        metrics[span.self_metric] += dt - child
                    self.metrics["_self_total"] += dt - child
            else:
                result = fn(*args, **kwargs)
            if span.calls_metric:
                metrics[span.calls_metric] += 1
            if span.on_result is not None:
                span.on_result(self, result, args, kwargs)
            return result

        return wrapper

    @property
    def traced_s(self) -> float:
        """Total time inside any span (the sum of all self times)."""
        return self.metrics.get("_self_total", 0.0)
