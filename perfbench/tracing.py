"""Span recording by wrapping kgconfine's public functions from outside.

``Tracer.install`` replaces module attributes with timing wrappers, so calls
made inside the package through module globals (``thermal_functions`` ->
``partition_direct``, ``auto_grid`` -> ``wavefunction``) and through module
attributes (``spectrum`` -> ``heun.evaluate_series``, ``cli`` ->
``thermo.partition_direct``) are caught as well.  Spans stay in memory and
are written out once at the end of the run.

A span's parent is the innermost open span on the same thread; a span opened
on a pool thread with nothing open there takes the innermost open span of the
installing thread, which is the sweep that dispatched it.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from dataclasses import asdict, dataclass, field
from typing import Callable


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float
    cpu_s: float  # time.thread_time() spent by the calling thread inside the span
    thread: int
    error: str | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def wall_s(self) -> float:
        return self.end - self.start


# (module attribute, span name or callable(args, kwargs) -> name,
#  None or callable(args, kwargs, result or raised exception) -> dict)
Hook = tuple[str, object, Callable | None]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._home = threading.get_ident()
        self._home_stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._home:
            return self._home_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, original: Callable, name, attrs: Callable | None) -> Callable:
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = self._home_stack[-1] if self._home_stack else None
            with self._lock:
                span_id = next(self._ids)
            label = name(args, kwargs) if callable(name) else name
            stack.append(span_id)
            error = None
            outcome = None
            cpu0 = time.thread_time()
            t0 = time.perf_counter()
            try:
                outcome = original(*args, **kwargs)
                return outcome
            except BaseException as exc:
                error, outcome = type(exc).__name__, exc
                raise
            finally:
                t1 = time.perf_counter()
                cpu1 = time.thread_time()
                stack.pop()
                extra = attrs(args, kwargs, outcome) if attrs else {}
                span = Span(span_id, parent, label, t0, t1, cpu1 - cpu0,
                            threading.get_ident(), error, extra)
                with self._lock:
                    self.spans.append(span)

        return wrapper

    def install(self, module, hooks: list[Hook]) -> None:
        for attr, name, attrs in hooks:
            original = getattr(module, attr)
            self._undo.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, attrs))

    def uninstall(self) -> None:
        while self._undo:
            module, attr, original = self._undo.pop()
            setattr(module, attr, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                record = asdict(span)
                record["wall_s"] = span.wall_s
                fh.write(json.dumps(record) + "\n")


def covered(interval: tuple[float, float], parts: list[tuple[float, float]]) -> float:
    """Length of ``interval`` covered by the union of ``parts``."""
    lo, hi = interval
    total, reach = 0.0, lo
    for start, end in sorted(parts):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total
