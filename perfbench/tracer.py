"""In-memory span tracer that wraps functions wherever they are bound.

A span is one call of a wrapped function: its name, start, end and the span
that was open when it began (its parent).  Spans are appended to flat arrays
while the program runs and written out once, when it ends.  Functions are
wrapped from outside the program: every namespace (module or class) that
binds the original function object gets the wrapper instead, and
``restore()`` puts every original back.

Spans are kept on one stack, so the traced program must call wrapped
functions from a single thread.  The benchmark's workloads do.
"""

import functools
import time
from array import array
from collections import defaultdict
from collections.abc import Callable, Iterable

import numpy as np

Counter = Callable[[tuple, dict, object], dict[str, float]]


def patch_everywhere(namespaces: Iterable[object], original: object,
                     replacement: object) -> list[tuple[object, str, object]]:
    """Rebind every attribute that is ``original`` to ``replacement``.

    Returns (namespace, attribute, original) entries for restoring.
    """
    patched = []
    for ns in namespaces:
        for attr, value in list(vars(ns).items()):
            if value is original:
                setattr(ns, attr, replacement)
                patched.append((ns, attr, original))
    return patched


def restore(patched: list[tuple[object, str, object]]) -> None:
    """Undo ``patch_everywhere``, latest patch first."""
    for ns, attr, original in reversed(patched):
        setattr(ns, attr, original)


class Tracer:
    """Records spans and per-function counters for the functions it wraps."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self._clock = clock
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn: Callable, count: Counter | None = None) -> Callable:
        """Wrapper recording one span per call; ``count`` adds ``<name>.<stat>`` counters."""
        name_id = len(self.names)
        self.names.append(name)
        clock, stack, counters = self._clock, self._stack, self.counters
        span_name, span_parent = self.span_name, self.span_parent
        span_start, span_end = self.span_start, self.span_end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(span_name)
            span_name.append(name_id)
            span_parent.append(stack[-1] if stack else -1)
            span_end.append(0.0)
            stack.append(index)
            span_start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                span_end[index] = clock()
                stack.pop()
            if count is not None:
                for stat, value in count(args, kwargs, result).items():
                    counters[f"{name}.{stat}"] += value
            return result

        return traced

    def install(self, namespaces: list[object], name: str, original: Callable,
                count: Counter | None = None) -> None:
        """Wrap ``original`` and bind the wrapper wherever the original is bound."""
        self._patched += patch_everywhere(namespaces, original, self.wrap(name, original, count))

    def restore(self) -> None:
        restore(self._patched)
        self._patched = []

    def save(self, path: str) -> None:
        """Write the spans and counters as one ``.npz`` file."""
        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
            counter_names=np.array(list(self.counters), dtype=str),
            counter_values=np.array(list(self.counters.values()), dtype=np.float64),
        )


class Spans:
    """Spans loaded from ``Tracer.save``, with per-name summaries."""

    def __init__(self, names, name, parent, start, end, counters):
        self.names = list(names)
        self.name = np.asarray(name, dtype=np.int64)
        self.parent = np.asarray(parent, dtype=np.int64)
        self.start = np.asarray(start, dtype=np.float64)
        self.end = np.asarray(end, dtype=np.float64)
        self.counters = dict(counters)

    @classmethod
    def load(cls, path) -> "Spans":
        with np.load(path) as data:
            counters = zip(data["counter_names"].tolist(), data["counter_values"].tolist())
            return cls(data["names"].tolist(), data["name"], data["parent"],
                       data["start"], data["end"], counters)

    def durations(self, name: str) -> np.ndarray:
        """Duration in seconds of every span with this name, in call order."""
        if name not in self.names:
            return np.empty(0)
        mask = self.name == self.names.index(name)
        return self.end[mask] - self.start[mask]

    def self_times(self) -> np.ndarray:
        """Each span's duration minus the time its child spans cover.

        Spans come from one stack, so a span's direct children never overlap
        one another and lie inside it: their durations add up to the time
        they cover.
        """
        duration = self.end - self.start
        has_parent = self.parent >= 0
        covered = np.bincount(self.parent[has_parent], weights=duration[has_parent],
                              minlength=len(duration))
        return duration - covered

    def summary(self) -> dict[str, dict[str, float]]:
        """Per name: ``calls``, total ``ms`` and total ``self_ms``."""
        k = len(self.names)
        duration = self.end - self.start
        calls = np.bincount(self.name, minlength=k)
        ms = np.bincount(self.name, weights=duration, minlength=k) * 1e3
        self_ms = np.bincount(self.name, weights=self.self_times(), minlength=k) * 1e3
        return {
            n: {"calls": int(calls[i]), "ms": float(ms[i]), "self_ms": float(self_ms[i])}
            for i, n in enumerate(self.names)
        }
