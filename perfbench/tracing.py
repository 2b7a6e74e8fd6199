"""In-memory spans and counters, recorded by rebinding module attributes.

A caller inside ``leojadce`` finds a function either by a module attribute
(``vbi.run``) or by a name it imported (``harness`` binds ``draw_channels``).
Either way the lookup goes through one module's namespace, so a binding
names that module and attribute. ``installed`` swaps in a recording
wrapper for each binding and puts every original back on exit, also when
the traced code raises.

A span is ``(name, start, end, parent)``: perf_counter seconds and the index
of the enclosing span in ``Tracer.spans`` (-1 at top level). Counters keep
plain call counts, values reported by a wrapped call's result, and maxima
of one positional argument.
"""

from __future__ import annotations

import functools
import math
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterable


@dataclass(frozen=True)
class Binding:
    """One lookup site to record.

    ``kind`` is "span" (timed, nested) or "count" (call count only, for
    functions called thousands of times per trial). For a span, ``observe``
    maps the call's result to counter increments. For a count, ``max_arg``
    is the index of a positional argument whose maximum is kept.
    """

    module: object
    attr: str
    name: str
    kind: str = "span"
    observe: Callable[[object], dict[str, float]] | None = None
    max_arg: int | None = None


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: Counter[str] = Counter()
        self.maxima: dict[str, float] = {}
        self._stack: list[int] = []

    def wrap(self, fn: Callable, b: Binding) -> Callable:
        if b.kind == "count":
            return self._counting(fn, b)
        if b.kind == "span":
            return self._spanning(fn, b)
        raise ValueError(f"unknown binding kind {b.kind!r}")

    def _spanning(self, fn: Callable, b: Binding) -> Callable:
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append((b.name, math.nan, math.nan, parent))  # keeps start order
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (b.name, start, end, parent)
            if b.observe is not None:
                counts.update(b.observe(result))
            return result

        return wrapper

    def _counting(self, fn: Callable, b: Binding) -> Callable:
        counts, maxima, name, arg = self.counts, self.maxima, b.name, b.max_arg

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            if arg is not None and args[arg] > maxima.get(name, -math.inf):
                maxima[name] = float(args[arg])
            return fn(*args, **kwargs)

        return wrapper

    def durations(self, name: str) -> list[float]:
        """Durations of the spans of this name that are not nested in one of
        the same name (``nmse_active`` calls ``nmse``), so sums are busy time."""
        return [end - start for n, start, end, parent in self.spans
                if n == name and (parent < 0 or self.spans[parent][0] != name)]

    def self_times(self, name: str) -> list[float]:
        """Span durations minus the time their direct children cover
        (children of one span run one after another, never overlapping)."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - child[i]
                for i, (n, start, end, _) in enumerate(self.spans) if n == name]

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,name,start_s,end_s,parent\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i},{name},{start!r},{end!r},{parent}\n")


@contextmanager
def installed(tracer: Tracer, bindings: Iterable[Binding]):
    """Rebind every site to a recording wrapper; restore all on exit."""
    saved = []
    try:
        for b in bindings:
            original = getattr(b.module, b.attr)
            saved.append((b.module, b.attr, original))
            setattr(b.module, b.attr, tracer.wrap(original, b))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
