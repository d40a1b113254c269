"""Spans and counters recorded around calls into the program's layers.

The tracer never edits the program: :class:`Patches` swaps a public
function (or method) for a timing wrapper at the name its caller looks
up, and puts the original back afterwards.  Spans (name, start, end,
parent, attributes) are kept in memory and written out when the run
ends; :func:`span_tree_totals` turns them into per-layer totals and the
self time of each parent.
"""

from __future__ import annotations

import functools
import inspect
import threading
import time
from contextlib import contextmanager, nullcontext
from typing import Any, Callable, Iterator

#: ``(attrs, args, kwargs, result)`` -> None; fills the span's counters.
OnResult = Callable[[dict, tuple, dict, Any], None]
#: ``(attrs, args, kwargs)`` -> None; records state before the call.
Before = Callable[[dict, tuple, dict], None]


class Tracer:
    """Collects spans from any thread; each thread keeps its own stack."""

    def __init__(self) -> None:
        #: ``[name, start_ns, end_ns, parent_index, attrs]`` per span.
        self.spans: list[list] = []
        #: Wrappers record nothing while this is false.
        self.enabled = True
        self._local = threading.local()
        # Re-entrant: a signal handler in the main thread may export
        # while that thread is inside span().
        self._lock = threading.RLock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str) -> Iterator[dict]:
        stack = self._stack()
        record = [name, 0, 0, stack[-1] if stack else -1, {}]
        with self._lock:
            self.spans.append(record)
            stack.append(len(self.spans) - 1)
        record[1] = time.perf_counter_ns()
        try:
            yield record[4]
        finally:
            stack.pop()
            record[2] = time.perf_counter_ns()

    def export(self) -> list[list]:
        """A copy of every span; an unfinished one has ``end == 0``."""
        with self._lock:
            return [list(s) for s in self.spans]


class NullTracer:
    """Stands in for :class:`Tracer` when tracing is off."""

    def span(self, name: str) -> "nullcontext[dict]":
        return nullcontext({})


class Patches:
    """Install timing wrappers on module or class attributes."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._saved: list[tuple[object, str, object]] = []

    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        on_result: "OnResult | None" = None,
        before: "Before | None" = None,
    ) -> None:
        original = inspect.getattr_static(owner, attr)
        is_classmethod = isinstance(original, classmethod)
        fn = original.__func__ if is_classmethod else original
        tracer = self.tracer

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if not tracer.enabled:
                return fn(*args, **kwargs)
            with tracer.span(name) as attrs:
                if before is not None:
                    before(attrs, args, kwargs)
                result = fn(*args, **kwargs)
                if on_result is not None:
                    on_result(attrs, args, kwargs, result)
                return result

        self._saved.append((owner, attr, original))
        setattr(owner, attr, classmethod(traced) if is_classmethod else traced)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def children_of(spans: "list[list]") -> dict[int, list[int]]:
    kids: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        kids.setdefault(s[3], []).append(i)
    return kids


def self_time_ns(spans: "list[list]", kids: dict[int, list[int]], i: int) -> int:
    """Span *i*'s duration minus its children's, checked to add up.

    The children of one span run one after another inside it, so their
    durations plus the self time must equal the parent's duration
    exactly; a child outside its parent or overlapping a sibling means
    the spans were recorded wrongly.
    """
    start, end = spans[i][1], spans[i][2]
    if not end:
        raise ValueError(f"span {spans[i][0]!r} was still open")
    covered = 0
    last_end = start
    for k in sorted(kids.get(i, ()), key=lambda k: spans[k][1]):
        ks, ke = spans[k][1], spans[k][2]
        if not ke or ks < last_end or ke > end:
            raise ValueError(
                f"span {spans[k][0]!r} is not nested inside "
                f"{spans[i][0]!r} after its siblings"
            )
        covered += ke - ks
        last_end = ke
    return (end - start) - covered


def span_tree_totals(
    spans: "list[list]", kids: dict[int, list[int]], root: int
) -> tuple[dict[str, int], dict[str, int]]:
    """Per-name total duration (ns) and summed counters under *root*.

    The root's own name maps to its self time.
    """
    totals: dict[str, int] = {spans[root][0]: self_time_ns(spans, kids, root)}
    counters: dict[str, int] = {}
    pending = list(kids.get(root, ()))
    while pending:
        i = pending.pop()
        name, start, end, _parent, attrs = spans[i]
        totals[name] = totals.get(name, 0) + (end - start)
        for key, value in attrs.items():
            counters[f"{name}.{key}"] = counters.get(f"{name}.{key}", 0) + value
        pending.extend(kids.get(i, ()))
    return totals, counters
