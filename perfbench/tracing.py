"""In-memory span tracing around the benchmark's calls into mtix.

Spans are recorded from the benchmark side only: either around a call the
benchmark makes itself (`Tracer.span`), or around a call one mtix function
makes to another, by swapping the module-level name the caller looks up at
call time (`Tracer.patch`). Nothing under `src/` is changed.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext
from typing import Any, Callable, Iterator


class Span:
    """One timed call. `parent` is the index of the enclosing span, or -1."""

    __slots__ = ("name", "start", "end", "parent", "query_id", "count")

    def __init__(self, name: str, parent: int, query_id: int | None) -> None:
        self.name = name
        self.start = time.perf_counter()
        self.end = self.start
        self.parent = parent
        self.query_id = query_id
        self.count: int | None = None

    def as_list(self) -> list:
        return [self.name, self.start, self.end, self.parent, self.query_id, self.count]


class Tracer:
    """Keeps spans in memory; the owner serialises `spans` when it is done.

    A span opened while another is open becomes its child. `query_id` is
    stamped on every span opened while it is set, so the spans of one query
    share it.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.query_id: int | None = None
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        rec = Span(name, self._open[-1] if self._open else -1, self.query_id)
        self._open.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec.end = time.perf_counter()
            self._open.pop()

    def patch(
        self,
        module: Any,
        attr: str,
        name: str,
        on_result: Callable[[Span, Any], None] | None = None,
    ) -> None:
        """Route calls to `module.attr` through a span, for this process's life."""
        original = getattr(module, attr)

        def traced(*args: Any, **kwargs: Any) -> Any:
            with self.span(name) as rec:
                result = original(*args, **kwargs)
            if on_result is not None:
                on_result(rec, result)
            return result

        setattr(module, attr, traced)


def span_factory(tracer: Tracer | None) -> Callable[[str], Any]:
    """`tracer.span`, or a no-op context for untraced runs."""
    if tracer is None:
        return lambda name: nullcontext()
    return tracer.span


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    `spans` are the serialised `[name, start, end, parent, query_id, count]`
    lists written by `Span.as_list`.
    """
    covered = [0.0] * len(spans)
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [end - start - c for (_, start, end, _, _, _), c in zip(spans, covered)]
