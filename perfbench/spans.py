"""In-memory span tracing around calls into the program's layers.

The traced run wraps public functions of each layer (never code inside
them) so that every call records a span: name, start, end, parent span
and request id.  Spans are kept in memory and written out once, when the
traced process exits.  A layer's *self time* is its span's duration
minus the part of that interval its child spans cover.

Parents are tracked per thread and per asyncio task through a context
variable, so spans recorded in the daemon's executor thread start a tree
of their own; the wrappers that cross that boundary attach request ids
explicitly.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import json
import threading
import time
from dataclasses import asdict, dataclass
from typing import Callable, Optional


@dataclass(frozen=True)
class Span:
    sid: int
    parent: Optional[int]
    rid: Optional[str]
    name: str
    start: float
    end: float
    n: int = 1
    tag: str = ""

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class _Frame:
    """The open span a context is inside, and its request's id holder."""

    __slots__ = ("sid", "rid")

    def __init__(self, sid: int, rid: "list[Optional[str]]") -> None:
        self.sid = sid
        self.rid = rid  # shared by every frame of one request


class Tracer:
    """Records spans; :meth:`wrap` and :meth:`wrap_async` instrument calls."""

    def __init__(self) -> None:
        self.spans: "list[Span]" = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._current: "contextvars.ContextVar[Optional[_Frame]]" = (
            contextvars.ContextVar("perfbench_span", default=None)
        )

    def _next_id(self) -> int:
        with self._lock:
            return next(self._ids)

    def record(
        self,
        name: str,
        start: float,
        end: float,
        *,
        parent: Optional[int] = None,
        rid: Optional[str] = None,
        n: int = 1,
        tag: str = "",
    ) -> Span:
        """Record a span whose interval was measured by the caller."""
        span = Span(self._next_id(), parent, rid, name, start, end, n, tag)
        with self._lock:
            self.spans.append(span)
        return span

    def current(self) -> Optional[_Frame]:
        return self._current.get()

    def set_request(self, rid: str) -> None:
        """Name the request the current span tree serves."""
        frame = self._current.get()
        if frame is not None:
            frame.rid[0] = rid

    def _enter(self, new_request: bool) -> "tuple[_Frame, Optional[_Frame], contextvars.Token]":
        parent = self._current.get()
        rid = [None] if new_request or parent is None else parent.rid
        frame = _Frame(self._next_id(), rid)
        return frame, parent, self._current.set(frame)

    def _exit(self, frame, parent, token, name, start, n, tag) -> None:
        end = time.perf_counter()
        self._current.reset(token)
        span = Span(
            frame.sid,
            parent.sid if parent is not None else None,
            frame.rid[0],
            name,
            start,
            end,
            n,
            tag,
        )
        with self._lock:
            self.spans.append(span)

    def wrap(
        self,
        fn: Callable,
        name: str,
        *,
        items: "Callable[..., int] | None" = None,
        tag: "Callable[..., str] | None" = None,
        new_request: bool = False,
    ) -> Callable:
        """``fn`` recording one span per call.

        ``items(*args, **kwargs)`` gives the call's item count and
        ``tag(*args, **kwargs)`` a label (such as the algorithm code).
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            n = items(*args, **kwargs) if items is not None else 1
            label = tag(*args, **kwargs) if tag is not None else ""
            frame, parent, token = self._enter(new_request)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(frame, parent, token, name, start, n, label)

        return traced

    def wrap_async(
        self, fn: Callable, name: str, *, new_request: bool = False
    ) -> Callable:
        """Coroutine-function form of :meth:`wrap`."""

        @functools.wraps(fn)
        async def traced(*args, **kwargs):
            frame, parent, token = self._enter(new_request)
            start = time.perf_counter()
            try:
                return await fn(*args, **kwargs)
            finally:
                self._exit(frame, parent, token, name, start, 1, "")

        return traced

    def dump(self, path: str) -> None:
        with self._lock:
            rows = [asdict(s) for s in self.spans]
        with open(path, "w") as f:
            json.dump(rows, f)


def load(path: str) -> "list[Span]":
    with open(path) as f:
        return [Span(**row) for row in json.load(f)]


def covered(start: float, end: float, intervals) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    clipped = sorted(
        (max(a, start), min(b, end)) for a, b in intervals if b > start and a < end
    )
    total = 0.0
    run_start = run_end = None
    for a, b in clipped:
        if run_end is None or a > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = a, b
        else:
            run_end = max(run_end, b)
    if run_end is not None:
        total += run_end - run_start
    return total


def self_times(spans: "list[Span]") -> "dict[int, float]":
    """Each span's duration minus the part its children cover."""
    children: "dict[int, list[tuple[float, float]]]" = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {
        s.sid: s.duration - covered(s.start, s.end, children.get(s.sid, ()))
        for s in spans
    }


def self_share_by_layer(spans: "list[Span]", skip=()) -> "dict[str, float]":
    """Each layer's share of the total self time, leaving out spans named in
    ``skip`` (time spent waiting rather than working)."""
    own = self_times(spans)
    out: "dict[str, float]" = {}
    for s in spans:
        if s.name not in skip:
            out[s.layer] = out.get(s.layer, 0.0) + own[s.sid]
    total = sum(out.values())
    return {layer: t / total for layer, t in out.items()} if total > 0 else {}
