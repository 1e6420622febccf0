"""Dynamic micro-batching: coalesce concurrent requests into one
``reduce_many`` call per tick.

The batched pipeline pays its sketch call and per-algorithm dispatch once
per tick instead of once per item — *if* items arrive together.  A network
front end receives them one at a time, so the batcher re-creates the
batch at the queue: requests land in a bounded queue, and a single drain
task takes the first waiter, **lingers** for companions while one can
still arrive, then executes the whole tick as one
:meth:`AdaptiveReducer.reduce_many` call in a worker thread.

When a tick fires:

* **Intakes** — a companion can only come from a connection that is
  reading its next request.  The daemon holds an *intake* open exactly
  while a connection is inside ``read_request`` (:meth:`MicroBatcher.reading`);
  a connection whose request is queued, executing or being answered
  cannot add to the tick.
* **The rule** — the tick lingers only while it holds fewer than
  ``max_batch`` items, the batcher is not closing, and some intake has
  been open at every moment since the tick began to form; ``max_linger_s``
  bounds the wait.  Otherwise it fires at once, and
  ``repro_serve_tick_flush_total{reason}`` counts why: ``full``,
  ``drain``, ``no_sender`` or ``expired``.  A batcher nobody reads for
  (direct submits) never lingers; submits made before the drain task runs
  still share its tick.

Semantics:

* **Backpressure** — a submit the queue cannot take whole raises
  :class:`BatcherFull` (the daemon answers 429) and counts every item on
  ``repro_serve_rejected_total``; nothing is silently dropped.
* **Deadlines** — each request may carry an absolute deadline; requests
  that expire while queued are failed with :class:`DeadlineExceeded` (504)
  *instead of* being computed, so a backlog sheds load from the oldest
  end.  A tick can legitimately drain zero live requests (all expired) —
  the selector layer accepts the resulting empty batch.
* **Graceful drain** — :meth:`drain` stops intake (:class:`BatcherClosing`
  → 503), processes everything already accepted, then parks the task.
  Accepted work is never abandoned.
* **Result identity** — ticks group requests by threshold and each group
  is one ``reduce_many`` call, whose per-item results are bitwise-equal to
  standalone :meth:`AdaptiveReducer.reduce` calls by the selector's
  serving-path contract; batching changes cost, never values.

Batches execute one at a time (the drain task awaits each executor call),
so a single-reducer daemon never runs two ``reduce_many`` calls
concurrently from this path — the dispatch arenas see strictly ordered
traffic even at high client concurrency.

Item lifetime: queued items may be zero-copy ndarray views of a
connection's receive buffer (the binary-frame ingest path), pinned only
until their results are delivered.  The batcher therefore drops every
item reference as soon as its future resolves — a retained view would
block that connection's buffer from growing for its next request.
"""

from __future__ import annotations

import asyncio
import contextlib
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Optional, Sequence

from repro.obs import DEFAULT_SIZE_BUCKETS, get_registry

__all__ = [
    "BatcherClosing",
    "BatcherFull",
    "DeadlineExceeded",
    "MicroBatcher",
]

_OBS = get_registry()


def _item_nbytes(item: Any) -> int:
    """Payload bytes of one queued item (a per-rank chunk sequence; a
    scattered row's bytes without a walk over its chunks)."""
    row = getattr(item, "row", None)
    if row is not None:
        return int(row.nbytes)
    try:
        return sum(int(getattr(c, "nbytes", 0)) for c in item)
    except TypeError:  # not iterable; opaque item
        return int(getattr(item, "nbytes", 0))

#: batch-size histogram bounds (requests per tick, not seconds)
_BATCH_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0)

#: linger histogram bounds (seconds): 10 µs .. 1 s
_LINGER_BUCKETS = (
    1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 1e-1, 3e-1, 1.0,
)


class BatcherFull(Exception):
    """The bounded queue is full — the daemon answers 429."""


class BatcherClosing(Exception):
    """The batcher is draining — the daemon answers 503."""


class DeadlineExceeded(Exception):
    """The request's deadline passed while it was queued — 504."""


@dataclass
class _Pending:
    """One queued request: payload plus completion plumbing."""

    item: Any
    threshold: "float | None"
    deadline: "float | None"  # absolute loop time, None = no deadline
    future: asyncio.Future = field(repr=False)
    enqueued_at: float = 0.0
    nbytes: int = 0  # payload size, captured at submit (item is cleared later)


class MicroBatcher:
    """Bounded request queue drained into batched reduction calls.

    ``reduce_fn(items, threshold)`` is the blocking batch executor
    (typically a closure over ``AdaptiveReducer.reduce_many``); it runs in
    the event loop's default thread executor so the loop keeps serving
    sockets while NumPy works.  It returns one result per item; an
    exception in an item's slot fails that item alone, and a raised
    exception fails the whole group.  ``max_batch`` bounds how many items
    join a tick, and ``max_linger_s`` how long its first item waits for
    them; it waits only while an intake (:meth:`reading`) is open.
    ``max_linger_s=0`` (with ``max_batch=1``) is the request-at-a-time
    baseline the serving bench compares against.
    """

    def __init__(
        self,
        reduce_fn: Callable[[Sequence[Any], Optional[float]], Sequence[Any]],
        *,
        max_batch: int = 64,
        max_linger_s: float = 1e-3,
        queue_size: int = 1024,
    ) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if max_linger_s < 0:
            raise ValueError("max_linger_s must be >= 0")
        if queue_size < 1:
            raise ValueError("queue_size must be >= 1")
        self._reduce_fn = reduce_fn
        self.max_batch = int(max_batch)
        self.max_linger_s = float(max_linger_s)
        self.queue_size = int(queue_size)
        self._pending: "deque[_Pending]" = deque()
        self._wakeup = asyncio.Event()
        self._closing = False
        self._intakes = 0  # connections inside read_request
        # the last intake closed while items were queued: no companion could
        # arrive at that moment, even if a connection has begun reading since
        self._senders_gone = False
        self._task: "asyncio.Task | None" = None
        self._loop: "asyncio.AbstractEventLoop | None" = None
        self.batches_processed = 0
        self.requests_accepted = 0

    # -- lifecycle ----------------------------------------------------------
    def start(self) -> None:
        """Spawn the drain task on the running loop (idempotent)."""
        if self._task is None or self._task.done():
            self._loop = asyncio.get_running_loop()
            self._closing = False
            self._task = self._loop.create_task(
                self._run(), name="repro-serve-batcher"
            )

    async def drain(self) -> None:
        """Stop intake, flush every accepted request, park the task.

        Idempotent; safe to call with the queue empty (the tick that
        drains zero requests is a supported case end to end).
        """
        self._closing = True
        self._wakeup.set()
        if self._task is not None:
            task, self._task = self._task, None
            await task

    @property
    def closing(self) -> bool:
        return self._closing

    @property
    def depth(self) -> int:
        return len(self._pending)

    @property
    def intakes(self) -> int:
        """Open intakes: connections that could still submit."""
        return self._intakes

    @contextlib.contextmanager
    def reading(self) -> Iterator[None]:
        """Hold an intake open while a connection reads its next request.

        Leaving the last open intake, on any path (a request read, EOF, an
        error, cancellation), fires the forming tick: the drain task wakes
        to it even if a connection starts reading again first.  The caller
        must submit a request it read without awaiting in between, or that
        wake could fire the tick the request was about to join.
        """
        self._intakes += 1
        try:
            yield
        finally:
            self._intakes -= 1
            if not self._intakes and self._pending:
                self._senders_gone = True
                self._wakeup.set()

    # -- intake -------------------------------------------------------------
    def submit(
        self,
        item: Any,
        *,
        threshold: "float | None" = None,
        deadline_s: "float | None" = None,
    ) -> "asyncio.Future":
        """Enqueue one request; returns the future its result lands on.

        Raises :class:`BatcherClosing` during drain and :class:`BatcherFull`
        when the bounded queue is at capacity — callers map those to
        503/429.  ``deadline_s`` is relative (seconds from now).
        """
        return self.submit_many(
            [item], threshold=threshold, deadline_s=deadline_s
        )[0]

    def submit_many(
        self,
        items: Sequence[Any],
        *,
        threshold: "float | None | list[float | None]" = None,
        deadline_s: "float | None | list[float | None]" = None,
    ) -> "list[asyncio.Future]":
        """All-or-nothing bulk submit (one wire request's worth of items
        either fully enqueues or fully rejects — no partial batches).

        ``threshold`` and ``deadline_s`` are each one value for every item
        or a list of per-item values.  A rejection counts every item on
        ``repro_serve_rejected_total``.
        """
        assert self._loop is not None, "start() before submit()"
        if self._closing:
            self._count_reject("closing", len(items))
            raise BatcherClosing("serving daemon is draining")
        if len(self._pending) + len(items) > self.queue_size:
            self._count_reject("queue_full", len(items))
            raise BatcherFull(
                f"queue at {len(self._pending)}/{self.queue_size} cannot "
                f"take {len(items)} more request(s)"
            )
        if not isinstance(threshold, list):
            threshold = [threshold] * len(items)
        if not isinstance(deadline_s, list):
            deadline_s = [deadline_s] * len(items)
        now = self._loop.time()
        futures: "list[asyncio.Future]" = []
        for item, t, d in zip(items, threshold, deadline_s):
            fut = self._loop.create_future()
            self._pending.append(
                _Pending(
                    item=item,
                    threshold=t,
                    deadline=now + d if d is not None else None,
                    future=fut,
                    enqueued_at=now,
                    nbytes=_item_nbytes(item) if _OBS.enabled else 0,
                )
            )
            futures.append(fut)
        self.requests_accepted += len(items)
        if _OBS.enabled:
            _OBS.gauge("repro_serve_queue_depth").set(len(self._pending))
        self._wakeup.set()
        return futures

    def _count_reject(self, reason: str, count: int) -> None:
        if _OBS.enabled:
            _OBS.counter("repro_serve_rejected_total", reason=reason).inc(count)

    # -- the drain task -----------------------------------------------------
    async def _run(self) -> None:
        assert self._loop is not None
        while True:
            while not self._pending:
                if self._closing:
                    return
                self._wakeup.clear()
                await self._wakeup.wait()
            first_at = self._loop.time()
            linger_until = first_at + self.max_linger_s
            reason = self._fire_reason()
            while reason is None:
                remaining = linger_until - self._loop.time()
                if remaining <= 0:
                    reason = "expired"
                    break
                self._wakeup.clear()
                try:
                    await asyncio.wait_for(self._wakeup.wait(), remaining)
                except asyncio.TimeoutError:
                    reason = "expired"
                else:
                    reason = self._fire_reason()
            lingered = self._loop.time() - first_at
            batch = [
                self._pending.popleft()
                for _ in range(min(len(self._pending), self.max_batch))
            ]
            self._senders_gone = False
            if _OBS.enabled:
                _OBS.gauge("repro_serve_queue_depth").set(len(self._pending))
                _OBS.histogram(
                    "repro_serve_linger_seconds", buckets=_LINGER_BUCKETS
                ).observe(lingered)
                _OBS.counter("repro_serve_tick_flush_total", reason=reason).inc()
            await self._process(batch)
            # drop the processed batch before parking: items may be
            # zero-copy views of a connection's receive buffer, and a
            # lingering reference here would block that buffer from
            # growing for its next request (bytearray resize BufferError)
            del batch

    def _fire_reason(self) -> "str | None":
        """Why the forming tick fires now, or None while it may linger."""
        if len(self._pending) >= self.max_batch:
            return "full"
        if self._closing:
            return "drain"
        if self._senders_gone or not self._intakes:
            return "no_sender"
        return None

    async def _process(self, batch: "list[_Pending]") -> None:
        assert self._loop is not None
        now = self._loop.time()
        live: "list[_Pending]" = []
        for p in batch:
            if p.future.done():  # client went away; nothing to deliver
                p.item = None
                continue
            if p.deadline is not None and now >= p.deadline:
                p.item = None
                if _OBS.enabled:
                    _OBS.counter("repro_serve_deadline_misses_total").inc()
                p.future.set_exception(
                    DeadlineExceeded(
                        f"deadline passed after {now - p.enqueued_at:.3f}s "
                        "in queue"
                    )
                )
                continue
            live.append(p)
        self.batches_processed += 1
        if _OBS.enabled:
            _OBS.counter("repro_serve_batches_total").inc()
            _OBS.histogram(
                "repro_serve_batch_items", buckets=_BATCH_BUCKETS
            ).observe(len(live))
            _OBS.histogram(
                "repro_serve_batch_bytes", buckets=DEFAULT_SIZE_BUCKETS
            ).observe(float(sum(p.nbytes for p in live)))
        if not live:
            return  # a legitimately empty tick: everything expired
        groups: "dict[float | None, list[_Pending]]" = {}
        for p in live:
            groups.setdefault(p.threshold, []).append(p)
        for threshold, group in groups.items():
            items = [p.item for p in group]
            try:
                results = await self._loop.run_in_executor(
                    None, self._reduce_fn, items, threshold
                )
            except Exception as exc:  # noqa: BLE001 - delivered per-request
                results = [exc] * len(group)
            finally:
                del items
            for p, result in zip(group, results):
                p.item = None  # release buffer-view payloads promptly
                if p.future.done():
                    continue
                if isinstance(result, BaseException):
                    p.future.set_exception(result)
                else:
                    p.future.set_result(result)
