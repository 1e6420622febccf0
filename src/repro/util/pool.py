"""Persistent multicore serving pool with zero-copy shared-memory dispatch.

The serving-path engines (``AdaptiveReducer.reduce_many``, ensemble sweeps,
grid experiments) fan independent work units out over processes.  Before this
module each fan-out built a fresh ``ProcessPoolExecutor`` — paying worker
spawn plus a full interpreter/NumPy import per call — and shipped every array
operand through the IPC pipe as pickled bytes.  Both costs are hoisted here:

* **Persistent pool** — one process-global :class:`WorkerPool`, lazily
  started on first dispatch and reused by every subsequent call (explicit
  :func:`shutdown_pool` plus an ``atexit`` hook).  Worker count comes from
  ``REPRO_WORKERS`` or cpu_count − 1; the start method is ``forkserver``
  (fork-safety with threads, workers importable once then forked) where
  available, else ``spawn``.  A crashed worker breaks a
  ``ProcessPoolExecutor`` irrecoverably, so :meth:`WorkerPool.map` detects
  ``BrokenProcessPool``, rebuilds the executor, retries the batch once
  (dispatched tasks are deterministic and idempotent by construction), and
  counts the restart.
* **Persistent arenas** — the one shared-memory transport.  A
  pool-lifetime segment pair (:func:`arena_pair`: an input arena and a
  result arena), sized geometrically by :meth:`SharedArena.reserve` and
  reused across calls, so a warm dispatch performs **zero** segment
  create/unlink syscalls.  Workers cache their attachment per arena epoch
  (:func:`arena_view`; attach once per segment generation, not once per
  task), read operands through **read-only** input-arena views, and write
  result records straight into the result arena instead of pickling them
  back through the IPC pipe.
* **One sharded dispatch** — :func:`run_shards` is the only user of the
  arenas: the caller names its input regions and fills them once in
  place; each contiguous shard runs a worker trampoline that maps the
  views, calls the caller's task and drops every view, however the task
  ends.  ``reduce_many`` and ``evaluate_ensemble`` both dispatch through
  it.  Only tiny descriptors (segment name, generation, shard bounds, the
  task's picklable arguments) and a few returned scalars cross the pipe.
* **Adaptive cutover** — :func:`shard_plan` keeps small batches serial: IPC
  only pays for itself past fixed items-and-bytes floors
  (:data:`MIN_PARALLEL_ITEMS` / :data:`MIN_PARALLEL_BYTES`), while an
  explicit ``workers >= 2`` request always parallelises.

Determinism contract: callers shard work into *contiguous* ranges and
workers receive bit-identical operand bytes (``float64`` views of the packed
segment), so every parallel result is bitwise-equal to the serial path —
sharding selects *where* each independent item is computed, never *how*.
The property tests in ``tests/test_parallel_determinism.py`` pin this across
worker counts.

Observability (parent-side, via :mod:`repro.obs`): tasks dispatched, shard
sizes, pool starts/worker restarts, shared-memory bytes in flight, and
dispatch/roundtrip latency histograms.
"""

from __future__ import annotations

import atexit
import math
import os
import threading
import time
import traceback
import warnings
from contextlib import contextmanager
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Sequence, TypeVar

import multiprocessing as mp
from multiprocessing import shared_memory

import numpy as np

from repro.obs import get_registry
from repro.util.chunking import split_indices

T = TypeVar("T")
R = TypeVar("R")

__all__ = [
    "default_workers",
    "in_worker",
    "WorkerPool",
    "get_pool",
    "shutdown_pool",
    "pool_info",
    "SharedArena",
    "arena_pair",
    "arena_view",
    "arena_info",
    "run_shards",
    "parallel_cutover",
    "shard_plan",
    "register_worker_state",
    "worker_state",
    "MIN_PARALLEL_ITEMS",
    "MIN_PARALLEL_BYTES",
    "MAX_AUTO_PARALLEL_BYTES",
]

_OBS = get_registry()

#: auto-cutover floors, recalibrated for warm-arena dispatch: a reused arena
#: pays one memcpy in plus a ~100 µs pool round trip (no segment create or
#: unlink syscalls, no pickled result return)
MIN_PARALLEL_ITEMS = 4
MIN_PARALLEL_BYTES = 1 << 18  # 256 KiB of float64 payload

#: auto mode refuses to materialise/pack payloads beyond this (the caller can
#: still force it with an explicit ``workers=``); guards against an implicit
#: multi-GiB shared-memory copy of a paper-scale ensemble
MAX_AUTO_PARALLEL_BYTES = 1 << 31

#: shard-size histogram bounds (items per dispatched shard, not seconds)
_SHARD_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0,
                  1024.0, 4096.0, 16384.0, 65536.0)


#: set in each pool worker by the executor initializer.  Nested dispatch is
#: disabled inside workers: a shard function that (transitively) reaches an
#: auto-parallel path — e.g. a grid cell calling ``evaluate_ensemble`` with
#: ``REPRO_WORKERS`` inherited from the parent — must run it serially, or
#: every worker forks its own pool and the executors deadlock joining their
#: grandchildren at exit.
_IN_WORKER = False


def _mark_worker() -> None:
    global _IN_WORKER
    _IN_WORKER = True


def in_worker() -> bool:
    """True inside a pool worker process, where nested dispatch is disabled."""
    return _IN_WORKER


# -- registered worker state ---------------------------------------------------
#
# Module-level mutable state read inside pool workers is a determinism trap:
# forkserver/spawn workers materialise modules fresh, so whatever the parent
# mutated after import is silently absent in the worker.  The sanctioned
# protocol is to register a *factory* at import time — import runs in every
# process, so every worker (and the parent) builds the same value from the
# same inputs — and fetch it with :func:`worker_state` where needed.  The
# flow analyzer (rule FP010) recognises exactly this protocol: accesses to
# state whose only writers are registered factories/initializers don't fire.

_WORKER_STATE_FACTORIES: "dict[str, Callable[[], object]]" = {}
_WORKER_STATE: "dict[str, object]" = {}


def register_worker_state(name: str, factory: "Callable[[], object]") -> "Callable[[], object]":
    """Register ``factory`` as the per-process builder for ``name``.

    Call at module import time (so the registration exists in every
    process).  The factory runs lazily, at most once per process, on the
    first :func:`worker_state` lookup.  Re-registering a name replaces the
    factory and drops any value already materialised in *this* process.
    Returns the factory, so it stacks as a decorator.
    """
    if not callable(factory):
        raise TypeError(f"factory for {name!r} is not callable")
    # repro: allow[FP010] -- this IS the registration protocol: both dicts are
    # (re)built identically in every process by import-time registration calls
    _WORKER_STATE_FACTORIES[name] = factory
    _WORKER_STATE.pop(name, None)  # repro: allow[FP010] -- see above
    return factory


def worker_state(name: str) -> object:
    """The per-process value registered under ``name`` (built on first use).

    Safe to call in the parent and in workers; each process materialises its
    own copy via the registered factory, which is what makes the state
    deterministic across start methods.
    """
    if name not in _WORKER_STATE:
        try:
            # reading the factory table is the protocol itself; it was
            # filled by import-time registration in every process
            factory = _WORKER_STATE_FACTORIES[name]  # repro: allow[FP010] -- see above
        except KeyError:
            raise KeyError(
                f"no worker state registered under {name!r}; call "
                "register_worker_state(name, factory) at module import time"
            ) from None
        # repro: allow[FP010] -- lazy per-process materialisation is the
        # protocol itself; the factory was registered at import in every process
        _WORKER_STATE[name] = factory()
    return _WORKER_STATE[name]  # repro: allow[FP010] -- see above


def default_workers() -> int:
    """Worker count: ``REPRO_WORKERS`` env var, else cpu_count − 1 (min 1).

    A malformed ``REPRO_WORKERS`` (e.g. ``abc``) warns and falls back to the
    cpu-count default instead of raising from deep inside a sweep.
    """
    # Worker-count knob: changes shard placement only; every shard receives
    # bit-identical operand bytes regardless of the count.
    # repro: allow[FP009] -- placement knob only, reduction order unaffected
    env = os.environ.get("REPRO_WORKERS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            warnings.warn(
                f"ignoring malformed REPRO_WORKERS={env!r}; "
                "falling back to cpu_count - 1",
                RuntimeWarning,
                stacklevel=2,
            )
    return max(1, (os.cpu_count() or 2) - 1)


def _start_method() -> str:
    """Pool start method: ``forkserver`` where available, else ``spawn``.

    Never ``fork``: forked children of a threaded parent deadlock, and the
    serving path must stay safe under caller threads.
    """
    return "forkserver" if "forkserver" in mp.get_all_start_methods() else "spawn"


class WorkerPool:
    """A lazily-started, restartable process pool bound to one worker count.

    The executor is created on first :meth:`map` and survives across calls —
    repeated grid sweeps and serving batches stop paying pool startup.  A
    ``BrokenProcessPool`` (worker killed by the OS, segfault in a kernel,
    out-of-memory) is detected, counted, and healed by rebuilding the
    executor; the interrupted batch is retried once because every task the
    serving layer dispatches is deterministic and side-effect-free.
    """

    def __init__(self, workers: "int | None" = None) -> None:
        self.workers = max(1, int(workers)) if workers is not None else default_workers()
        self.start_method = _start_method()
        self._executor: "ProcessPoolExecutor | None" = None
        self._lock = threading.RLock()
        self.starts = 0
        self.restarts = 0
        self.tasks_dispatched = 0

    # -- lifecycle ----------------------------------------------------------
    def _ensure_executor(self) -> ProcessPoolExecutor:
        with self._lock:
            if self._executor is None:
                ctx = mp.get_context(self.start_method)
                self._executor = ProcessPoolExecutor(
                    max_workers=self.workers,
                    mp_context=ctx,
                    initializer=_mark_worker,
                )
                self.starts += 1
                if _OBS.enabled:
                    _OBS.counter("repro_pool_starts_total").inc()
                    _OBS.gauge("repro_pool_live_workers").inc(self.workers)
            return self._executor

    def _handle_broken(self) -> None:
        with self._lock:
            if self._executor is not None:
                self._executor.shutdown(wait=False, cancel_futures=True)
                self._executor = None
                if _OBS.enabled:
                    _OBS.gauge("repro_pool_live_workers").dec(self.workers)
            self.restarts += 1
            if _OBS.enabled:
                _OBS.counter("repro_pool_worker_restarts_total").inc()

    def shutdown(self) -> None:
        """Stop the workers; the next :meth:`map` lazily restarts them."""
        with self._lock:
            if self._executor is not None:
                self._executor.shutdown(wait=True, cancel_futures=True)
                self._executor = None
                if _OBS.enabled:
                    _OBS.gauge("repro_pool_live_workers").dec(self.workers)

    @property
    def live(self) -> bool:
        return self._executor is not None

    def info(self) -> dict:
        """Lifecycle counters: ``{"workers", "start_method", "live",
        "starts", "restarts", "tasks_dispatched"}``."""
        return {
            "workers": self.workers,
            "start_method": self.start_method,
            "live": self.live,
            "starts": self.starts,
            "restarts": self.restarts,
            "tasks_dispatched": self.tasks_dispatched,
        }

    # -- dispatch -----------------------------------------------------------
    def map(
        self,
        fn: Callable[[T], R],
        items: Sequence[T],
        *,
        chunksize: "int | None" = None,
        path: str = "map",
    ) -> "list[R]":
        """Ordered parallel map through the persistent executor.

        ``path`` labels the dispatch in the pool metrics (``"map"``,
        ``"reduce_many"``, ``"ensemble"``, ...).  Worker exceptions propagate
        unchanged; only a *broken pool* (crashed worker) triggers the
        rebuild-and-retry cycle.
        """
        items = list(items)
        if not items:
            return []
        if chunksize is None:
            chunksize = max(1, len(items) // (self.workers * 4))
        for attempt in (0, 1):
            executor = self._ensure_executor()
            t0 = time.perf_counter()
            try:
                iterator = executor.map(fn, items, chunksize=chunksize)
                dispatch_s = time.perf_counter() - t0
                results = list(iterator)
            except BrokenProcessPool:
                self._handle_broken()
                if attempt:
                    raise
                continue
            roundtrip_s = time.perf_counter() - t0
            with self._lock:
                self.tasks_dispatched += len(items)
            if _OBS.enabled:
                _OBS.counter("repro_pool_tasks_total", path=path).inc(len(items))
                _OBS.histogram("repro_pool_dispatch_seconds").observe(dispatch_s)
                _OBS.histogram("repro_pool_roundtrip_seconds").observe(roundtrip_s)
                shard_hist = _OBS.histogram(
                    "repro_pool_shard_items", buckets=_SHARD_BUCKETS
                )
                for size in _shard_sizes(len(items), chunksize):
                    shard_hist.observe(size)
            return results
        raise AssertionError("unreachable")  # pragma: no cover


def _shard_sizes(n_items: int, chunksize: int) -> "list[int]":
    full, rem = divmod(n_items, max(1, chunksize))
    return [chunksize] * full + ([rem] if rem else [])


# -- the process-global pools --------------------------------------------------
#
# One persistent pool *per worker count*: benches and tests sweep workers in
# {1, 2, 4, ...} back to back, and resizing a single pool would pay a full
# worker spin-up on every alternation.  Distinct sizes in one process are few,
# so keeping each warm costs little and makes every repeat dispatch cheap.

_POOLS: "dict[int, WorkerPool]" = {}
_GLOBAL_LOCK = threading.Lock()


def get_pool(workers: "int | None" = None) -> WorkerPool:
    """The process-global pool for this worker count, created on demand.

    ``workers=None`` sizes the pool from :func:`default_workers`.  The
    returned pool persists for the life of the process (or until
    :func:`shutdown_pool`), so repeated dispatches skip executor startup.
    """
    want = max(1, int(workers)) if workers is not None else default_workers()
    with _GLOBAL_LOCK:
        pool = _POOLS.get(want)
        if pool is None:
            pool = WorkerPool(want)
            # Statically pool-reachable, dynamically parent-only: inside a
            # worker shard_plan() returns (1, 1) (see _IN_WORKER), so the
            # parallel branch that calls get_pool never runs there and
            # worker-side _POOLS stays empty.
            # repro: allow[FP010] -- parent-only in practice; workers serial
            _POOLS[want] = pool
        return pool


#: reentrancy guard for :func:`shutdown_pool`.  ``atexit`` does not run on
#: SIGTERM, so long-lived daemons (``repro-serve``) install signal handlers
#: that call :func:`shutdown_pool` themselves — and a handler can fire while
#: an earlier shutdown (atexit, another handler, an explicit call) is already
#: mid-flight on the same thread.  The RLock + flag turn that reentrant call
#: into a no-op instead of a deadlock or a double unlink.
_SHUTDOWN_GUARD = threading.RLock()
_SHUTDOWN_ACTIVE = False


def shutdown_pool() -> None:
    """Stop every global pool's workers and unlink the arenas.

    Registered as an ``atexit`` hook, but ``atexit`` does not run on
    SIGTERM — a killed daemon would leak arena segments under ``/dev/shm``
    — so signal-terminated services must call this from their own
    SIGTERM/SIGINT handling (``repro-serve`` does).  The call is
    **idempotent** (a second call with nothing running is a no-op) and
    **reentrant-safe** (a call re-entered from a signal handler while a
    shutdown is already in progress returns immediately instead of
    deadlocking).

    Pool objects are dropped entirely, so a later :func:`get_pool` starts
    fresh — used by tests and long-lived servers that want to release cores.
    The persistent arenas are unlinked too (workers are gone, so no mapping
    outlives this), returning ``repro_pool_shm_bytes_in_flight`` to zero.
    """
    global _SHUTDOWN_ACTIVE
    with _SHUTDOWN_GUARD:
        if _SHUTDOWN_ACTIVE:
            return  # reentered from a signal handler mid-shutdown
        _SHUTDOWN_ACTIVE = True
        try:
            with _GLOBAL_LOCK:
                for pool in _POOLS.values():
                    pool.shutdown()
                _POOLS.clear()
            _close_arenas()
        finally:
            _SHUTDOWN_ACTIVE = False


atexit.register(shutdown_pool)


def pool_info() -> dict:
    """Aggregate lifecycle counters across the global pools.

    ``{"pools": [per-pool info], "live_workers", "starts", "restarts",
    "tasks_dispatched"}`` — all-zero/empty if no pool was ever created.
    """
    with _GLOBAL_LOCK:
        pools = [p.info() for p in _POOLS.values()]
    return {
        "pools": pools,
        "live_workers": sum(p["workers"] for p in pools if p["live"]),
        "starts": sum(p["starts"] for p in pools),
        "restarts": sum(p["restarts"] for p in pools),
        "tasks_dispatched": sum(p["tasks_dispatched"] for p in pools),
    }


# -- persistent shared-memory arenas -------------------------------------------
#
# The serving engines dispatch through one process-global pair of
# pool-lifetime arenas ("input" and "result"): the parent reserves capacity
# (grown geometrically, so steady-state traffic reuses the same segment),
# writes operands in, and workers write results back into the result arena —
# the IPC pipe carries only tiny descriptors in both directions.


def _attach_segment(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment without registering it for tracking.

    The parent owns the segment's lifetime; letting the worker's resource
    tracker register an attach-only handle produces spurious unlink attempts
    and "leaked shared_memory" warnings at worker exit.  Python 3.13 exposes
    ``track=False``; earlier versions need the registration briefly no-op'd.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)  # type: ignore[call-arg]
    except TypeError:  # pragma: no cover - depends on Python version
        from multiprocessing import resource_tracker

        original = resource_tracker.register
        resource_tracker.register = lambda *a, **k: None  # type: ignore[assignment]
        try:
            return shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = original  # type: ignore[assignment]


def _buffer_view(
    shm: shared_memory.SharedMemory, dtype, shape, offset: int = 0
) -> np.ndarray:
    """Writable ndarray over ``shm.buf`` that *holds* the buffer export.

    ``np.frombuffer`` keeps a live export on the segment's memoryview for
    the array's lifetime, so closing the mapping under a lingering view
    raises :class:`BufferError` deterministically.  ``np.ndarray(buffer=...)``
    would instead release its export immediately — the close would succeed
    and the lingering view would dangle into unmapped memory.
    """
    if not isinstance(shape, (tuple, list)):
        shape = (shape,)
    count = 1
    for dim in shape:
        count *= int(dim)
    return np.frombuffer(
        shm.buf, dtype=np.dtype(dtype), count=count, offset=offset
    ).reshape(shape)


#: arena segments never shrink below this (one page-ish floor keeps tiny
#: dispatches from thrashing generations)
_MIN_ARENA_BYTES = 1 << 16


def _pow2_at_least(n: int) -> int:
    return 1 << max(0, int(n - 1).bit_length())


class SharedArena:
    """A pool-lifetime, geometrically grown shared-memory segment.

    ``reserve(nbytes)`` returns a picklable ``(name, generation, tag)``
    handle after ensuring capacity.  Growth allocates a fresh segment at the
    next power of two, unlinks the old one, and bumps ``generation`` — the
    signal workers use to re-attach (see :func:`arena_view`); a reserve
    satisfied from existing capacity is the steady state and touches no
    kernel object at all.  The owner (the dispatching parent) is the only
    writer of input regions; workers write disjoint shard slices of the
    result arena.  :func:`arena_pair` serialises dispatches, so capacity and
    contents never change while a batch is in flight.
    """

    def __init__(self, tag: str) -> None:
        self.tag = tag
        self.generation = 0
        self.capacity = 0
        self._shm: "shared_memory.SharedMemory | None" = None

    def reserve(self, nbytes: int) -> "tuple[str, int, str]":
        nbytes = max(1, int(nbytes))
        if self._shm is None or nbytes > self.capacity:
            new_cap = _pow2_at_least(max(nbytes, _MIN_ARENA_BYTES))
            new = shared_memory.SharedMemory(create=True, size=new_cap)
            old, old_cap = self._shm, self.capacity
            if old is not None:
                # workers still attached to the old epoch release it on
                # their next task; the parent mapping must be view-free here.
                # A failed regrow discards the new segment and leaves the
                # arena (segment, generation, capacity, gauge) as it was.
                try:
                    old.close()
                except BufferError:
                    new.close()
                    new.unlink()
                    raise RuntimeError(
                        f"arena segment {old.name!r} (tag {self.tag!r}) "
                        "still has live ndarray views at regrow; the "
                        "dispatcher must del its arena views before the "
                        "next reserve()"
                    ) from None
                try:
                    old.unlink()
                except FileNotFoundError:  # pragma: no cover - already gone
                    pass
            self._shm, self.capacity = new, new_cap
            self.generation += 1
            if _OBS.enabled:
                _OBS.counter("repro_pool_arena_grow_total", tag=self.tag).inc()
                _OBS.gauge("repro_pool_shm_bytes_in_flight").inc(new_cap - old_cap)
        elif _OBS.enabled:
            _OBS.counter("repro_pool_arena_reuse_total", tag=self.tag).inc()
        return (self._shm.name, self.generation, self.tag)

    def view(self, dtype, shape, offset: int = 0) -> np.ndarray:
        """Parent-side ndarray view of a region of the current segment.

        Views must be dropped (``del``) before the next :meth:`reserve` can
        grow or :meth:`close` can run — both surface lingering views as
        errors rather than leaking the mapping.
        """
        assert self._shm is not None, "reserve() before view()"
        return _buffer_view(self._shm, dtype, shape, offset=offset)

    def write(self, array: np.ndarray, offset: int = 0) -> None:
        """Copy ``array`` into the segment at ``offset`` (view-free).

        The transient view is dropped before returning, so callers using
        these helpers never hold an export that would block the next
        :meth:`reserve` regrow.
        """
        array = np.asarray(array)
        view = self.view(array.dtype, array.shape, offset=offset)
        view[...] = array
        del view

    def read(self, dtype, shape, offset: int = 0) -> np.ndarray:
        """Copy a region out of the segment (the view-free result path)."""
        view = self.view(dtype, shape, offset=offset)
        out = view.copy()
        del view
        return out

    def close(self) -> None:
        """Unlink and release the segment (idempotent)."""
        if self._shm is None:
            return
        shm, self._shm = self._shm, None
        cap, self.capacity = self.capacity, 0
        if _OBS.enabled:
            _OBS.gauge("repro_pool_shm_bytes_in_flight").dec(cap)
        try:
            shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already unlinked
            pass
        try:
            shm.close()
        except BufferError:
            raise RuntimeError(
                f"arena segment {shm.name!r} (tag {self.tag!r}) still has "
                "live ndarray views at close; the dispatcher must del its "
                "arena views before shutdown"
            ) from None

    def info(self) -> dict:
        return {
            "tag": self.tag,
            "generation": self.generation,
            "capacity": self.capacity,
            "live": self._shm is not None,
        }


_ARENAS: "dict[str, SharedArena]" = {}
#: held for the whole of every arena dispatch: shards write disjoint result
#: regions, but two concurrent batches would overwrite each other's operands
_ARENA_DISPATCH_LOCK = threading.Lock()


@contextmanager
def arena_pair():
    """Exclusive use of the process-global ``(input, result)`` arena pair.

    The lock spans the entire dispatch — reserve, operand copy-in, pool map,
    result copy-out — because the arenas are shared mutable buffers; callers
    must copy results out of the result arena before leaving the block.
    Statically pool-reachable but dynamically parent-only: inside a worker
    ``shard_plan`` returns ``(1, 1)`` (see ``_IN_WORKER``), so the parallel
    branches that dispatch through arenas never run there.
    """
    with _ARENA_DISPATCH_LOCK:
        # repro: allow[FP010] -- parent-only in practice; workers serial
        inp = _ARENAS.get("input")
        if inp is None:
            inp = _ARENAS["input"] = SharedArena("input")  # repro: allow[FP010] -- see above
        res = _ARENAS.get("result")  # repro: allow[FP010] -- see above
        if res is None:
            res = _ARENAS["result"] = SharedArena("result")  # repro: allow[FP010] -- see above
        yield inp, res


def arena_info() -> dict:
    """Generation/capacity snapshot of the global arenas (empty if unused)."""
    with _ARENA_DISPATCH_LOCK:
        # repro: allow[FP010] -- parent-only in practice; workers serial
        return {tag: arena.info() for tag, arena in _ARENAS.items()}


def _close_arenas() -> None:
    with _ARENA_DISPATCH_LOCK:
        # repro: allow[FP010] -- parent-only in practice; workers serial
        for arena in _ARENAS.values():
            arena.close()
        _ARENAS.clear()  # repro: allow[FP010] -- see above


# Worker-side attachment cache, keyed by arena tag: each entry holds the
# (name, generation, SharedMemory) a worker is currently mapped to.  Goes
# through the registered-state protocol so every process (parent included)
# materialises its own empty cache deterministically.
register_worker_state("pool.arena_attachments", dict)


def arena_view(handle: "tuple[str, int, str]", dtype, shape, offset: int = 0) -> np.ndarray:
    """Worker-side ndarray view of an arena region, attachment cached.

    The mapping is established once per arena **epoch** — a task whose
    handle names the segment this process is already attached to reuses the
    cached mapping with zero syscalls; a new name (the arena grew, or the
    pool crashed and was rebuilt) releases the stale attachment and maps the
    fresh segment.  A stale attachment that still has live views raises a
    clear error instead of silently leaking the old segment.  Views handed
    out here must be dropped before the task returns.

    Views of an ``"input"``-tagged handle are **read-only**: the parent
    packed those operands before dispatch and every shard reads them
    concurrently, so a worker write would change a sibling's reduction
    inputs mid-flight — it raises ``ValueError`` instead.  Result-arena
    views stay writable; shards write disjoint slices of them.
    """
    name, generation, tag = handle
    cache: dict = worker_state("pool.arena_attachments")  # type: ignore[assignment]
    entry = cache.get(tag)
    if entry is None or entry[0] != name:
        if entry is not None:
            try:
                entry[2].close()
            except BufferError:
                raise RuntimeError(
                    f"stale arena attachment {entry[0]!r} (tag {tag!r}, "
                    f"generation {entry[1]}) still has live ndarray views; "
                    "shard functions must drop every arena view before "
                    "returning so old epochs can be released"
                ) from None
            del cache[tag]
        entry = (name, generation, _attach_segment(name))
        cache[tag] = entry
    view = _buffer_view(entry[2], dtype, shape, offset=offset)
    if tag == "input":
        view.flags.writeable = False
    return view


# -- sharded dispatch ------------------------------------------------------------


def run_shards(
    task: "Callable[..., R]",
    n_items: int,
    plan: "tuple[int, int]",
    inputs: "Sequence[tuple]",
    fill: "Callable[[list[np.ndarray]], None]",
    record,
    args: tuple = (),
    *,
    path: str,
) -> "tuple[np.ndarray, list[R]]":
    """Run ``task`` over contiguous shards of ``n_items`` items in the pool.

    The one arena dispatch.  ``plan`` is :func:`shard_plan`'s
    ``(pool_workers, n_shards)``.  ``inputs`` lists the input regions as
    ``(dtype, shape)``; ``fill(views)`` writes each of them once, in place,
    through writable views of the input arena (a ``fill`` that raises
    dispatches nothing, and its frames are cleared so no view outlives the
    call).  Each shard then runs
    ``task(start, stop, inputs, out, *args)`` in a worker, where ``inputs``
    are read-only views of the regions and ``out`` is the writable view of
    records ``[start, stop)`` of ``n_items`` ``record``-dtype records in the
    result arena.  The worker trampoline drops every view when the task
    ends, by return or by raise, so no task handles the arena itself.

    Returns ``(records, returns)``: a copy of the ``n_items`` records, and
    each shard's return value in shard order.  Those come back through the
    pickle pipe: keep them to a few Python scalars.
    """
    record = np.dtype(record)
    regions, end = [], 0
    for dtype, shape in inputs:
        dtype = np.dtype(dtype)
        regions.append((dtype, shape, end))
        # 8-byte aligned: kernels read float64/int64 regions through pointers
        end += -(-dtype.itemsize * math.prod(shape) // 8) * 8
    pool = get_pool(plan[0])
    with arena_pair() as (arena_in, arena_res):
        in_handle = arena_in.reserve(end)
        views = [arena_in.view(*region) for region in regions]
        try:
            fill(views)
        except BaseException as exc:
            # the traceback pins the raising fill's frames, and with them
            # every arena view they hold, for as long as the exception lives
            traceback.clear_frames(exc.__traceback__)
            raise
        finally:
            del views
        res_handle = arena_res.reserve(record.itemsize * n_items)
        payloads = [
            (task, in_handle, regions, res_handle, record, s.start, s.stop, args)
            for s in split_indices(n_items, plan[1])
        ]
        returns = pool.map(_run_shard, payloads, chunksize=1, path=path)
        records = arena_res.read(record, (n_items,))
    return records, returns


def _run_shard(payload: tuple):
    """Worker trampoline of :func:`run_shards`: map the views, run the
    task, drop the views."""
    task, in_handle, regions, res_handle, record, start, stop, args = payload
    inputs = [arena_view(in_handle, *region) for region in regions]
    out = arena_view(
        res_handle, record, (stop - start,), offset=record.itemsize * start
    )
    try:
        return task(start, stop, inputs, out, *args)
    finally:
        del inputs, out


# -- serial/parallel cutover ---------------------------------------------------


def parallel_cutover(n_items: int, total_bytes: int, workers: int) -> bool:
    """Auto-mode decision: is this payload worth the IPC round trip?

    Calibrated against the measured fixed costs of a warm **arena** dispatch
    (one memcpy of the payload into the reused input arena plus a ~100 µs
    pool round trip; no segment create/unlink, no pickled result return):
    both the item floor and the byte floor must clear, and the payload must
    stay under the auto-materialisation cap.
    """
    if _IN_WORKER or workers <= 1 or n_items < 2:
        return False
    if total_bytes > MAX_AUTO_PARALLEL_BYTES:
        return False
    return n_items >= MIN_PARALLEL_ITEMS and total_bytes >= MIN_PARALLEL_BYTES


def shard_plan(
    n_items: int, total_bytes: int, workers: "int | None"
) -> "tuple[int, int]":
    """Plan a dispatch: ``(pool_workers, n_shards)``.

    ``n_shards == 1`` means "run serial, don't touch the pool".  An explicit
    ``workers >= 2`` always parallelises (the caller asked); ``workers`` of
    ``None`` defers to :func:`default_workers` gated by
    :func:`parallel_cutover`, so small batches never pay IPC.
    """
    if n_items < 2:
        return (1, 1)
    if workers is None:
        w = default_workers()
        if not parallel_cutover(n_items, total_bytes, w):
            return (1, 1)
    else:
        w = int(workers)
        if w <= 1:
            return (1, 1)
        if _IN_WORKER:
            warnings.warn(
                "nested parallel dispatch inside a pool worker is disabled; "
                "running this batch serially",
                RuntimeWarning,
                stacklevel=2,
            )
            return (1, 1)
    return (w, min(w, n_items))
