"""Micro-bench: the repro.obs disabled-mode guard is near-zero overhead.

The observability contract (docs/API.md, "Observability") is that a process
which never enables metrics pays only one attribute load per instrumented
site — `if _OBS.enabled:` — and nothing else.  This bench measures that
guard directly and then scales it against the serving path's per-item cost
to bound the end-to-end overhead, which the acceptance criterion caps at 2%
of uninstrumented serving throughput.

Run directly::

    python benchmarks/bench_obs_overhead.py

or under pytest, where the bounds are asserted::

    python -m pytest benchmarks/bench_obs_overhead.py -q
"""

from __future__ import annotations

import json
import platform
import sys
import time

import numpy as np

from repro.mpi.comm import SimComm
from repro.obs import MetricsRegistry, get_registry
from repro.selection.selector import AdaptiveReducer

N_RANKS = 16
CHUNK_LEN = 256
BATCH_ITEMS = 32


def _time_loop(fn, iterations: int) -> float:
    """Seconds per call of ``fn`` over a tight loop (loop overhead included)."""
    t0 = time.perf_counter()
    for _ in range(iterations):
        fn()
    return (time.perf_counter() - t0) / iterations


def bench_guard(iterations: int = 200_000) -> dict:
    """Cost of the disabled guard vs an empty call (the instrumented site)."""
    reg = MetricsRegistry(enabled=False)

    def guarded() -> None:
        if reg.enabled:
            reg.counter("repro_bench_total").inc()

    def empty() -> None:
        pass

    # warm both code paths
    for _ in range(1000):
        guarded()
        empty()
    t_guarded = _time_loop(guarded, iterations)
    t_empty = _time_loop(empty, iterations)
    reg.enable()
    t_enabled = _time_loop(guarded, iterations)
    return {
        "case": "guard_cost",
        "iterations": iterations,
        "disabled_guard_ns": (t_guarded - t_empty) * 1e9,
        "disabled_call_ns": t_guarded * 1e9,
        "enabled_counter_ns": t_enabled * 1e9,
    }


def count_guard_reads(fn) -> int:
    """Reads of the global registry's ``enabled`` flag during one ``fn()``.

    Every instrumented site reads the flag through the same registry object,
    so swapping that object's class for a counting subclass for the one
    call counts the guards the call really evaluates, at every layer.
    """
    registry = get_registry()
    original = type(registry)
    reads = [0]

    class _Counting(original):
        def __getattribute__(self, name):
            if name == "enabled":
                reads[0] += 1
            return object.__getattribute__(self, name)

    registry.__class__ = _Counting
    try:
        fn()
    finally:
        registry.__class__ = original
    return reads[0]


def bench_serving_bound(guard_row: dict) -> dict:
    """Bound the serving-path overhead of disabled metrics analytically.

    The per-item guard bill is the counted guard reads per item (see
    :func:`count_guard_reads`) × the measured disabled call cost; dividing by the measured per-item serving time gives the
    worst-case throughput loss — the quantity the 2% acceptance criterion
    caps.  Measuring the ratio directly (instrumented vs uninstrumented
    binary) is impossible in-tree, and a disabled-vs-enabled wall-clock diff
    drowns in scheduler noise at these magnitudes, which is exactly the
    point: the overhead is far below measurement noise.
    """
    rng = np.random.default_rng(7)
    batches = [
        [rng.random(CHUNK_LEN) for _ in range(N_RANKS)] for _ in range(BATCH_ITEMS)
    ]
    comm = SimComm(N_RANKS)

    def run() -> None:
        AdaptiveReducer(comm, threshold=1e-13).reduce_many(batches, tree="balanced")

    run()  # warm schedule caches and kernels
    guard_reads = count_guard_reads(run)
    guards_per_item = guard_reads / BATCH_ITEMS
    best = min(_time_loop(run, 1) for _ in range(5))
    per_item_s = best / BATCH_ITEMS
    guard_s = max(guard_row["disabled_call_ns"], 0.0) * 1e-9
    overhead_fraction = (guards_per_item * guard_s) / per_item_s
    return {
        "case": "serving_overhead_bound",
        "items": BATCH_ITEMS,
        "n_ranks": N_RANKS,
        "chunk_len": CHUNK_LEN,
        "per_item_s": per_item_s,
        "guard_reads_per_call": guard_reads,
        "guards_per_item": guards_per_item,
        "overhead_fraction": overhead_fraction,
    }


def run_all() -> dict:
    guard = bench_guard()
    return {
        "bench": "obs_overhead",
        "schema": 1,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cases": [guard, bench_serving_bound(guard)],
    }


def main() -> int:
    payload = run_all()
    print(json.dumps(payload, indent=2))
    return 0


# -- pytest entry points: assert the overhead bounds ---------------------------


def test_disabled_guard_is_near_zero():
    """One guarded site costs well under a microsecond when disabled."""
    row = bench_guard(iterations=50_000)
    assert row["disabled_call_ns"] < 2000.0, row  # loose: CI boxes jitter


def test_serving_overhead_within_two_percent():
    """Acceptance: disabled metrics cost < 2% of serving throughput."""
    guard = bench_guard(iterations=50_000)
    row = bench_serving_bound(guard)
    assert row["overhead_fraction"] < 0.02, row


def test_enabled_counter_still_cheap():
    """Enabled-path sanity: a labelled counter inc stays in the µs range."""
    row = bench_guard(iterations=50_000)
    assert row["enabled_counter_ns"] < 50_000.0, row


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
