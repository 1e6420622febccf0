"""Persistent worker pool: lifecycle, arena dispatch, cutover, env handling."""

from __future__ import annotations

import os

import numpy as np
import pytest
from concurrent.futures.process import BrokenProcessPool

from repro.obs import get_registry
from repro.util.parallel import default_workers, map_parallel
from repro.util.pool import (
    MAX_AUTO_PARALLEL_BYTES,
    MIN_PARALLEL_BYTES,
    MIN_PARALLEL_ITEMS,
    arena_info,
    arena_pair,
    arena_view,
    get_pool,
    parallel_cutover,
    pool_info,
    register_worker_state,
    run_shards,
    shard_plan,
    shutdown_pool,
    worker_state,
)


def _square(x: int) -> int:
    return x * x


def _crash_or_square(x: int) -> int:
    if x < 0:
        os._exit(13)  # simulate a worker killed mid-task (OOM, segfault)
    return x * x


def _probe_nested_dispatch(_: int) -> tuple:
    """Runs inside a pool worker: nested dispatch must stay serial there."""
    from repro.util import pool
    from repro.util.parallel import map_parallel

    os.environ["REPRO_WORKERS"] = "4"  # what a runner parent would export
    auto_plan = pool.shard_plan(1000, 1 << 30, None)
    nested = map_parallel(_square, range(6), workers=4)
    return (pool.in_worker(), auto_plan, nested)


def _probe_arena_writes(handles: tuple) -> bool:
    """Runs inside a pool worker: reports whether the input-arena view
    rejected a write, and writes ``data[0] + data[3]`` into the result arena."""
    in_handle, res_handle = handles
    data = arena_view(in_handle, np.float64, (4,))
    try:
        data[0] = -1.0
        rejected = False
    except ValueError:
        rejected = True
    out_v = arena_view(res_handle, np.float64, (1,))
    out_v[0] = data[0] + data[3]
    del data, out_v
    return rejected


def _double_shard(start: int, stop: int, inputs: list, out: np.ndarray, scale: float):
    """Shard task: ``out = scale * data[start:stop]``; reports its bounds
    and whether the input view refused a write."""
    (data,) = inputs
    try:
        data[start] = -1.0
        rejected = False
    except ValueError:
        rejected = True
    out[:] = scale * data[start:stop]
    return start, stop, rejected


def _raise_holding_views(start: int, stop: int, inputs: list, out: np.ndarray):
    """Shard task that fails while its frame still holds arena views."""
    rows = inputs[0][start:stop]
    out[:] = rows
    raise RuntimeError(f"shard [{start}, {stop}) failed")


def _fill_arange(views: list) -> None:
    views[0][:] = np.arange(views[0].size, dtype=np.float64)


def _fill_then_raise(views: list) -> None:
    """A fill that fails while its frame still holds an arena view."""
    held = views[0]
    held[:] = 1.0
    raise ValueError("operand rejected")


class TestDefaultWorkers:
    def test_env_honored(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert default_workers() == 3

    def test_env_clamped_to_one(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "0")
        assert default_workers() == 1

    def test_malformed_env_warns_and_falls_back(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "abc")
        with pytest.warns(RuntimeWarning, match="REPRO_WORKERS"):
            workers = default_workers()
        assert workers == max(1, (os.cpu_count() or 2) - 1)

    def test_unset_uses_cpu_count(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert default_workers() == max(1, (os.cpu_count() or 2) - 1)


class TestMapParallel:
    def test_accepts_any_iterable(self):
        out = map_parallel(_square, (i for i in range(10)), workers=2)
        assert out == [i * i for i in range(10)]

    def test_serial_fallback_keeps_unpicklable_fn(self):
        # lambdas cannot cross process boundaries; <= 2 items stays in-process
        assert map_parallel(lambda x: x + 1, iter([1, 2]), workers=4) == [2, 3]

    def test_workers_one_is_serial(self):
        out = map_parallel(lambda x: -x, range(10), workers=1)
        assert out == [-i for i in range(10)]

    def test_repeated_calls_reuse_persistent_pool(self):
        first = map_parallel(_square, range(8), workers=2)
        pool = get_pool(2)
        starts_after_first = pool.starts
        dispatched = pool.tasks_dispatched
        second = map_parallel(_square, range(8), workers=2)
        assert first == second == [i * i for i in range(8)]
        assert pool.starts == starts_after_first  # no executor rebuild
        assert pool.tasks_dispatched == dispatched + 8


class TestPoolLifecycle:
    def test_get_pool_is_per_size_singleton(self):
        a = get_pool(2)
        b = get_pool(2)
        c = get_pool(3)
        assert a is b
        assert c is not a and c.workers == 3

    def test_pool_info_aggregates(self):
        get_pool(2).map(_square, [1, 2, 3], chunksize=1)
        info = pool_info()
        assert info["tasks_dispatched"] >= 3
        assert any(p["workers"] == 2 for p in info["pools"])

    def test_crashed_worker_detected_and_pool_restarts(self):
        pool = get_pool(2)
        assert pool.map(_square, [1, 2, 3, 4], chunksize=1) == [1, 4, 9, 16]
        restarts_before = pool.restarts
        with pytest.raises(BrokenProcessPool):
            pool.map(_crash_or_square, [1, 2, -1, 3], chunksize=1)
        assert pool.restarts >= restarts_before + 1
        # the pool heals: the next dispatch transparently restarts workers
        assert pool.map(_square, [5, 6, 7, 8], chunksize=1) == [25, 36, 49, 64]
        assert pool.live

    def test_shutdown_twice_is_a_no_op(self):
        """SIGTERM handlers and atexit can both call shutdown_pool — the
        second (and any later) call must be a harmless no-op."""
        get_pool(2).map(_square, [1, 2], chunksize=1)
        shutdown_pool()
        shutdown_pool()  # idempotent: nothing to release, no raise
        # and the pool machinery still works after a double shutdown
        assert get_pool(2).map(_square, [3], chunksize=1) == [9]
        shutdown_pool()

    def test_shutdown_reentry_is_a_no_op(self):
        """A signal arriving *during* shutdown re-enters shutdown_pool on
        the same thread; the guard must turn that into an immediate
        return instead of deadlocking or double-releasing."""
        from repro.util import pool as pool_mod

        get_pool(2).map(_square, [1], chunksize=1)
        inner_calls = []
        original = pool_mod._close_arenas

        def reentrant_close():
            # simulate the signal handler firing mid-shutdown
            inner_calls.append(object())
            if len(inner_calls) == 1:
                shutdown_pool()  # must return immediately (guard active)
            original()

        pool_mod._close_arenas = reentrant_close
        try:
            shutdown_pool()
        finally:
            pool_mod._close_arenas = original
        assert len(inner_calls) == 1  # the reentrant call did not recurse
        assert get_pool(2).map(_square, [2], chunksize=1) == [4]
        shutdown_pool()


class TestNestedDispatch:
    def test_workers_never_fork_their_own_pools(self):
        """A grid cell inside a worker reaching an auto-parallel path (e.g.
        evaluate_ensemble with REPRO_WORKERS inherited from the parent) must
        run serially — nested pools deadlock the executors at exit."""
        out = get_pool(2).map(_probe_nested_dispatch, [0, 1], chunksize=1)
        for in_w, auto_plan, nested in out:
            assert in_w is True
            assert auto_plan == (1, 1)
            assert nested == [i * i for i in range(6)]

    def test_parent_process_is_not_marked(self):
        from repro.util.pool import in_worker

        assert in_worker() is False


class TestSharedMemory:
    """Arena round trips: what a parent writes, a worker-side view reads."""

    @staticmethod
    def _roundtrip(arr: np.ndarray) -> None:
        shutdown_pool()
        try:
            with arena_pair() as (inp, _res):
                handle = inp.reserve(arr.nbytes)
                inp.write(arr)
                view = arena_view(handle, arr.dtype, arr.shape)
                assert view.dtype == arr.dtype
                assert view.shape == arr.shape
                assert np.array_equal(view, arr)
                del view
        finally:
            shutdown_pool()

    def test_roundtrip_view(self):
        self._roundtrip(np.arange(32, dtype=np.float64).reshape(4, 8) * 1.5)

    def test_integer_matrix_roundtrip(self):
        self._roundtrip(np.arange(12, dtype=np.int64).reshape(3, 4))

    def test_empty_array(self):
        self._roundtrip(np.zeros(0, dtype=np.float64))

    def test_bytes_in_flight_gauge_returns_to_zero(self):
        registry = get_registry()
        was_enabled = registry.enabled
        registry.enable()
        shutdown_pool()
        try:
            gauge = registry.gauge("repro_pool_shm_bytes_in_flight")
            base = gauge.value
            with arena_pair() as (inp, _res):
                inp.reserve(8192)
                assert gauge.value == base + (1 << 16)
                inp.close()
                assert gauge.value == base
                inp.close()  # idempotent
            assert gauge.value == base
        finally:
            shutdown_pool()
            if not was_enabled:
                registry.disable()

    def test_pool_metrics_recorded_when_enabled(self):
        registry = get_registry()
        was_enabled = registry.enabled
        registry.enable()
        try:
            tasks = registry.counter("repro_pool_tasks_total", path="map")
            before = tasks.value
            map_parallel(_square, range(8), workers=2)
            assert tasks.value == before + 8
            assert registry.histogram("repro_pool_roundtrip_seconds").count > 0
            assert registry.histogram("repro_pool_dispatch_seconds").count > 0
        finally:
            if not was_enabled:
                registry.disable()


class TestCutover:
    def test_single_item_always_serial(self):
        assert shard_plan(1, 1 << 30, 8) == (1, 1)

    def test_explicit_workers_force_parallel(self):
        assert shard_plan(2, 16, 4) == (4, 2)
        assert shard_plan(100, 16, 4) == (4, 4)

    def test_explicit_one_forces_serial(self):
        assert shard_plan(1000, 1 << 30, 1) == (1, 1)

    def test_auto_small_batches_stay_serial(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "4")
        assert shard_plan(MIN_PARALLEL_ITEMS - 1, 1 << 30, None) == (1, 1)
        assert shard_plan(1000, MIN_PARALLEL_BYTES - 1, None) == (1, 1)

    def test_auto_large_batches_parallelise(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "4")
        plan = shard_plan(1000, MIN_PARALLEL_BYTES, None)
        assert plan == (4, 4)

    def test_auto_respects_materialisation_cap(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "4")
        assert not parallel_cutover(1000, MAX_AUTO_PARALLEL_BYTES + 1, 4)


class TestWorkerState:
    """The sanctioned protocol for module state that pool workers may read."""

    def test_factory_runs_lazily_and_once(self):
        calls = []

        def build():
            calls.append(1)
            return {"table": [1, 2, 3]}

        register_worker_state("t_lazy", build)
        assert calls == []  # registration alone never materialises
        first = worker_state("t_lazy")
        second = worker_state("t_lazy")
        assert first is second and first["table"] == [1, 2, 3]
        assert calls == [1]

    def test_unregistered_name_raises_with_guidance(self):
        with pytest.raises(KeyError, match="register_worker_state"):
            worker_state("t_never_registered")

    def test_reregistration_drops_the_cached_value(self):
        register_worker_state("t_swap", lambda: "old")
        assert worker_state("t_swap") == "old"
        register_worker_state("t_swap", lambda: "new")
        assert worker_state("t_swap") == "new"

    def test_non_callable_factory_rejected(self):
        with pytest.raises(TypeError, match="not callable"):
            register_worker_state("t_bad", 42)

    def test_returns_the_factory_for_decorator_stacking(self):
        def build():
            return 7

        assert register_worker_state("t_deco", build) is build
        assert worker_state("t_deco") == 7


class TestArena:
    """Persistent arena lifecycle: growth epochs, reuse, unlink accounting."""

    def setup_method(self):
        # earlier tests (e.g. parallel-determinism serving runs) may have
        # left pool-lifetime arenas alive; start from a fresh epoch
        shutdown_pool()

    def teardown_method(self):
        shutdown_pool()

    def test_reserve_floor_and_steady_state_reuse(self):
        with arena_pair() as (inp, res):
            name1, gen1, tag1 = inp.reserve(100)
            assert tag1 == "input" and gen1 == 1
            assert inp.capacity == 1 << 16  # page-ish floor
            # a fitting reserve is the steady state: same segment, same epoch
            assert inp.reserve(2000) == (name1, gen1, tag1)
            assert res.tag == "result"

    def test_growth_bumps_generation_and_persists_across_dispatches(self):
        with arena_pair() as (inp, _res):
            _, gen1, _ = inp.reserve(100)
            name2, gen2, _ = inp.reserve(1 << 17)
            assert gen2 == gen1 + 1
            assert inp.capacity == 1 << 17
        with arena_pair() as (inp, _res):
            # the grown segment survives between dispatches (pool lifetime)
            assert inp.reserve(1 << 17) == (name2, gen2, "input")

    def test_grow_and_reuse_counters(self):
        registry = get_registry()
        was_enabled = registry.enabled
        registry.enable()
        try:
            shutdown_pool()  # fresh arenas: the first reserve must grow
            grow = registry.counter("repro_pool_arena_grow_total", tag="input")
            reuse = registry.counter("repro_pool_arena_reuse_total", tag="input")
            g0, r0 = grow.value, reuse.value
            with arena_pair() as (inp, _res):
                inp.reserve(64)
                inp.reserve(64)
            assert grow.value == g0 + 1
            assert reuse.value == r0 + 1
        finally:
            if not was_enabled:
                registry.disable()

    def test_shutdown_unlinks_and_gauge_returns_to_zero(self):
        registry = get_registry()
        was_enabled = registry.enabled
        registry.enable()
        try:
            shutdown_pool()
            gauge = registry.gauge("repro_pool_shm_bytes_in_flight")
            base = gauge.value
            with arena_pair() as (inp, res):
                inp.reserve(8)
                res.reserve(8)
            assert gauge.value == base + 2 * (1 << 16)
            assert set(arena_info()) == {"input", "result"}
            shutdown_pool()
            assert arena_info() == {}
            assert gauge.value == base
        finally:
            if not was_enabled:
                registry.disable()

    def test_arena_view_roundtrip_and_epoch_swap(self):
        with arena_pair() as (inp, _res):
            h1 = inp.reserve(256)
            inp.view(np.float64, (4,))[:] = [1.0, 2.0, 3.0, 4.0]
            v1 = arena_view(h1, np.float64, (4,))
            assert v1.tolist() == [1.0, 2.0, 3.0, 4.0]
            del v1  # dropped before the regrow epoch below
            h2 = inp.reserve(1 << 20)  # forces a new segment + generation
            assert h2[0] != h1[0] and h2[1] == h1[1] + 1
            inp.view(np.float64, (2,))[:] = [5.0, 6.0]
            v2 = arena_view(h2, np.float64, (2,))
            assert v2.tolist() == [5.0, 6.0]
            del v2

    def test_stale_attachment_with_live_view_raises(self):
        with arena_pair() as (inp, _res):
            h1 = inp.reserve(64)
            inp.view(np.float64, (1,))[:] = [7.0]
            lingering = arena_view(h1, np.float64, (1,))
            h2 = inp.reserve(1 << 20)
            with pytest.raises(RuntimeError, match="live ndarray views"):
                arena_view(h2, np.float64, (1,))
            del lingering
            healed = arena_view(h2, np.float64, (1,))  # swap now succeeds
            del healed

    def test_failed_regrow_keeps_gauge_balanced(self):
        registry = get_registry()
        was_enabled = registry.enabled
        registry.enable()
        try:
            gauge = registry.gauge("repro_pool_shm_bytes_in_flight")
            base = gauge.value
            with arena_pair() as (inp, _res):
                handle = inp.reserve(8)
                held = inp.view(np.float64, (1,))
                with pytest.raises(RuntimeError, match="live ndarray views"):
                    inp.reserve(1 << 20)
                # the failed regrow left the arena as it was
                assert inp.reserve(8) == handle
                assert inp.capacity == 1 << 16
                assert gauge.value == base + (1 << 16)
                del held
                assert inp.reserve(1 << 20)[1] == handle[1] + 1
            shutdown_pool()
            assert gauge.value == base
        finally:
            if not was_enabled:
                registry.disable()

    def test_worker_input_view_is_read_only_result_view_writable(self):
        with arena_pair() as (inp, res):
            in_handle = inp.reserve(32)
            inp.write(np.array([1.5, 2.0, 3.0, 4.25]))
            res_handle = res.reserve(8)
            res.write(np.zeros(1))
            [rejected] = get_pool(2).map(
                _probe_arena_writes, [(in_handle, res_handle)], chunksize=1
            )
            assert rejected
            # the rejected write left the operand intact: 1.5 + 4.25
            assert res.read(np.float64, (1,)).tolist() == [5.75]
            assert inp.read(np.float64, (4,)).tolist() == [1.5, 2.0, 3.0, 4.25]


class TestRunShards:
    """The one sharded dispatch: fill once, one trampoline per shard,
    records and small returns back, every view dropped."""

    def setup_method(self):
        shutdown_pool()

    def teardown_method(self):
        shutdown_pool()

    def test_records_and_returns_in_shard_order(self):
        records, returns = run_shards(
            _double_shard, 10, (2, 3), [(np.float64, (10,))], _fill_arange,
            np.float64, (2.0,), path="map",
        )
        assert records.tolist() == [2.0 * i for i in range(10)]
        # contiguous shards, in order; every input view was read-only
        assert returns == [(0, 4, True), (4, 7, True), (7, 10, True)]

    def test_raising_fill_leaves_no_view_alive(self):
        try:
            run_shards(
                _double_shard, 8, (2, 2), [(np.float64, (8,))],
                _fill_then_raise, np.float64, (1.0,), path="map",
            )
        except ValueError:
            # the failed fill dispatched nothing
            assert pool_info()["tasks_dispatched"] == 0
            # while the exception lives, a larger dispatch regrows the input
            # arena, which needs every view of the old segment gone
            n = 1 << 14
            records, _ = run_shards(
                _double_shard, n, (2, 2), [(np.float64, (n,))],
                _fill_arange, np.float64, (1.0,), path="map",
            )
            assert arena_info()["input"]["generation"] == 2
            assert records[1:].tolist() == list(range(1, n))
            shutdown_pool()
        else:
            pytest.fail("the fill's error did not propagate")

    def test_raising_task_leaves_worker_reattachable(self):
        from repro.mpi.comm import SimComm
        from repro.selection.selector import AdaptiveReducer
        from repro.util.pool import arena_info

        with pytest.raises(RuntimeError, match=r"shard \[\d+, \d+\) failed"):
            run_shards(
                _raise_holding_views, 8, (2, 2), [(np.float64, (8,))],
                _fill_arange, np.float64, path="map",
            )
        generation = arena_info()["input"]["generation"]
        # ~400 KiB of operands: the arena regrows, so each worker must drop
        # its attachment to the epoch the failed tasks viewed
        rng = np.random.default_rng(99)
        stream = [[rng.standard_normal(512) for _ in range(4)] for _ in range(24)]
        reducer = AdaptiveReducer(SimComm(4), threshold=1e-13)
        serial = reducer.reduce_many(stream, workers=1)
        parallel = reducer.reduce_many(stream, workers=2)
        assert arena_info()["input"]["generation"] > generation
        assert [np.float64(r.value).tobytes() for r in parallel] == [
            np.float64(r.value).tobytes() for r in serial
        ]
        assert [r.decision.code for r in parallel] == [
            r.decision.code for r in serial
        ]
