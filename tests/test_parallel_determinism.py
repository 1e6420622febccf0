"""Bitwise determinism of the multicore serving paths across worker counts.

The sharding contract (Benmouhoub et al.'s constraint: parallel execution
must not perturb the numerics): ``reduce_many``, ``evaluate_ensemble`` and
the grid sweeps split *independent* work items into contiguous shards, so
the parallel result — values **and** decisions — must be byte-identical to
the serial path at every worker count.  These property tests pin that
across workers ∈ {1, 2, 4}, plus a crashed-worker recovery check.
"""

from __future__ import annotations

import dataclasses
import os

import numpy as np
import pytest
from concurrent.futures.process import BrokenProcessPool

from repro.experiments.grid import grid_sweep
from repro.mpi.comm import SimComm
from repro.selection.policy import AnalyticPolicy
from repro.selection.selector import AdaptiveReducer
from repro.summation import get_algorithm
from repro.trees import evaluate_ensemble, random_shape
from repro.util.pool import get_pool
from repro.util.rng import permutation_stream

WORKER_COUNTS = (1, 2, 4)


def _bits(x: float) -> bytes:
    return np.float64(x).tobytes()


def _uniform_stream(n_items: int = 16, n_ranks: int = 4, width: int = 96):
    rng = np.random.default_rng(1234)
    return [
        [
            rng.uniform(-1.0, 1.0, width) * 10.0 ** rng.integers(-6, 7, size=width)
            for _ in range(n_ranks)
        ]
        for _ in range(n_items)
    ]


def _ragged_stream(n_items: int = 12, n_ranks: int = 3):
    rng = np.random.default_rng(77)
    return [
        [rng.random(int(rng.integers(5, 120))) for _ in range(n_ranks)]
        for _ in range(n_items)
    ]


class _WorkerDriftPolicy(AnalyticPolicy):
    """Chooses PR in every process but ``parent_pid``: a worker whose
    decisions drift from the parent's."""

    def __init__(self, parent_pid: int) -> None:
        super().__init__()
        self.parent_pid = parent_pid

    def select(self, profile, threshold, **kwargs):
        decision = super().select(profile, threshold, **kwargs)
        if os.getpid() == self.parent_pid:
            return decision
        return dataclasses.replace(decision, code="PR")


class TestReduceManyDeterminism:
    def _run(self, batches, tree="balanced"):
        comm = SimComm(len(batches[0]))
        per_worker = []
        for w in WORKER_COUNTS:
            reducer = AdaptiveReducer(comm, threshold=1e-13)
            per_worker.append(
                reducer.reduce_many(batches, tree=tree, workers=w)
            )
        base = per_worker[0]
        for results in per_worker[1:]:
            assert len(results) == len(base)
            for a, b in zip(base, results):
                assert _bits(a.value) == _bits(b.value)
                # decision.predicted_std is a cache-bucket representative and
                # so depends on stream order; the selected code must not.
                assert a.decision.code == b.decision.code
        return base

    def test_uniform_stream_bitwise_identical(self):
        self._run(_uniform_stream())

    def test_ragged_stream_bitwise_identical(self):
        self._run(_ragged_stream())

    def test_parallel_matches_standalone_reduce(self):
        batches = _uniform_stream(n_items=8)
        comm = SimComm(4)
        reducer = AdaptiveReducer(comm, threshold=1e-13)
        parallel = reducer.reduce_many(batches, tree="balanced", workers=2)
        for chunks, result in zip(batches, parallel):
            solo = reducer.reduce(chunks, tree="balanced")
            assert _bits(solo.value) == _bits(result.value)
            assert solo.decision.code == result.decision.code

    def test_threshold_override_consistent(self):
        batches = _uniform_stream(n_items=6)
        comm = SimComm(4)
        reducer = AdaptiveReducer(comm, threshold=1e-13)
        serial = reducer.reduce_many(batches, threshold=1e-6, workers=1)
        parallel = reducer.reduce_many(batches, threshold=1e-6, workers=2)
        for a, b in zip(serial, parallel):
            assert _bits(a.value) == _bits(b.value)
            assert a.decision.code == b.decision.code


class TestEnsembleDeterminism:
    @pytest.mark.parametrize("code", ["ST", "K", "CP"])
    @pytest.mark.parametrize("shape_name", ["balanced", "serial", "random"])
    def test_seeded_ensemble_bitwise_identical(self, code, shape_name):
        n, n_trees = 256, 24
        rng = np.random.default_rng(5)
        data = rng.uniform(-1.0, 1.0, n) * 10.0 ** rng.integers(-6, 7, size=n)
        alg = get_algorithm(code)
        shape = random_shape(n, seed=11) if shape_name == "random" else shape_name
        outs = [
            evaluate_ensemble(data, shape, alg, n_trees, seed=99, workers=w)
            for w in WORKER_COUNTS
        ]
        for other in outs[1:]:
            assert outs[0].tobytes() == other.tobytes()

    def test_explicit_perms_bitwise_identical(self):
        n, n_trees = 128, 20
        rng = np.random.default_rng(8)
        data = rng.uniform(-1.0, 1.0, n) * 10.0 ** rng.integers(-3, 4, size=n)
        perms = np.stack(list(permutation_stream(n, n_trees, seed=3)))
        alg = get_algorithm("K")
        outs = [
            evaluate_ensemble(data, "balanced", alg, n_trees, perms=perms, workers=w)
            for w in WORKER_COUNTS
        ]
        for other in outs[1:]:
            assert outs[0].tobytes() == other.tobytes()

    def test_deterministic_algorithm_short_circuits(self):
        # PR is tree-independent: workers must not change the tiled value
        rng = np.random.default_rng(2)
        data = rng.random(64)
        alg = get_algorithm("PR")
        a = evaluate_ensemble(data, "balanced", alg, 12, seed=1, workers=4)
        b = evaluate_ensemble(data, "balanced", alg, 12, seed=1, workers=1)
        assert a.tobytes() == b.tobytes()


class TestGridDeterminism:
    def test_grid_sweep_bitwise_identical_across_workers(self):
        kwargs = dict(
            n_values=(64,),
            k_values=(1e3,),
            dr_values=(0, 4, 8),
            codes=("ST", "K"),
            n_trees=12,
            seed=20150908,
            shape="balanced",
        )
        serial = grid_sweep(workers=1, **kwargs)
        parallel = grid_sweep(workers=2, **kwargs)
        assert len(serial) == len(parallel) == 3
        for a, b in zip(serial, parallel):
            assert a.n == b.n and a.dynamic_range == b.dynamic_range
            assert _bits(a.achieved_condition) == _bits(b.achieved_condition)
            for code in ("ST", "K"):
                assert _bits(a.rel_std(code)) == _bits(b.rel_std(code))
                assert _bits(a.abs_std(code)) == _bits(b.abs_std(code))


def _crash(x: int) -> int:
    if x == 0:
        os._exit(3)
    return x


class TestCrashRecoveryMidService:
    def test_serving_survives_a_crashed_worker(self):
        pool = get_pool(2)
        restarts_before = pool.restarts
        with pytest.raises(BrokenProcessPool):
            pool.map(_crash, [1, 0, 2], chunksize=1)
        assert pool.restarts > restarts_before
        # the very next serving call heals the pool and stays bitwise-correct
        batches = _uniform_stream(n_items=8)
        comm = SimComm(4)
        reducer = AdaptiveReducer(comm, threshold=1e-13)
        serial = reducer.reduce_many(batches, tree="balanced", workers=1)
        parallel = reducer.reduce_many(batches, tree="balanced", workers=2)
        for a, b in zip(serial, parallel):
            assert _bits(a.value) == _bits(b.value)
            assert a.decision.code == b.decision.code


def _wide_stream(n_items: int = 24, n_ranks: int = 4, width: int = 512):
    rng = np.random.default_rng(4242)
    return [
        [
            rng.uniform(-1.0, 1.0, width) * 10.0 ** rng.integers(-6, 7, size=width)
            for _ in range(n_ranks)
        ]
        for _ in range(n_items)
    ]


class TestArenaServing:
    """The persistent-arena dispatch: reuse, regrow and crash epochs must all
    stay invisible to the numerics."""

    def test_arena_reused_across_serving_calls(self):
        from repro.util.pool import arena_info

        batches = _uniform_stream(n_items=8)
        comm = SimComm(4)
        reducer = AdaptiveReducer(comm, threshold=1e-13)
        reducer.reduce_many(batches, tree="balanced", workers=2)
        before = arena_info()
        assert set(before) == {"input", "result"}
        reducer.reduce_many(batches, tree="balanced", workers=2)
        # warm steady state: same segments, same generation, no regrow
        assert arena_info() == before

    def test_arena_regrow_epoch_stays_bitwise(self):
        from repro.util.pool import arena_info

        comm = SimComm(4)
        reducer = AdaptiveReducer(comm, threshold=1e-13)
        small = _uniform_stream(n_items=8)
        reducer.reduce_many(small, tree="balanced", workers=2)
        gen_before = arena_info()["input"]["generation"]
        big = _wide_stream()  # ~400 KiB of operands: forces an arena regrow
        serial = reducer.reduce_many(big, tree="balanced", workers=1)
        parallel = reducer.reduce_many(big, tree="balanced", workers=2)
        assert arena_info()["input"]["generation"] > gen_before
        for a, b in zip(serial, parallel):
            assert _bits(a.value) == _bits(b.value)
            assert a.decision.code == b.decision.code

    def test_crash_recovery_reattaches_and_stays_bitwise(self):
        comm = SimComm(4)
        reducer = AdaptiveReducer(comm, threshold=1e-13)
        reducer.reduce_many(_uniform_stream(n_items=8), tree="balanced", workers=2)
        pool = get_pool(2)
        with pytest.raises(BrokenProcessPool):
            pool.map(_crash, [1, 0, 2], chunksize=1)
        # replacement workers hold no cached attachments: the next dispatch
        # re-attaches the (possibly regrown) arena from the handle alone
        big = _wide_stream(n_items=16)
        serial = reducer.reduce_many(big, tree="balanced", workers=1)
        parallel = reducer.reduce_many(big, tree="balanced", workers=2)
        for a, b in zip(serial, parallel):
            assert _bits(a.value) == _bits(b.value)
            assert a.decision.code == b.decision.code

    def test_fused_shard_kernel_bitwise_across_thresholds(self):
        # sweeping the tolerance forces different algebras through the fused
        # per-shard C kernel (ST/K/KBN/CP/DD all reachable)
        batches = _uniform_stream(n_items=12, n_ranks=5, width=64)
        comm = SimComm(5)
        for thr in (1e-6, 1e-13, 1e-30):
            reducer = AdaptiveReducer(comm, threshold=thr)
            serial = reducer.reduce_many(batches, tree="balanced", workers=1)
            parallel = reducer.reduce_many(batches, tree="balanced", workers=2)
            for a, b in zip(serial, parallel):
                assert _bits(a.value) == _bits(b.value)
                assert a.decision.code == b.decision.code

    def test_worker_decision_drift_raises(self):
        """The parent re-selects from the arena sketches: a worker that chose
        differently is named, not served."""
        batches = _uniform_stream(n_items=6)
        reducer = AdaptiveReducer(
            SimComm(4), _WorkerDriftPolicy(os.getpid()), threshold=1e-13
        )
        first = reducer.reduce_many(batches, tree="balanced", workers=1)
        assert first[0].decision.code != "PR"
        with pytest.raises(RuntimeError, match="parallel decision drift at item 0"):
            reducer.reduce_many(batches, tree="balanced", workers=2)
