"""Runtime selection: profiling sketch, policies, classifier, end-to-end."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.generators import generate_sum_set, zero_sum_set
from repro.metrics import profile_set
from repro.mpi import MachineTopology, SimComm
from repro.obs import get_registry
from repro.selection import (
    AdaptiveReducer,
    AnalyticPolicy,
    BoundTier,
    CostModel,
    GridCell,
    GridClassifier,
    HierarchicalReducer,
    StreamProfile,
    VariabilityModel,
    bound_stats_stream,
    item_unit_roundoff,
    profile_chunk,
    profile_stream,
)


class TestStreamProfile:
    @pytest.mark.parametrize("k", [1.0, 1e3, 1e9, 1e15, math.inf])
    def test_condition_estimate_tracks_exact(self, k):
        data = generate_sum_set(5000, k, 16, seed=1).values
        sketch = profile_chunk(data)
        exact = profile_set(data)
        if math.isinf(k):
            assert math.isinf(sketch.condition_estimate())
        else:
            assert sketch.condition_estimate() == pytest.approx(
                exact.condition, rel=1e-6
            )

    def test_dr_exact(self):
        data = generate_sum_set(1000, 1e3, 24, seed=2).values
        assert profile_chunk(data).dynamic_range_estimate() == 24

    def test_merge_equals_whole(self):
        data = generate_sum_set(3000, 1e6, 8, seed=3).values
        whole = profile_chunk(data)
        merged = profile_stream([data[:1000], data[1000:1700], data[1700:]])
        assert merged.n == whole.n
        assert merged.max_abs == whole.max_abs
        assert merged.min_abs_nonzero == whole.min_abs_nonzero
        assert merged.condition_estimate() == pytest.approx(
            whole.condition_estimate(), rel=1e-9
        )

    def test_empty_profile(self):
        p = StreamProfile()
        assert p.condition_estimate() == 1.0
        assert p.dynamic_range_estimate() == 0
        p.update(np.array([]))
        assert p.n == 0

    def test_zeros_only(self):
        p = profile_chunk(np.zeros(5))
        assert p.condition_estimate() == 1.0
        assert p.dynamic_range_estimate() == 0

    def test_as_set_profile_carries_abs_sum(self):
        p = profile_chunk(np.array([1.0, -2.0])).as_set_profile()
        assert p.abs_sum == 3.0 and p.has_abs_sum


class TestCostModel:
    def test_default_ranking_matches_paper(self):
        cm = CostModel()
        assert cm.rank(["PR", "ST", "CP", "K"]) == ["ST", "K", "CP", "PR"]

    def test_cost_scales_with_n(self):
        cm = CostModel()
        assert cm.cost("K", 2000) == 2 * cm.cost("K", 1000)
        with pytest.raises(KeyError):
            cm.cost("XX", 10)

    def test_selection_cost_includes_profiling(self):
        cm = CostModel()
        assert cm.selection_cost("ST", 100) > cm.cost("ST", 100)
        assert cm.selection_cost("ST", 100, profiled=False) == cm.cost("ST", 100)

    def test_calibrate_keeps_ordering(self):
        cm = CostModel().calibrate(["ST", "K", "CP", "PR"], n=1 << 14, repeats=2)
        assert cm.relative["ST"] == 1.0
        assert cm.relative["K"] > 1.0


class TestAnalyticPolicy:
    def test_threshold_monotonic_escalation(self):
        policy = AnalyticPolicy()
        data = generate_sum_set(4096, 1e9, 16, seed=4).values
        profile = profile_chunk(data).as_set_profile()
        rank = {c: i for i, c in enumerate(["ST", "K", "CP", "PR"])}
        prev = -1
        for t in (1e-3, 1e-7, 1e-10, 1e-13, 1e-16, 0.0):
            decision = policy.select(profile, t)
            assert rank[decision.code] >= prev
            prev = rank[decision.code]

    def test_zero_sum_forces_most_robust(self):
        policy = AnalyticPolicy()
        data = zero_sum_set(1024, 16, seed=5)
        profile = profile_chunk(data).as_set_profile()
        assert policy.select(profile, 1e-10).code == "PR"

    def test_easy_data_keeps_st(self):
        policy = AnalyticPolicy()
        profile = profile_chunk(np.abs(np.random.default_rng(6).uniform(1, 2, 1000)))
        assert policy.select(profile.as_set_profile(), 1e-10).code == "ST"

    def test_decision_records_predictions(self):
        policy = AnalyticPolicy()
        p = profile_chunk(np.array([1.0, 2.0])).as_set_profile()
        d = policy.select(p, 1e-10)
        assert set(d.candidate_predictions) == {"ST", "K", "CP", "PR"}
        assert d.threshold == pytest.approx(1e-10)

    def test_invalid_threshold(self):
        policy = AnalyticPolicy()
        p = profile_chunk(np.array([1.0])).as_set_profile()
        with pytest.raises(ValueError):
            policy.select(p, -1.0)

    def test_model_prediction_shapes(self):
        m = VariabilityModel()
        easy = profile_set(np.abs(np.random.default_rng(7).uniform(1, 2, 1000)))
        hard = generate_sum_set(1000, 1e12, 8, seed=8).values
        hard_p = profile_set(hard)
        assert m.predict_std("ST", hard_p) > m.predict_std("ST", easy)
        assert m.predict_std("ST", hard_p) > m.predict_std("K", hard_p)
        assert m.predict_std("K", hard_p) > m.predict_std("CP", hard_p)
        assert m.predict_std("PR", hard_p) == 0.0
        with pytest.raises(KeyError):
            m.predict_std("XX", easy)

    def test_model_order_of_magnitude_vs_measurement(self):
        """The analytic model must land within 2 decades of measured ST
        variability (decision granularity)."""
        from repro.metrics.errors import error_stats
        from repro.summation import get_algorithm
        from repro.trees import evaluate_ensemble

        m = VariabilityModel()
        for k in (1e3, 1e9):
            data = generate_sum_set(2048, k, 16, seed=9).values
            vals = evaluate_ensemble(data, "balanced", get_algorithm("ST"), 100, seed=10)
            measured = error_stats(vals, data).rel_std
            predicted = m.predict_std("ST", profile_set(data))
            assert predicted / measured < 100
            assert measured / predicted < 100


class TestGridClassifier:
    @pytest.fixture
    def classifier(self):
        cells = [
            GridCell(4096, 1.0, 0, {"ST": 1e-16, "K": 5e-17, "CP": 0.0, "PR": 0.0}),
            GridCell(4096, 1e6, 0, {"ST": 1e-11, "K": 8e-12, "CP": 0.0, "PR": 0.0}),
            GridCell(4096, 1e12, 0, {"ST": 1e-5, "K": 8e-6, "CP": 1e-13, "PR": 0.0}),
        ]
        return GridClassifier(cells)

    def test_nearest_cell_lookup(self, classifier):
        p = profile_set(generate_sum_set(4096, 1e6, 0, seed=11).values)
        cell = classifier.nearest_cell(p)
        assert cell.condition == 1e6

    def test_cheapest_for_thresholds(self, classifier):
        cell = classifier.cells[2]
        assert classifier.cheapest_for(cell, 1e-3) == "ST"
        assert classifier.cheapest_for(cell, 1e-5) == "ST"
        assert classifier.cheapest_for(cell, 9e-6) == "K"
        assert classifier.cheapest_for(cell, 1e-12) == "CP"
        assert classifier.cheapest_for(cell, 1e-14) == "PR"

    def test_select_returns_decision(self, classifier):
        p = profile_set(generate_sum_set(4096, 1e12, 0, seed=12).values)
        d = classifier.select(p, 1e-12)
        assert d.code == "CP"
        assert d.predicted_std == pytest.approx(1e-13)

    def test_json_roundtrip(self, classifier):
        text = classifier.to_json()
        loaded = GridClassifier.from_json(text)
        assert len(loaded.cells) == 3
        assert loaded.cells[1].stds == classifier.cells[1].stds

    def test_json_handles_inf(self):
        cells = [GridCell(64, math.inf, 0, {"ST": 1.0, "PR": 0.0})]
        loaded = GridClassifier.from_json(GridClassifier(cells).to_json())
        assert math.isinf(loaded.cells[0].condition)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            GridClassifier([])

    def test_inconsistent_codes_rejected(self):
        cells = [
            GridCell(64, 1.0, 0, {"ST": 1.0}),
            GridCell(64, 2.0, 0, {"K": 1.0}),
        ]
        with pytest.raises(ValueError):
            GridClassifier(cells)


class TestAdaptiveReducer:
    @pytest.fixture
    def comm(self):
        return SimComm(topology=MachineTopology(nodes=2, sockets_per_node=2, cores_per_socket=4), seed=13)

    def test_end_to_end_decisions(self, comm):
        red = AdaptiveReducer(comm)
        easy = np.abs(np.random.default_rng(14).uniform(1, 2, 8000))
        res = red.reduce(comm.scatter_array(easy), threshold=1e-10)
        assert res.decision.code == "ST"
        assert res.value == pytest.approx(float(np.sum(easy)), rel=1e-12)

        hard = zero_sum_set(8000, 32, seed=15)
        res = red.reduce(comm.scatter_array(hard), threshold=1e-13)
        assert res.decision.code == "PR"
        assert res.value == 0.0

    def test_profile_reused_as_pr_prepass(self, comm):
        red = AdaptiveReducer(comm, threshold=0.0)
        data = zero_sum_set(4000, 16, seed=16)
        res = red.reduce(comm.scatter_array(data))
        assert res.reduce_result.algorithm_code == "PR"
        assert res.value == 0.0

    def test_nondeterministic_route(self, comm):
        red = AdaptiveReducer(comm)
        data = zero_sum_set(4000, 16, seed=17)
        res = red.reduce(comm.scatter_array(data), threshold=0.0, nondeterministic=True)
        assert res.value == 0.0

    def test_custom_policy_plugs_in(self, comm):
        classifier = GridClassifier(
            [GridCell(8000, 1.0, 0, {"ST": 0.0, "K": 0.0, "CP": 0.0, "PR": 0.0})]
        )
        red = AdaptiveReducer(comm, policy=classifier)
        data = np.abs(np.random.default_rng(18).uniform(1, 2, 8000))
        res = red.reduce(comm.scatter_array(data), threshold=1e-15)
        assert res.decision.code == "ST"

    def test_timers_populated(self, comm):
        red = AdaptiveReducer(comm)
        data = np.ones(800)
        res = red.reduce(comm.scatter_array(data))
        assert res.profile_seconds >= 0.0
        assert res.reduce_seconds >= 0.0

    def test_invalid_threshold(self, comm):
        with pytest.raises(ValueError):
            AdaptiveReducer(comm, threshold=-1.0)

    def test_invalid_per_call_threshold(self, comm):
        """Regression: ``reduce`` silently accepted a negative per-call
        threshold while ``reduce_many`` rejected it."""
        red = AdaptiveReducer(comm)
        with pytest.raises(ValueError):
            red.reduce(comm.scatter_array(np.ones(64)), threshold=-1e-13)

    @pytest.mark.parametrize(
        "entry",
        [
            lambda comm, chunks: AdaptiveReducer(comm, threshold=math.nan),
            lambda comm, chunks: AdaptiveReducer(comm).reduce(chunks, threshold=math.nan),
            lambda comm, chunks: AdaptiveReducer(comm).reduce(
                chunks, threshold=math.nan, nondeterministic=True
            ),
            lambda comm, chunks: AdaptiveReducer(comm).reduce_many(
                [chunks], threshold=math.nan
            ),
            lambda comm, chunks: AnalyticPolicy().select(
                profile_stream(chunks).as_set_profile(), math.nan
            ),
            lambda comm, chunks: HierarchicalReducer(threshold=math.nan),
        ],
        ids=[
            "constructor", "reduce", "reduce_nondeterministic", "reduce_many",
            "policy_select", "hierarchical",
        ],
    )
    def test_nan_threshold_rejected(self, comm, entry):
        """Regression: a NaN threshold passed every ``threshold < 0`` check
        and silently selected PR."""
        with pytest.raises(ValueError, match="threshold"):
            entry(comm, comm.scatter_array(np.ones(64)))


class _ProbeChecked:
    """An :class:`AdaptiveReducer` whose every call is also run through the
    bound probe at ``confidence`` (``None``: the reducer alone).  Each item
    the probe resolves must carry the reducer's code, and the probe must
    stay as warning-free as the reducer on degenerate items."""

    def __init__(self, reducer: AdaptiveReducer, confidence: "float | None"):
        self.reducer = reducer
        self.tier = None if confidence is None else BoundTier(confidence)

    def _check(self, batches, results, threshold) -> None:
        if self.tier is None:
            return
        t = self.reducer.threshold if threshold is None else threshold
        us = [item_unit_roundoff(chunks) for chunks in batches]
        probe = self.tier.decide_stream(
            bound_stats_stream(batches, us), t, self.reducer.policy
        )
        for d, r in zip(probe, results):
            if d is not None:
                assert d.code == r.decision.code

    def reduce_many(self, batches, **kwargs):
        results = self.reducer.reduce_many(batches, **kwargs)
        self._check(batches, results, kwargs.get("threshold"))
        return results

    def reduce(self, chunks, **kwargs):
        result = self.reducer.reduce(chunks, **kwargs)
        self._check([chunks], [result], kwargs.get("threshold"))
        return result


class TestDegenerateBatches:
    """Serving-path regression sweep: the daemon's micro-batcher can
    legitimately hand the selector an empty batch (every queued request
    expired), a single item, or items whose chunks are all empty — none
    of those may crash, warn, or disagree with the per-item path."""

    @pytest.fixture
    def comm(self):
        return SimComm(8)

    @pytest.fixture(params=[None, 1.0, 0.999999], ids=["no-tier", "det", "prob"])
    def reducer(self, comm, request):
        return _ProbeChecked(AdaptiveReducer(comm), request.param)

    def test_reduce_many_empty_batch(self, reducer):
        assert reducer.reduce_many([]) == []

    def test_reduce_many_empty_batch_with_workers(self, reducer):
        assert reducer.reduce_many([], workers=2) == []

    def test_reduce_many_empty_batch_validates_threshold(self, reducer):
        with pytest.raises(ValueError):
            reducer.reduce_many([], threshold=-1.0)

    def test_single_item_batch_equals_standalone(self, comm, reducer):
        data = zero_sum_set(512, 16, seed=3)
        chunks = comm.scatter_array(data)
        (batched,) = reducer.reduce_many([chunks])
        standalone = reducer.reduce(chunks)
        assert batched.value == standalone.value
        assert np.float64(batched.value).tobytes() == np.float64(
            standalone.value
        ).tobytes()
        assert batched.decision.code == standalone.decision.code

    def test_all_empty_chunk_items_warn_free(self, comm, reducer):
        """n=0 items carry inf condition numbers through the bound probe's
        vectorised statistics — masked lanes must stay silent."""
        empty = [np.empty(0) for _ in range(comm.n_ranks)]
        data = np.arange(64, dtype=np.float64)
        mixed = [empty, comm.scatter_array(data), empty]
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            results = reducer.reduce_many(mixed)
        assert results[0].value == 0.0
        assert results[2].value == 0.0
        assert results[1].value == float(np.sum(data))

    def test_all_empty_chunk_single_reduce(self, comm, reducer):
        import warnings

        empty = [np.empty(0) for _ in range(comm.n_ranks)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = reducer.reduce(empty)
        assert res.value == 0.0

    def test_profile_batch_zero_items(self):
        from repro.selection.profile import profile_batch

        assert profile_batch([]) == []


class TestDecisionCacheThreadSafety:
    """The serving daemon drives one reducer from executor threads.  That
    traffic must leave every served value bitwise-equal to a serial run,
    and the selection tally exact (``selections == queries``).  First
    guarded against the since-removed decision cache's shared LRU."""

    def test_tallies_exact_under_threads(self):
        import threading

        comm = SimComm(4)
        red = AdaptiveReducer(comm)
        rng = np.random.default_rng(0)
        streams = [
            comm.scatter_array(rng.normal(size=256)) for _ in range(8)
        ]
        expected = [red.reduce_many([s])[0] for s in streams]
        n_threads, per_thread = 4, 25
        barrier = threading.Barrier(n_threads)
        errors: list = []
        got: list = []

        def worker(tid: int) -> None:
            try:
                barrier.wait()
                for i in range(per_thread):
                    j = (tid + i) % len(streams)
                    got.append((j, red.reduce_many([streams[j]])[0]))
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        reg = get_registry()
        reg.reset()
        reg.enable()
        try:
            threads = [
                threading.Thread(target=worker, args=(t,))
                for t in range(n_threads)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(60)
            selections = sum(
                s["value"]
                for s in reg.snapshot()["counters"]["repro_selector_selections_total"]
            )
        finally:
            reg.disable()
            reg.reset()
        assert not errors, errors
        assert len(got) == selections == n_threads * per_thread
        for j, res in got:
            assert res.decision.code == expected[j].decision.code
            assert (
                np.float64(res.value).tobytes()
                == np.float64(expected[j].value).tobytes()
            )


class TestDecisionCacheOrderIndependence:
    """Regression (found by the repro-serve bench): two items can share a
    condition-number decade (same n, k-decade, dr, threshold) yet straddle
    a selection boundary at their exact condition estimates.  A
    decade-keyed decision cache once served one item the other's memoised
    decision, so the served *bits* depended on request arrival order.
    Every decision is the item's own exact-profile policy query, equal to
    what a cold standalone ``reduce`` computes, in any order."""

    N_RANKS = 48
    CHUNK_LEN = 256

    def _conflicting_pair(self):
        """Items 1 and 23 of the bench workload share a k-decade but
        select ST vs K at threshold 1e-13."""
        rng = np.random.default_rng(4242)
        n = self.N_RANKS * self.CHUNK_LEN
        vals = []
        for _ in range(24):
            vals.append(
                rng.uniform(-1.0, 1.0, n)
                * 10.0 ** rng.integers(-6, 7, size=n)
            )
        return vals[1], vals[23]

    def test_same_bucket_items_keep_their_own_decisions(self):
        a, b = self._conflicting_pair()
        comm = SimComm(self.N_RANKS)

        def fresh(v):
            return AdaptiveReducer(comm, threshold=1e-13).reduce(
                comm.scatter_array(v)
            )

        exp_a, exp_b = fresh(a), fresh(b)
        # the pair is only a regression guard while it actually straddles a
        # boundary inside one decade
        ra = AdaptiveReducer(comm, threshold=1e-13)
        k_a = ra.profile(comm.scatter_array(a)).condition_estimate()
        k_b = ra.profile(comm.scatter_array(b)).condition_estimate()
        assert math.floor(math.log10(k_a)) == math.floor(math.log10(k_b))
        assert exp_a.decision.code != exp_b.decision.code

        for order in ((a, b), (b, a)):
            # the serving path: a shared reducer's reduce_many, one item per
            # tick, in arrival order
            shared = AdaptiveReducer(comm, threshold=1e-13)
            got = {
                id(v): shared.reduce_many(
                    [comm.scatter_array(v)], workers=1
                )[0]
                for v in order
            }
            for v, exp in ((a, exp_a), (b, exp_b)):
                assert got[id(v)].decision.code == exp.decision.code
                assert (
                    np.float64(got[id(v)].value).tobytes()
                    == np.float64(exp.value).tobytes()
                ), "served bits depended on arrival order"
