"""The Hallman–Ipsen certification probe, checked against the one route.

:class:`AdaptiveReducer` always profiles and queries its policy.  The bound
probe (:meth:`BoundTier.decide_stream` over :func:`bound_stats_stream`)
resolves an item only when it can prove the profiling policy picks the
same algorithm.  These tests pin that agreement against the reducer's own
codes across data regimes, dtypes, thresholds and worker counts, plus the
fp32/fp16 precision axis (no silent upcast inside the decision) on every
route.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.fp.properties import UNIT_ROUNDOFF, unit_roundoff
from repro.mpi.comm import SimComm
from repro.obs import get_registry
from repro.selection import (
    AdaptiveReducer,
    AnalyticPolicy,
    BoundTier,
    bound_stats_item,
    bound_stats_stream,
    item_unit_roundoff,
)

N_RANKS = 8
CONFIDENCE = 1 - 1e-6


def _chunks(kind: str, seed: int, width: int = 64, dtype=np.float64):
    rng = np.random.default_rng(seed)
    if kind == "easy":
        data = [rng.random(width) for _ in range(N_RANKS)]
    elif kind == "mixed":
        data = [rng.standard_normal(width) for _ in range(N_RANKS)]
    elif kind == "cancel":
        base = [rng.random(width) + 1.0 for _ in range(N_RANKS // 2)]
        data = base + [-b for b in base]
    elif kind == "zero":
        base = [rng.random(width) for _ in range(N_RANKS // 2)]
        data = base + [-b for b in base]
        data = [d.copy() for d in data]
    elif kind == "denormal":
        tiny = float(np.finfo(np.float64).tiny)
        data = [rng.random(width) * 2.0 * tiny for _ in range(N_RANKS)]
    elif kind == "wide":
        data = [
            rng.uniform(-1, 1, width) * 10.0 ** rng.integers(-9, 10, size=width)
            for _ in range(N_RANKS)
        ]
    else:  # pragma: no cover - test bug
        raise ValueError(kind)
    return [np.asarray(d, dtype=dtype) for d in data]


def _stream(kinds, seeds, dtype=np.float64):
    return [_chunks(k, s, dtype=dtype) for k in kinds for s in seeds]


KINDS = ("easy", "mixed", "cancel", "zero", "denormal", "wide")


def _probe(batches, threshold, confidence=CONFIDENCE):
    """The probe's decisions for a stream (``None`` where it cannot prove)."""
    us = [item_unit_roundoff(chunks) for chunks in batches]
    return BoundTier(confidence=confidence).decide_stream(
        bound_stats_stream(batches, us), threshold, AnalyticPolicy()
    )


def _assert_probe_agrees(probe, results):
    """Every item the probe resolves carries the reducer's code."""
    for d, r in zip(probe, results):
        if d is not None:
            assert d.tier == "bound"
            assert d.code == r.decision.code


class TestDecisionAgreement:
    """A probe-resolved item always carries the reducer's algorithm."""

    @pytest.mark.parametrize("threshold", [1e-7, 1e-11, 1e-13, 1e-15, 0.0])
    def test_reduce_many_agreement_sweep(self, threshold):
        batches = _stream(KINDS, range(4))
        reducer = AdaptiveReducer(SimComm(N_RANKS), threshold=threshold)
        _assert_probe_agrees(
            _probe(batches, threshold), reducer.reduce_many(batches, workers=1)
        )

    @pytest.mark.parametrize("kind", KINDS)
    def test_solo_reduce_agreement(self, kind):
        reducer = AdaptiveReducer(SimComm(N_RANKS), threshold=1e-13)
        for seed in range(3):
            chunks = _chunks(kind, seed)
            _assert_probe_agrees(_probe([chunks], 1e-13), [reducer.reduce(chunks)])

    def test_deterministic_confidence_agreement(self):
        """confidence=1.0 (deterministic bounds only) also never disagrees."""
        batches = _stream(KINDS, range(2))
        reducer = AdaptiveReducer(SimComm(N_RANKS), threshold=1e-9)
        _assert_probe_agrees(
            _probe(batches, 1e-9, confidence=1.0),
            reducer.reduce_many(batches, workers=1),
        )

    def test_fast_path_actually_engages(self):
        """Well-conditioned serving data is certified by the probe."""
        batches = _stream(("easy",), range(8))
        probe = _probe(batches, 1e-13)
        assert all(d is not None for d in probe)
        reducer = AdaptiveReducer(SimComm(N_RANKS), threshold=1e-13)
        _assert_probe_agrees(probe, reducer.reduce_many(batches, workers=1))

    def test_inconclusive_items_fall_back(self):
        """Exact-zero sums are beyond cheap-statistics certification."""
        assert all(d is None for d in _probe(_stream(("zero",), range(4)), 1e-13))

    def test_default_is_tier_off(self):
        """The reducer decides every item by profiling, on every route."""
        reducer = AdaptiveReducer(SimComm(N_RANKS))
        batches = _stream(("easy",), range(2))
        for workers in (1, 2):
            results = reducer.reduce_many(batches, workers=workers)
            assert all(r.decision.tier == "profile" for r in results)
        assert reducer.reduce(batches[0]).decision.tier == "profile"

    def test_nondeterministic_route_skips_tier(self):
        reducer = AdaptiveReducer(SimComm(N_RANKS), threshold=1e-7)
        res = reducer.reduce(_chunks("easy", 0), nondeterministic=True)
        assert res.decision.tier == "profile"

    def test_confidence_validation(self):
        for bad in (0.0, -0.5, 1.5, 2.0):
            with pytest.raises(ValueError):
                BoundTier(confidence=bad)


class TestPrecisionAxis:
    """fp32/fp16 round-trip with precision-aware selection decisions."""

    def test_item_unit_roundoff(self):
        a64 = [np.zeros(4), np.ones(4)]
        a32 = [np.zeros(4, np.float32), np.ones(4, np.float32)]
        a16 = [np.zeros(4, np.float16), np.ones(4, np.float16)]
        assert item_unit_roundoff(a64) == 2.0**-53
        assert item_unit_roundoff(a32) == 2.0**-24
        assert item_unit_roundoff(a16) == 2.0**-11
        # promotion: a mixed fp16/fp64 item decides at binary64
        assert item_unit_roundoff([a16[0], a64[0]]) == 2.0**-53
        # plain python lists have no dtype: binary64
        assert item_unit_roundoff([[1.0, 2.0]]) == 2.0**-53

    @pytest.mark.parametrize("dtype", [np.float32, np.float16])
    def test_low_precision_round_trip(self, dtype):
        u = unit_roundoff(dtype)
        batches = _stream(("easy", "mixed"), range(3), dtype=dtype)
        reducer = AdaptiveReducer(SimComm(N_RANKS), threshold=1e-13)
        many = reducer.reduce_many(batches, workers=1)
        for chunks, a in zip(batches, many):
            b = reducer.reduce(chunks)
            # the decision was made at the input's own roundoff, both paths
            assert a.decision.u == u
            assert b.decision.u == u
            assert a.decision.code == b.decision.code
            assert np.float64(a.value).tobytes() == np.float64(b.value).tobytes()
        _assert_probe_agrees(_probe(batches, 1e-13), many)
        # at serving thresholds low-precision variability forces the exact
        # algorithm — the decision visibly differs from the binary64 one
        r64 = reducer.reduce_many(_stream(("easy",), range(1)), workers=1)
        assert r64[0].decision.code == "ST"
        assert many[0].decision.code == "PR"

    def test_solo_reduce_low_precision(self):
        reducer = AdaptiveReducer(SimComm(N_RANKS), threshold=1e-13)
        res = reducer.reduce(_chunks("easy", 0, dtype=np.float16))  # repro: allow[FP005] -- exercises the fp16 precision axis
        assert res.decision.u == 2.0**-11
        assert math.isfinite(res.value)

    def test_fp16_never_aliases_binary64_decision(self):
        """An fp16 stream with the same (n, k, dr, threshold) profile as a
        binary64 stream decides at its own roundoff, on the same reducer."""
        reducer = AdaptiveReducer(SimComm(2), threshold=1e-13)
        rng = np.random.default_rng(5)
        base = rng.random(32)
        b64 = [[base.copy(), base.copy()]]
        b16 = [[base.astype(np.float16), base.astype(np.float16)]]  # repro: allow[FP005] -- the aliasing regression needs a genuine fp16 stream
        r64 = reducer.reduce_many(b64, workers=1)
        r16 = reducer.reduce_many(b16, workers=1)
        assert r64[0].decision.u == 2.0**-53
        assert r16[0].decision.u == 2.0**-11
        assert r64[0].decision.code != r16[0].decision.code


class TestStatisticsPass:
    def test_stream_matches_item_loop_bitwise(self):
        batches = _stream(KINDS, range(3))
        us = [item_unit_roundoff(c) for c in batches]
        stream = bound_stats_stream(batches, us)
        for st, chunks, u in zip(stream, batches, us):
            item = bound_stats_item(chunks, u)
            assert st == item  # dataclass equality is field-exact

    def test_ragged_stream_falls_back_to_item_loop(self):
        rng = np.random.default_rng(3)
        batches = [
            [rng.random(int(rng.integers(4, 40))) for _ in range(3)]
            for _ in range(6)
        ]
        us = [UNIT_ROUNDOFF] * len(batches)
        stream = bound_stats_stream(batches, us)
        for st, chunks in zip(stream, batches):
            assert st == bound_stats_item(chunks, UNIT_ROUNDOFF)

    def test_empty_and_zero_items(self):
        zero = bound_stats_item([np.zeros(8), np.zeros(8)], UNIT_ROUNDOFF)
        assert zero.abs_sum == 0.0 and zero.n == 16
        assert zero.dynamic_range_estimate() == 0
        empty = bound_stats_item([], UNIT_ROUNDOFF)
        assert empty.n == 0

    def test_subset_lanes_match_full_stream(self):
        """decide_stream lanes are independent: a subset call returns the
        same decisions the full-stream call produced for those items."""
        batches = _stream(KINDS, range(2))
        us = [item_unit_roundoff(c) for c in batches]
        stats = bound_stats_stream(batches, us)
        tier = BoundTier(confidence=CONFIDENCE)
        policy = AnalyticPolicy()
        full = tier.decide_stream(stats, 1e-13, policy)
        subset_idx = [0, 3, 5, len(stats) - 1]
        subset = tier.decide_stream([stats[i] for i in subset_idx], 1e-13, policy)
        for j, i in enumerate(subset_idx):
            if full[i] is None:
                assert subset[j] is None
            else:
                assert subset[j] is not None
                assert subset[j].code == full[i].code
                assert subset[j].predicted_std == full[i].predicted_std


class TestParallelPath:
    @pytest.mark.parametrize("workers", [2, 4])
    def test_parallel_bitwise_identity(self, workers):
        batches = _stream(KINDS, range(3))
        reducer = AdaptiveReducer(SimComm(N_RANKS), threshold=1e-13)
        serial = reducer.reduce_many(batches, workers=1)
        parallel = reducer.reduce_many(batches, workers=workers)
        assert len(serial) == len(parallel)
        for a, b in zip(serial, parallel):
            assert np.float64(a.value).tobytes() == np.float64(b.value).tobytes()
            assert a.decision.code == b.decision.code
            assert a.decision.tier == b.decision.tier
            assert a.decision.u == b.decision.u
        _assert_probe_agrees(_probe(batches, 1e-13), parallel)

    def test_parallel_low_precision_round_trip(self):
        batches = _stream(("easy", "mixed"), range(4), dtype=np.float32)  # repro: allow[FP005] -- exercises the parallel fp32 precision axis
        reducer = AdaptiveReducer(SimComm(N_RANKS), threshold=1e-13)
        serial = reducer.reduce_many(batches, workers=1)
        parallel = reducer.reduce_many(batches, workers=2)
        for a, b in zip(serial, parallel):
            assert b.decision.u == 2.0**-24
            assert a.decision.code == b.decision.code
            assert np.float64(a.value).tobytes() == np.float64(b.value).tobytes()


class TestObservability:
    def setup_method(self):
        reg = get_registry()
        reg.reset()
        reg.enable()

    def teardown_method(self):
        reg = get_registry()
        reg.reset()
        reg.disable()

    @staticmethod
    def _counter_total(snapshot, name):
        return sum(
            s["value"] for s in snapshot.get("counters", {}).get(name, [])
        )

    def test_solo_reduce_counters(self):
        reducer = AdaptiveReducer(SimComm(N_RANKS), threshold=1e-13)
        reducer.reduce(_chunks("easy", 0))
        snap = get_registry().snapshot()
        assert self._counter_total(snap, "repro_selector_selections_total") == 1
        assert self._counter_total(snap, "repro_select_bound_fast_path_total") == 0

    def test_tier_off_emits_no_bound_metrics(self):
        """No route of the reducer emits the retired tier metrics."""
        reducer = AdaptiveReducer(SimComm(N_RANKS), threshold=1e-13)
        batches = _stream(("easy",), range(2))
        reducer.reduce_many(batches, workers=1)
        reducer.reduce_many(batches, workers=2)
        reducer.reduce(batches[0])
        snap = get_registry().snapshot()
        for name in (
            "repro_select_bound_fast_path_total",
            "repro_select_profile_fallback_total",
        ):
            assert self._counter_total(snap, name) == 0
        assert "repro_selector_bound_seconds" not in snap.get("histograms", {})
