"""One policy query per tick: ``select_many`` lane by lane against ``select``.

A policy answers a whole stream at once; its one-item ``select`` must give
every lane's decision bit for bit — code, predicted std, every candidate
prediction, profile, relative cost, unit roundoff and tier — whatever the
lane's neighbours are.  The lanes below cover the edges of the k̂/dr
estimates and the policy walk: exact-zero sums (k̂ = inf), all-zero and
empty items, a prediction exactly at the threshold, a subnormal smallest
magnitude, fp16/fp32 unit roundoffs and every tree-shape hint.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.fp.properties import unit_roundoff_of
from repro.generators import generate_sum_set, zero_sum_set
from repro.mpi import SimComm
from repro.selection import AdaptiveReducer, AnalyticPolicy, GridCell, GridClassifier
from repro.selection.profile import profile_batch, profile_stream, set_profiles
from repro.util.tickblock import ScatteredRow, TickBlock

RANKS = 4


def _bits(x: float) -> str:
    return float(x).hex()


def _fields(d) -> tuple:
    """Every SelectionDecision field, floats as their exact bits."""
    p = d.profile
    return (
        d.code,
        _bits(d.threshold),
        _bits(d.predicted_std),
        (p.n, _bits(p.condition), p.dynamic_range, _bits(p.max_abs), _bits(p.abs_sum)),
        tuple((code, _bits(v)) for code, v in d.candidate_predictions.items()),
        _bits(d.relative_cost),
        d.tier,
        _bits(d.u),
    )


def _items() -> "list[list[np.ndarray]]":
    """One stream holding every edge lane, in per-rank chunk lists."""
    comm = SimComm(RANKS)
    benign = generate_sum_set(512, 1.0, 8, seed=1).values
    hard = generate_sum_set(512, 1e9, 20, seed=2).values
    subnormal = np.concatenate([benign[:60], [5e-324, -1e-310, 2.5e-320, 1.0]])
    return [
        comm.scatter_array(benign),
        comm.scatter_array(hard),
        comm.scatter_array(zero_sum_set(512, 16, seed=3)),  # k̂ = inf
        comm.scatter_array(np.zeros(512)),  # all-zero
        comm.scatter_array(np.zeros(0)),  # empty
        comm.scatter_array(subnormal),
        [c.astype(np.float32) for c in comm.scatter_array(hard)],  # repro: allow[FP005] -- fp32 input selecting at its own roundoff is under test
        [(c / 1e9).astype(np.float16) for c in comm.scatter_array(benign)],  # repro: allow[FP005] -- fp16 input selecting at its own roundoff is under test
        ScatteredRow(benign[:9].astype(np.float32), RANKS),  # repro: allow[FP005] -- an fp32 wire row selecting at its own roundoff is under test
    ]


def _lanes():
    items = _items()
    profiles = set_profiles(profile_batch(TickBlock.of(items)))
    us = [unit_roundoff_of({getattr(c, "dtype", None) for c in chunks}) for chunks in items]
    return items, profiles, us


def _scalar_std(model, code: str, n: int, k: float, u: float, shape: str) -> float:
    """The per-item variability formulas the array model replaced, kept
    here as the reference its lanes must equal bit for bit."""
    n = max(n, 1)
    if code == "PR":
        return 0.0
    mult = model._shape_multiplier(code, shape)
    if math.isinf(k):
        return math.inf
    if code == "ST":
        return mult * model.c_st * u * math.sqrt(n) * k
    if code == "K":
        return mult * (model.c_k * u * k + model.c_k2 * n * u**2 * k)
    return mult * model.c_cp * n * u**2 * k


def _thresholds(policy, profiles, us) -> "list[float]":
    """The usual tolerances plus one that equals a lane's ST prediction."""
    at = policy.model.predict_std("ST", profiles[0], u=us[0])
    assert 0.0 < at < math.inf
    return [1e-6, 1e-13, 0.0, at]


class TestAnalyticLanes:
    @pytest.mark.parametrize("shape", ["balanced", "serial", "unknown", None])
    def test_batch_equals_one_item_select(self, shape):
        _, profiles, us = _lanes()
        policy = AnalyticPolicy()
        for t in _thresholds(policy, profiles, us):
            batch = policy.select_many(profiles, t, u=us, shape=shape)
            assert len(batch) == len(profiles)
            for d, p, u in zip(batch, profiles, us):
                assert _fields(d) == _fields(policy.select(p, t, shape=shape, u=u))

    def test_lanes_cover_the_edges(self):
        _, profiles, us = _lanes()
        conditions = [p.condition for p in profiles]
        assert math.isinf(conditions[2])
        assert conditions[3] == 1.0 and profiles[3].n == 512  # all-zero
        assert conditions[4] == 1.0 and profiles[4].n == 0  # empty
        assert profiles[5].dynamic_range > 1000  # subnormal min |x|
        assert us[6] == 2.0**-24 and us[7] == 2.0**-11 and us[8] == 2.0**-24

    def test_prediction_at_threshold_is_accepted(self):
        _, profiles, us = _lanes()
        policy = AnalyticPolicy()
        t = _thresholds(policy, profiles, us)[-1]
        decision = policy.select_many(profiles, t, u=us)[0]
        assert decision.code == "ST" and decision.predicted_std == t

    def test_u_defaults_to_the_model_roundoff(self):
        _, profiles, _ = _lanes()
        policy = AnalyticPolicy()
        batch = policy.select_many(profiles, 1e-13)
        assert [d.u for d in batch] == [policy.model.u] * len(profiles)
        explicit = policy.select_many(profiles, 1e-13, u=[policy.model.u] * len(profiles))
        assert [_fields(d) for d in batch] == [_fields(d) for d in explicit]

    def test_zero_sum_falls_through_to_most_robust(self):
        _, profiles, us = _lanes()
        decision = AnalyticPolicy().select_many(profiles, 1e-6, u=us)[2]
        assert decision.code == "PR"
        assert all(
            math.isinf(v) for c, v in decision.candidate_predictions.items() if c != "PR"
        )

    def test_empty_tick_and_invalid_threshold(self):
        policy = AnalyticPolicy()
        assert policy.select_many([], 1e-13) == []
        _, profiles, _ = _lanes()
        for bad in (-1.0, math.nan):
            with pytest.raises(ValueError):
                policy.select_many(profiles, bad)
        with pytest.raises(ValueError, match="unit roundoffs"):
            policy.select_many(profiles, 1e-13, u=[2.0**-53])

    def test_model_lanes_equal_the_scalar_formulas(self):
        _, profiles, us = _lanes()
        model = AnalyticPolicy().model
        n = [p.n for p in profiles]
        k = [p.condition for p in profiles]
        for shape in ("balanced", "serial", "unknown"):
            for code in ("ST", "K", "CP", "PR"):
                got = model.predict_std_array(code, n, k, shape=shape, u=us).tolist()
                want = [_scalar_std(model, code, *lane, shape) for lane in zip(n, k, us)]
                assert list(map(_bits, got)) == list(map(_bits, want)), (code, shape)

    def test_profiles_equal_one_item_sketches(self):
        items, profiles, _ = _lanes()
        for chunks, p in zip(items, profiles):
            q = profile_stream(chunks).as_set_profile()
            assert (p.n, _bits(p.condition), p.dynamic_range, _bits(p.max_abs), _bits(p.abs_sum)) == (
                q.n, _bits(q.condition), q.dynamic_range, _bits(q.max_abs), _bits(q.abs_sum)
            )


def _grid() -> GridClassifier:
    cells = [
        GridCell(
            n=n,
            condition=10.0**lk,
            dynamic_range=dr,
            stds={"ST": 1e-17 * 10.0**lk * math.sqrt(n), "K": 1e-19 * 10.0**lk, "CP": 1e-30 * 10.0**lk * n, "PR": 0.0},
        )
        for n in (100, 10_000)
        for lk in (0, 4, 8, 12, 16)
        for dr in (0, 20, 40)
    ]
    cells.append(GridCell(n=1000, condition=math.inf, dynamic_range=10, stds={"ST": math.inf, "K": math.inf, "CP": 1.0, "PR": 0.0}))
    return GridClassifier(cells)


class TestGridLanes:
    def test_batch_equals_one_item_select(self):
        _, profiles, us = _lanes()
        grid = _grid()
        for t in (1e-6, 1e-13, 0.0):
            batch = grid.select_many(profiles, t, u=us, shape="serial")
            for d, p in zip(batch, profiles):
                assert _fields(d) == _fields(grid.select(p, t))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_reduce_many_decides_by_one_item_select(self, workers):
        items = _items()
        grid = _grid()
        reducer = AdaptiveReducer(SimComm(RANKS), grid, threshold=1e-13)
        results = reducer.reduce_many(items, workers=workers)
        serial = reducer.reduce_many(items, workers=1)
        for chunks, r, s in zip(items, results, serial):
            want = grid.select(profile_stream(chunks).as_set_profile(), 1e-13)
            assert _fields(r.decision) == _fields(want)
            assert _bits(r.value) == _bits(s.value)
