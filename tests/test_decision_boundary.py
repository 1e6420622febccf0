"""The decision boundary: cut points in k̂ against a reference walk.

``AnalyticPolicy.select_many`` decides each item with one comparison, its
k̂ against every candidate's cut point (``VariabilityModel.cut_points``).
The reference kept here is the walk the cut points replaced: the first
candidate whose ``predict_std_array`` is ``<= t``, else the most robust,
with every candidate's prediction evaluated.  Every decision field must
equal it bit for bit — on the edge stream of ``test_select_many``, on a
seeded random corpus with lanes exactly at and just past a cut point, and
with the cut-point cache cold and warm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import pytest

from repro.experiments.fig12_selection import PAPER_THRESHOLDS
from repro.metrics.properties import SetProfile
from repro.selection import AnalyticPolicy, BoundTier, VariabilityModel
from repro.selection.bound_tier import BoundStats
from tests.test_select_many import _fields, _lanes

THRESHOLDS = (0.0, 5e-324, 1e-13, *PAPER_THRESHOLDS, 1e300, math.inf)
SHAPES = ("balanced", "serial", "unknown")
UNIT_ROUNDOFFS = (2.0**-53, 2.0**-24, 2.0**-11)


def _reference(policy, profile, t, u, shape) -> tuple:
    """The prediction walk's decision, as ``_fields`` of a decision."""
    row = [
        float(policy.model.predict_std_array(c, [profile.n], [profile.condition], shape=shape, u=[u])[0])
        for c in policy.candidates
    ]
    ci = next((i for i, p in enumerate(row) if p <= t), len(row) - 1)
    code = policy.candidates[ci]
    p = profile
    return (
        code,
        t.hex(),
        row[ci].hex(),
        (p.n, p.condition.hex(), p.dynamic_range, p.max_abs.hex(), p.abs_sum.hex()),
        tuple((c, v.hex()) for c, v in zip(policy.candidates, row)),
        policy.cost_model.relative[code].hex(),
        "profile",
        u.hex(),
    )


def _corpus(policy, seed: int = 11, size: int = 120) -> "list[tuple[SetProfile, float, str, float]]":
    """Seeded ``(profile, u, shape, t)`` lanes: random k̂ plus, for each
    random group, lanes at every finite cut point and one ulp past it,
    and the NaN and inf k̂ lanes."""
    rng = np.random.default_rng(seed)
    lanes = []
    for _ in range(size):
        n = int(rng.integers(0, 1 << 22))
        u = UNIT_ROUNDOFFS[int(rng.integers(len(UNIT_ROUNDOFFS)))]
        shape = SHAPES[int(rng.integers(len(SHAPES)))]
        t = THRESHOLDS[int(rng.integers(len(THRESHOLDS)))]
        ks = [10.0 ** rng.uniform(0, 20), math.nan, math.inf, 1.0]
        for cut in policy.model.cut_points(policy.candidates, n, u, shape, t):
            if math.isfinite(cut):
                ks += [cut, math.nextafter(cut, math.inf)]
        lanes += [(SetProfile(n, k, 3, 1.0, 2.0), u, shape, t) for k in ks]
    return lanes


def _assert_lanes_match(policy, lanes) -> None:
    for shape in SHAPES:
        for t in THRESHOLDS:
            group = [(p, u) for p, u, s, tt in lanes if s == shape and tt == t]
            if not group:
                continue
            profiles = [p for p, _ in group]
            us = [u for _, u in group]
            got = policy.select_many(profiles, t, u=us, shape=shape)
            for d, p, u in zip(got, profiles, us):
                assert _fields(d) == _reference(policy, p, t, u, shape), (p, u, shape, t)


class TestCutPoints:
    def test_cut_point_is_the_last_qualifying_double(self):
        model = VariabilityModel()
        for p, u, shape, t in _corpus(AnalyticPolicy(), size=40):
            for code, cut in zip(("ST", "K", "CP", "PR"), model.cut_points(("ST", "K", "CP", "PR"), p.n, u, shape, t)):
                if math.isinf(cut):
                    assert model.predict_std_array(code, p.n, math.inf, shape=shape, u=u) <= t
                    continue
                at, past = model.predict_std_array(
                    code, p.n, [cut, math.nextafter(cut, math.inf)], shape=shape, u=u
                )
                assert at <= t and not past <= t, (code, p.n, u, shape, t, cut)

    def test_comparing_k_with_the_cut_point_is_the_prediction_test(self):
        """Both bound-tier verdicts: ``k <= k*`` iff the prediction meets
        ``t``, and ``k > k*`` iff it misses."""
        model = VariabilityModel()
        rng = np.random.default_rng(5)
        for p, u, shape, t in _corpus(AnalyticPolicy(), seed=5, size=40):
            ks = np.concatenate([[p.condition], 10.0 ** rng.uniform(-5, 30, 8)])
            for code, cut in zip(("ST", "K", "CP", "PR"), model.cut_points(("ST", "K", "CP", "PR"), p.n, u, shape, t)):
                pred = model.predict_std_array(code, p.n, ks, shape=shape, u=u)
                finite = ~np.isnan(ks)
                assert np.array_equal((ks <= cut)[finite], (pred <= t)[finite])
                assert np.array_equal((ks > cut)[finite], (pred > t)[finite])

    def test_zero_threshold_search_is_bounded(self):
        """At ``t = 0`` the predictions stay 0 across ~1e15 subnormal k;
        the search still ends after a handful of model calls."""
        calls = []

        @dataclass(frozen=True)
        class Counting(VariabilityModel):
            def predict_std_array(self, code, n, k, **kwargs):
                calls.append(code)
                return super().predict_std_array(code, n, k, **kwargs)

        model = Counting()
        for t in (0.0, 5e-324):
            for code in ("ST", "K", "CP"):
                calls.clear()
                (cut,) = model.cut_points((code,), 4096, 2.0**-53, "balanced", t)
                assert 0.0 < cut < 1.0 and len(calls) <= 14, (code, t, cut, len(calls))

    def test_the_cache_has_a_fixed_size(self):
        info = VariabilityModel.cut_points.cache_info()
        assert info.maxsize == 1024


class TestReferenceWalk:
    @pytest.mark.parametrize("warm", [False, True])
    def test_edge_stream(self, warm):
        _, profiles, us = _lanes()
        policy = AnalyticPolicy()
        VariabilityModel.cut_points.cache_clear()
        if warm:
            for shape in SHAPES:
                for t in THRESHOLDS:
                    policy.select_many(profiles, t, u=us, shape=shape)
        _assert_lanes_match(
            policy, [(p, u, s, t) for p, u in zip(profiles, us) for s in SHAPES for t in THRESHOLDS]
        )

    @pytest.mark.parametrize("warm", [False, True])
    def test_random_corpus(self, warm):
        policy = AnalyticPolicy()
        lanes = _corpus(policy)
        if not warm:
            VariabilityModel.cut_points.cache_clear()
        _assert_lanes_match(policy, lanes)

    def test_candidate_predictions_are_read_lazily(self):
        calls = []

        @dataclass(frozen=True)
        class Counting(VariabilityModel):
            def predict_std(self, code, profile, **kwargs):
                calls.append(code)
                return super().predict_std(code, profile, **kwargs)

        policy = AnalyticPolicy(model=Counting())
        (d,) = policy.select_many([SetProfile(100, 1e3, 3, 1.0, 2.0)], 1e-13)
        assert calls == []
        assert list(d.candidate_predictions) == ["ST", "K", "CP", "PR"]
        assert d.candidate_predictions["K"] >= 0.0 and calls == ["K"]
        with pytest.raises(KeyError):
            d.candidate_predictions["EX"]
        assert dict(d.candidate_predictions) == {
            c: policy.model.predict_std(c, d.profile) for c in policy.candidates
        }


def test_bound_tier_decides_by_the_cut_points():
    """A certified or resolved probe decision is the policy's own code."""
    policy = AnalyticPolicy()
    stats = [
        BoundStats(n, 1.0, 1.0, s, 1.0, 2.0**-53)
        for n in (16, 4096, 1 << 20)
        for s in (1.0, 1e4, 1e9, 1e16, 1e40)
    ]
    for t in THRESHOLDS:
        for s, d in zip(stats, BoundTier().decide_stream(stats, t, policy)):
            if d is not None:
                assert d.code == policy.select(d.profile, t).code
