"""Failure-injection: non-finite operands across the stack.

Documents (and pins) each layer's contract when NaN/inf reach it:

* the exact layers (superaccumulator, PR, AS) *reject* non-finite input
  loudly — silently absorbing a NaN would forfeit their guarantees;
* the plain floating-point algorithms (ST, K, CP) *propagate* per IEEE
  semantics, like the hardware loop they model;
* metrics and generators reject, since k/dr are undefined.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.exact import ExactSum
from repro.metrics import condition_number, dynamic_range
from repro.mpi import SimComm
from repro.summation import SumContext, get_algorithm

NASTY = [math.nan, math.inf, -math.inf]


class TestExactLayersReject:
    @pytest.mark.parametrize("bad", NASTY)
    def test_superaccumulator(self, bad):
        acc = ExactSum()
        with pytest.raises(ValueError):
            acc.add(bad)
        with pytest.raises(ValueError):
            acc.add_array(np.array([1.0, bad]))

    @pytest.mark.parametrize("bad", NASTY)
    def test_prerounded(self, bad):
        alg = get_algorithm("PR")
        acc = alg.make_accumulator(SumContext(max_abs=1.0))
        with pytest.raises(ValueError):
            acc.add(bad)
        with pytest.raises(ValueError):
            acc.add_array(np.array([0.5, bad]))

    def test_distillation_raises_or_propagates_loudly(self):
        alg = get_algorithm("AS")
        with pytest.raises((ValueError, RuntimeError, OverflowError)):
            alg.sum_array(np.array([1.0, math.nan]))


class TestFloatingLayersPropagate:
    @pytest.mark.parametrize("code", ["ST", "K", "CP", "DD", "PW", "FB"])
    def test_nan_propagates(self, code):
        alg = get_algorithm(code)
        out = alg.sum_array(np.array([1.0, math.nan, 2.0]))
        assert math.isnan(out)

    @pytest.mark.parametrize("code", ["ST", "PW"])
    def test_inf_propagates(self, code):
        alg = get_algorithm(code)
        assert get_algorithm(code).sum_array(np.array([1.0, math.inf])) == math.inf

    def test_conflicting_infs_nan(self):
        out = get_algorithm("ST").sum_array(np.array([math.inf, -math.inf]))
        assert math.isnan(out)


class TestMetricsReject:
    def test_condition_number(self):
        with pytest.raises(ValueError):
            condition_number(np.array([1.0, math.nan]))

    def test_dynamic_range(self):
        with pytest.raises(ValueError):
            dynamic_range(np.array([1.0, math.inf]))


class TestCollectiveMaxAllreduce:
    """Regression: ``SimComm.max_allreduce`` used Python ``max``, whose NaN
    behaviour depends on operand order (``max(1.0, nan) == 1.0`` but
    ``max(nan, 1.0)`` is nan) — PR's pre-pass context became rank-order
    dependent.  A NaN summand must poison the max deterministically."""

    def test_nan_poisons_max_in_any_position(self):
        comm = SimComm(3)
        for vals in (
            [math.nan, 1.0, 2.0],
            [1.0, math.nan, 2.0],
            [2.0, 1.0, math.nan],
        ):
            assert math.isnan(comm.max_allreduce(vals))

    def test_nan_max_is_order_independent(self):
        comm = SimComm(2)
        assert math.isnan(comm.max_allreduce([1.0, math.nan]))
        assert math.isnan(comm.max_allreduce([math.nan, 1.0]))

    def test_finite_max_unchanged(self):
        comm = SimComm(3)
        assert comm.max_allreduce([1.0, 5.0, 2.0]) == 5.0
        assert comm.max_allreduce([math.inf, 1.0, 2.0]) == math.inf


class TestIntervalLayer:
    def test_interval_rejects_nan_endpoints(self):
        from repro.interval import Interval

        with pytest.raises(ValueError):
            Interval(math.nan, 1.0)

    def test_enclosure_of_nan_data_is_nan_safe(self):
        """Directed rounding of NaN data yields NaN endpoints; constructing
        the Interval then fails loudly rather than certifying garbage."""
        from repro.interval import sum_interval_array

        with pytest.raises(ValueError):
            sum_interval_array(np.array([1.0, math.nan]))


def _overflowing_sum() -> np.ndarray:
    """Finite operands whose exact sum (~166.5 x DBL_MAX) is beyond the
    double range: PR's correctly rounded value is +inf."""
    return np.full(1000, np.finfo(np.float64).max) * np.resize([1.0, -1.0, 0.5], 1000)


class TestPreroundedOverflow:
    """PR rounds its exact retained sum once; beyond the double range that
    rounding gives +-inf, on the object walk and the batched path alike."""

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_object_walk_batched_and_adaptive_agree(self, sign):
        from repro.mpi.ops import make_reduction_op
        from repro.selection import AdaptiveReducer

        x = sign * _overflowing_sum()
        pr = get_algorithm("PR")
        comm = SimComm(8)
        chunks = comm.scatter_array(x)
        op = make_reduction_op(pr)
        values = [
            pr.sum_array(x),
            pr.sum_items([chunks])[0],
            comm.reduce(chunks, op, engine="object").value,
            comm.reduce(chunks, op).value,
            comm.reduce_batch([chunks, chunks], op)[1].value,
            AdaptiveReducer(comm).reduce(chunks, threshold=0.0).value,
        ]
        assert [v.hex() for v in values] == [(sign * math.inf).hex()] * len(values)

    def test_largest_finite_sum_still_rounds_to_a_double(self):
        top = np.finfo(np.float64).max
        assert get_algorithm("PR").sum_array(np.array([top, -top, top])) == top


class TestAdaptiveReducerNonFinite:
    """One stated error for NaN/inf operands, raised before any reduce and
    naming the items, read off the tick sketch (``max |x| == inf`` or a NaN
    ``Σ|x|``) so it needs no extra pass."""

    def _stream(self, comm):
        rng = np.random.default_rng(3)
        items = [rng.normal(size=96) for _ in range(6)]
        items[1][5] = math.nan
        items[3][0] = math.inf
        items[4][7] = -math.inf
        return [comm.scatter_array(v) for v in items]

    def test_reduce_many_names_every_nonfinite_item(self):
        from repro.selection import AdaptiveReducer, NonFiniteOperandError

        comm = SimComm(4)
        with pytest.raises(NonFiniteOperandError) as info:
            AdaptiveReducer(comm).reduce_many(self._stream(comm), workers=1)
        assert info.value.items == (1, 3, 4)
        assert isinstance(info.value, ValueError)

    @pytest.mark.parametrize("nondeterministic", [False, True])
    def test_single_reduce_raises_the_same_error(self, nondeterministic):
        from repro.selection import AdaptiveReducer, NonFiniteOperandError

        comm = SimComm(4)
        with pytest.raises(NonFiniteOperandError) as info:
            AdaptiveReducer(comm).reduce(
                comm.scatter_array(np.array([1.0, math.nan, 2.0])),
                nondeterministic=nondeterministic,
            )
        assert info.value.items == (0,)

    def test_parallel_path_names_items_across_shards(self):
        from repro.selection import AdaptiveReducer, NonFiniteOperandError
        from repro.util.pool import pool_info

        comm = SimComm(4)
        dispatched = pool_info()["tasks_dispatched"]
        with pytest.raises(NonFiniteOperandError) as info:
            AdaptiveReducer(comm).reduce_many(self._stream(comm), workers=2)
        assert info.value.items == (1, 3, 4)
        # the parent sketches the whole stream before any shard is sent
        assert pool_info()["tasks_dispatched"] == dispatched

    def test_overflowing_finite_sums_are_not_flagged(self):
        from repro.selection import AdaptiveReducer

        comm = SimComm(4)
        chunks = comm.scatter_array(_overflowing_sum())
        big = comm.scatter_array(np.full(64, np.finfo(np.float64).max))
        # Σ|x| overflows although Σx = 4 does not
        cancel = comm.scatter_array(np.array([1.7e308, 1.7e308, -1.7e308, -1.7e308, 1.0] * 4))
        results = AdaptiveReducer(comm).reduce_many([chunks, big, cancel], workers=1)
        assert all(math.isinf(r.value) and r.value > 0 for r in results[:2])
        # an overflowing Σ|x| profiles as inf with k̂ = inf, never NaN, and
        # falls through to PR like any other infinite condition
        for r in results:
            assert r.decision.profile.abs_sum == math.inf
            assert r.decision.profile.condition == math.inf
            assert r.decision.code == "PR"
