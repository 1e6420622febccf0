"""The compensated sketch kernel: C/NumPy parity, tier pins, accuracy.

One fused kernel (:mod:`repro.selection._statskernel`) feeds both the
profiling sketch and the bound tier.  These tests pin three things:

* the compiled kernel and its NumPy fallback agree **bitwise** on every
  row and item plane, over widths that exercise the lane tail and inputs
  with signed zeros, subnormals, near-overflow values and mixed signs;
* the tier's statistics are the plain lane sums the previous stats kernel
  produced (frozen hex values), on either path;
* the sketch's condition estimate stays within 1e-6 of the exact ``k`` on
  long single chunks, and selection from the sketch matches selection from
  the exact ``k`` over the Fig. 12 grid.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.experiments.config import resolve_scale
from repro.experiments.fig12_selection import PAPER_THRESHOLDS
from repro.generators import generate_sum_set
from repro.metrics import profile_set
from repro.metrics.properties import SetProfile
from repro.selection import AnalyticPolicy, bound_stats_item, bound_stats_stream
from repro.selection import _statskernel
from repro.selection.profile import profile_batch, profile_chunk, profile_stream
from repro.summation import get_algorithm
from repro.trees import _ckernels
from repro.trees.schedule import compile_tree
from repro.trees.shapes import balanced
from repro.util.chunking import pack_ragged
from repro.util.tickblock import TickBlock

needs_kernels = pytest.mark.skipif(
    not _ckernels.kernels_available(), reason="no C compiler / kernels gated"
)

#: magnitudes that stress the lanes: signed zeros, subnormals, the smallest
#: normal, and values whose sums overflow
_SPECIALS = np.array(
    [0.0, -0.0, 5e-324, -5e-324, 2.5e-320, 2.2250738585072014e-308,
     1e308, -1e308, 1.7976931348623157e308, -8.98846567431158e307]
)


def _stream(seed: int, n_items: int, n_ranks: int, width: int, special_share: float):
    rng = np.random.default_rng(seed)
    size = n_items * n_ranks * width
    values = rng.standard_normal(size) * 10.0 ** rng.integers(-300, 301, size=size)
    special = rng.random(size) < special_share
    values[special] = rng.choice(_SPECIALS, size=int(special.sum()))
    flat = values.reshape(n_items * n_ranks, width)
    return [[flat[i * n_ranks + r] for r in range(n_ranks)] for i in range(n_items)]


def _bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


def _numpy_planes(block):
    rows = _statskernel._rows_numpy(block)
    return rows, _statskernel._items_numpy(rows, block.ranks)


def _use_fallback(monkeypatch) -> None:
    """Route the sketch through the NumPy fallback in this process."""
    monkeypatch.setattr(_statskernel._ckernels, "kernels_available", lambda: False)


class TestKernelFallbackParity:
    @needs_kernels
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(0, 2**32 - 1),
        width=st.sampled_from([0, 1, 7, 8, 9, 61, 128, 257]),
        n_ranks=st.sampled_from([1, 3, 48]),
        n_items=st.integers(1, 3),
        special_share=st.sampled_from([0.0, 0.05, 0.5, 1.0]),
    )
    def test_c_sketch_bitwise_equals_numpy(
        self, seed, width, n_ranks, n_items, special_share
    ):
        block = TickBlock.of(_stream(seed, n_items, n_ranks, width, special_share))
        c_rows, c_items = _ckernels.sketch_planes(block, True, True)
        np_rows, np_items = _numpy_planes(block)
        assert np.array_equal(_bits(c_rows), _bits(np_rows))
        assert np.array_equal(_bits(c_items), _bits(np_items))

    @needs_kernels
    def test_ragged_rows_and_long_chunks(self):
        """Mixed widths and rank counts within one stream, and a long chunk,
        agree bitwise with the fallback."""
        rng = np.random.default_rng(11)
        widths = [0, 5, 8, 61, 200, 3, (1 << 16) + 13]
        flat = [rng.standard_normal(w) * 1e3 for w in widths]
        block = TickBlock.of([flat, [f[::-1].copy() for f in flat], flat[2:5], []])
        c_rows, c_items = _ckernels.sketch_planes(block, True, True)
        np_rows, np_items = _numpy_planes(block)
        assert np.array_equal(_bits(c_rows), _bits(np_rows))
        assert np.array_equal(_bits(c_items), _bits(np_items))

    @pytest.mark.parametrize("fallback", [False, True])
    def test_profile_routes_agree(self, fallback, monkeypatch):
        """profile_batch, profile_stream and the per-chunk update chain give
        the same sketch on either path."""
        if fallback:
            _use_fallback(monkeypatch)
        batches = _stream(3, 4, 5, 61, 0.1)
        got = profile_batch(batches)
        for sketch, chunks in zip(got, batches):
            stream = profile_stream(chunks)
            chained = profile_chunk(chunks[0])
            for c in chunks[1:]:
                chained.update(c)
            for other in (stream, chained):
                assert other.n == sketch.n
                for field in _statskernel.SKETCH_COLUMNS:
                    a, b = getattr(sketch, field), getattr(other, field)
                    assert float(a).hex() == float(b).hex(), field


def _packing_streams():
    """Item-major chunk lists (with their rank count): many items, one item
    with a long chunk, long chunks, or non-float64 and non-array chunks."""
    rng = np.random.default_rng(23)
    many = [rng.standard_normal(300) for _ in range(40 * 6)]
    over = [rng.standard_normal(100) for _ in range(48)]
    over += [rng.standard_normal((1 << 16) + 470)]
    over += [rng.standard_normal(10) for _ in range(47)]
    long = [rng.standard_normal(5000) for _ in range(2 * 4)]
    mixed = [
        [0.5, -1.5, 2.0],
        np.arange(7, dtype=np.int64),
        rng.standard_normal(5).astype(np.float32),  # repro: allow[FP005] -- a float32 chunk is the input under test
        rng.standard_normal((2, 3)),
    ] * 3
    return {"many": (many, 6), "over": (over, 48), "long": (long, 4), "mixed": (mixed, 4)}


@needs_kernels
class TestPackedRowPointers:
    """The fold/reduce kernels over a tick block's pointer table agree
    bitwise with the NumPy fold whatever the chunk list holds."""

    @pytest.mark.parametrize("case", ["many", "over", "long", "mixed"])
    @pytest.mark.parametrize("code", ["ST", "K", "KBN", "CP", "DD"])
    def test_fold_and_reduce_match_numpy(self, code, case):
        chunks, n_ranks = _packing_streams()[case]
        vops = get_algorithm(code).vector_ops
        matrix, lengths = pack_ragged(chunks)
        want = vops.fold(matrix, lengths)
        n_items = len(chunks) // n_ranks
        block = TickBlock.of(
            [chunks[i * n_ranks : (i + 1) * n_ranks] for i in range(n_items)]
        )
        for g, w in zip(_ckernels.fold_block(block, vops), want):
            assert np.asarray(g).tobytes() == np.asarray(w).tobytes()
        states = tuple(c.reshape(n_items, n_ranks) for c in want)
        root = compile_tree(balanced(n_ranks)).reduce_states(states, vops)
        ref = np.asarray(vops.result(root), dtype=np.float64).reshape(n_items)
        got = _ckernels.reduce_block(block, vops)
        assert got.tobytes() == ref.tobytes()

    def test_empty_chunk_lists(self):
        vops = get_algorithm("K").vector_ops
        assert all(s.size == 0 for s in _ckernels.fold_block(TickBlock.of([[]]), vops))
        assert _ckernels.reduce_block(TickBlock.of([]), vops).size == 0


#: bound-tier statistics of a fixed stream, as the previous plain-sum stats
#: kernel computed them: the sketch's hi planes must reproduce them exactly
_FROZEN_TIER = {
    61: [("0x1.cb853c8427c51p+29", "0x1.10b60245380a8p+25"),
         ("0x1.10d2daeddaaf9p+30", "-0x1.6d9bc026245d1p+28")],
    128: [("0x1.14ecb7e5ade96p+31", "0x1.89be70fd6b21dp+28"),
          ("0x1.2d7b743bf0672p+31", "0x1.3f50b15cc975ep+27")],
    257: [("0x1.72b34fc5bdf96p+31", "0x1.ef10702375458p+27"),
          ("0x1.e1a7f22c9b7b0p+31", "0x1.2b70b828f95a4p+27")],
}


def _frozen_streams():
    rng = np.random.default_rng(20261017)
    out = {}
    for width in (61, 128, 257):
        out[width] = [
            [rng.standard_normal(width) * 10.0 ** rng.integers(-8, 9, size=width)
             for _ in range(3)]
            for _ in range(2)
        ]
    return out


class TestTierStatistics:
    @pytest.mark.parametrize("fallback", [False, True])
    def test_tier_stats_match_frozen_lane_sums(self, fallback, monkeypatch):
        if fallback:
            _use_fallback(monkeypatch)
        u = 2.0**-53
        for width, batches in _frozen_streams().items():
            stream = bound_stats_stream(batches, [u, u])
            got = [(s.abs_sum.hex(), s.approx_sum.hex()) for s in stream]
            assert got == _FROZEN_TIER[width], width

    @pytest.mark.parametrize("fallback", [False, True])
    @pytest.mark.parametrize("width", [0, 1, 9, 61, 128])
    def test_item_equals_stream_bitwise(self, width, fallback, monkeypatch):
        if fallback:
            _use_fallback(monkeypatch)
        batches = _stream(17 + width, 5, 3, width, 0.05)
        us = [2.0**-53] * len(batches)
        stream = bound_stats_stream(batches, us)
        for chunks, s in zip(batches, stream):
            item = bound_stats_item(chunks, 2.0**-53)
            assert item.n == s.n
            for field in ("max_abs", "min_abs_nonzero", "abs_sum", "approx_sum"):
                assert getattr(item, field).hex() == getattr(s, field).hex(), field


class TestSketchAccuracy:
    @pytest.mark.parametrize("n", [1_000, 100_000, 2**20])
    @pytest.mark.parametrize("k", [1.0, 1e3, 1e9, 1e15])
    def test_condition_estimate_long_chunks(self, n, k):
        """Lane-sequential compensation keeps k̂ within 1e-6 of the exact k
        on single chunks up to 2**20 values (module docstring bound)."""
        data = generate_sum_set(n, k, 16, seed=5).values
        exact = profile_set(data).condition
        assert profile_chunk(data).condition_estimate() == pytest.approx(
            exact, rel=1e-6
        )

    def test_decisions_match_exact_k_over_fig12_grid(self):
        scale = resolve_scale("ci")
        policy = AnalyticPolicy()
        mismatches = []
        for decade in scale.grid_k_decades:
            for dr in scale.grid_dr_values:
                data = generate_sum_set(
                    scale.grid_n, 10.0**decade, dr, seed=decade * 100 + dr
                ).values
                sketch = profile_chunk(data).as_set_profile()
                exact = profile_set(data)
                exact = SetProfile(
                    n=exact.n,
                    condition=exact.condition,
                    dynamic_range=exact.dynamic_range,
                    max_abs=exact.max_abs,
                    abs_sum=exact.abs_sum,
                )
                assert sketch.dynamic_range == exact.dynamic_range
                for t in PAPER_THRESHOLDS:
                    got = policy.select(sketch, t).code
                    want = policy.select(exact, t).code
                    if got != want:
                        mismatches.append((decade, dr, t, got, want))
        assert not mismatches
