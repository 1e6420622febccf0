"""PR's compiled fold against its NumPy reference.

``_ckernels.pr_fold`` must return the same bin exponents and the same
exact integer fold sums as the no-kernel route of ``_fold_items``
(``PreroundedAccumulator.add_array`` per item) on every input the batched
PR path accepts, and raise the same ``ValueError``s on the inputs it
refuses.  Kernel cases skip when the compiled kernels are unavailable (no
compiler, ``REPRO_NO_CKERNELS``).
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest

from repro.fp.properties import exponent
from repro.obs import get_registry
from repro.summation.prerounded import (
    PreroundedAccumulator,
    PreroundedSum,
    _fold_items,
    _int64_span,
)
from repro.trees import _ckernels
from repro.util.tickblock import TickBlock

needs_kernels = pytest.mark.skipif(
    not _ckernels.kernels_available(), reason="compiled kernels unavailable"
)

TOP = np.finfo(np.float64).max

_has_kernel = _ckernels.has_kernel


def _numpy_fold(block, folds, width, bin_exponent=None):
    """The no-kernel route of ``_fold_items``: ``has_kernel`` with only
    PR's compiled fold switched off."""
    def has_kernel(vops, family="sweep"):
        return family != "pr_fold" and _has_kernel(vops, family)

    with mock.patch.object(_ckernels, "has_kernel", has_kernel):
        return _fold_items(block, folds, width, bin_exponent)


def _parity(items, folds, width, bin_exponent=None):
    """Assert kernel == NumPy reference on a stream of chunk lists."""
    block = TickBlock.of(items)
    exps, sums = _ckernels.pr_fold(block, folds, width, bin_exponent)
    ref = _numpy_fold(block, folds, width, bin_exponent)
    assert list(zip(exps, sums)) == ref
    return ref


def _ragged_items(rng, n_items=5):
    """Ragged rank counts and chunk widths (empty chunks included) over
    magnitudes spread across ~120 binades, with exact cancellations."""
    items = []
    for _ in range(n_items):
        chunks = []
        for _ in range(int(rng.integers(1, 7))):
            m = int(rng.integers(0, 45))
            x = rng.uniform(-1, 1, m) * 2.0 ** rng.integers(-60, 60, m)
            chunks.append(x)
        chunks.append(-chunks[0])
        items.append(chunks)
    return items


@needs_kernels
class TestParity:
    @pytest.mark.parametrize("width", range(2, 51))
    def test_every_fold_width_and_count(self, width):
        rng = np.random.default_rng(width)
        # one binade, one sign: every lane nears its deposit cap
        items = _ragged_items(rng) + [[rng.uniform(1, 2, 300)]]
        for folds in (1, 2, 3, 4):
            _parity(items, folds, width)
            # a shared bin above every item's own
            _parity(items, folds, width, bin_exponent=70)

    def test_rows_binned_at_1023(self):
        """Operands near the top of the range; max double rounds up to
        2**1024 on the fold-0 grid and is subtracted in two halves."""
        rng = np.random.default_rng(1)
        x = rng.uniform(-1, 1, 203) * TOP
        x[7] = TOP
        x[11] = -TOP
        items = [[x[:100], x[100:]], [np.array([TOP, -TOP / 3, TOP / 7, 1e300])]]
        for width in (2, 20, 40, 50):
            for folds in (1, 3, 4):
                ref = _parity(items, folds, width)
                assert [e for e, _ in ref] == [1023, 1023]
                _parity(items, folds, width, bin_exponent=1023)

    def test_subnormal_floor_bins(self):
        """Bins where 2**-g is not a double for some fold grid g."""
        rng = np.random.default_rng(2)
        tiny = rng.uniform(-1, 1, 97) * 2.0 ** rng.integers(-1074, -1000, 97)
        sub = np.array([5e-324, -1e-320, 2.2e-308, -3e-310])
        items = [[tiny[:40], tiny[40:]], [sub], [tiny * 2.0**60]]
        for width in (2, 17, 40, 50):
            for folds in (1, 2, 3, 4):
                _parity(items, folds, width)
        # a deep stack of folds walks every grid below the floor
        _parity(items, 40, 50)
        _parity(items, 3, 40, bin_exponent=-930)

    def test_zeros_empty_chunks_and_empty_items(self):
        zeros = np.array([0.0, -0.0, 0.0, -0.0] * 5)
        empty = np.zeros(0)
        items = [
            [zeros, empty],
            [empty],
            [],
            [empty, np.array([-0.0]), empty],
            [np.array([1.5]), empty, -zeros],
        ]
        for bin_exponent in (None, 4):
            ref = _parity(items, 3, 40, bin_exponent)
            assert [sums for _, sums in ref[:4]] == [[0, 0, 0]] * 4

    @pytest.mark.parametrize("width", [44, 46, 48, 50])
    def test_rows_longer_than_the_int64_span(self, width):
        """Every fold-0 coefficient is 2**(width+1): at width 50 a row of
        4 spans sums to 2**64, beyond one int64, and its negation to
        -2**64."""
        n = 4 * _int64_span(width)
        x = np.full(n, np.nextafter(2.0, 0.0))
        ref = _parity([[x[: n // 3], x[n // 3 :]], [x[:5]], [-x]], 3, width)
        assert ref[0][1][0] == n << (width + 1)
        assert ref[2][1][0] == -(n << (width + 1))
        y = np.random.default_rng(width).uniform(1, 2, n)
        _parity([[x], [-x], [y[:-3], y[-3:]]], 3, width, bin_exponent=3)

    def test_serve_bulk_style_stream(self):
        """The standard PR load: 6,144-value rows scattered over 48 ranks."""
        from repro.generators import generate_sum_set, zero_sum_set
        from repro.mpi import SimComm

        comm = SimComm(48)
        rng = np.random.default_rng(3)
        items = [comm.scatter_array(zero_sum_set(6144, 30, rng)) for _ in range(4)]
        items += [
            comm.scatter_array(generate_sum_set(6144, 1e17, 35, rng).values)
            for _ in range(4)
        ]
        _parity(items, 3, 40)


@needs_kernels
class TestRefusals:
    def test_operand_beyond_the_shared_bin(self):
        items = [[np.ones(9)], [np.array([0.5, 3.0])]]
        for fold in (_ckernels.pr_fold, _numpy_fold):
            with pytest.raises(ValueError, match="bin capacity"):
                fold(TickBlock.of(items), 3, 40, 0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("bin_exponent", [None, 1023])
    def test_non_finite_operands(self, bad, bin_exponent):
        x = np.arange(37.0)
        x[29] = bad  # in the vector lanes
        y = np.arange(5.0)
        y[4] = bad  # in a chunk's tail
        for items in ([[x]], [[np.ones(3)], [y]]):
            for fold in (_ckernels.pr_fold, _numpy_fold):
                with pytest.raises(ValueError, match="non-finite"):
                    fold(TickBlock.of(items), 3, 40, bin_exponent)


def test_mixed_faults_raise_the_same_error_on_both_routes():
    """Both routes check items in item order: an operand beyond the shared
    bin in the first item wins over a non-finite one in the second."""
    items = [[np.full(100, 3.0)], [np.array([0.5, np.nan])]]
    folds = [_numpy_fold]
    if _ckernels.kernels_available():
        folds.append(_ckernels.pr_fold)
    for fold in folds:
        with pytest.raises(ValueError, match="bin capacity"):
            fold(TickBlock.of(items), 3, 40, 0)


@pytest.mark.parametrize("folds, width", [(0, 40), (3, 1), (3, 51)])
def test_params_the_extraction_cannot_keep_exact(folds, width):
    items = [[np.ones(9)]]
    with pytest.raises(ValueError, match="fold"):
        PreroundedSum(folds=folds, fold_width=width).sum_items(items)
    if _ckernels.kernels_available():
        with pytest.raises(ValueError, match="fold_width in"):
            _ckernels.pr_fold(TickBlock.of(items), folds, width, None)


def test_sum_items_overflow_rounds_to_inf():
    """PR's overflow contract on the batched route: the exact retained sum
    rounds once, to +-inf beyond the double range, like the object walk."""
    x = np.full(1000, TOP) * np.resize([1.0, -1.0, 0.5], 1000)
    alg = PreroundedSum()
    got = alg.sum_items([[x[:400], x[400:]], [-x]])
    assert got == [np.inf, -np.inf]
    assert got[0] == alg.sum_array(x)
    if _ckernels.kernels_available():
        _parity([[x[:400], x[400:]], [-x]], 3, 40)


def test_sum_items_equals_the_accumulator():
    """Whichever route runs, each value is the accumulator's over the item."""
    rng = np.random.default_rng(4)
    items = _ragged_items(rng, n_items=8)
    alg = PreroundedSum()
    got = alg.sum_items(items)
    for chunks, value in zip(items, got):
        x = np.concatenate(chunks)
        m = float(np.abs(x).max())
        acc = PreroundedAccumulator(exponent(m))
        acc.add_array(x)
        assert value == acc.result()


def test_gated_pr_fold_counts_a_fallback(monkeypatch):
    """A PR fold that would run compiled but cannot (gated, no compiler,
    failed build) is one ``repro_ckernels_fallback_total{kernel="pr_fold"}``."""
    reg = get_registry()
    reg.reset()
    reg.enable()
    try:
        monkeypatch.setattr(_ckernels, "_get_lib", lambda: None)
        values = PreroundedSum().sum_items([[np.ones(8)], [np.arange(5.0)]])
        assert values == [8.0, 10.0]
        samples = reg.snapshot()["counters"]["repro_ckernels_fallback_total"]
        assert [(s["labels"], s["value"]) for s in samples] == [({"kernel": "pr_fold"}, 1)]
    finally:
        reg.disable()
        reg.reset()
