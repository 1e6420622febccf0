"""Prerounded summation: bitwise reproducibility is a *proof obligation*."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exact import exact_sum_fraction
from repro.summation import SumContext
from repro.summation.prerounded import (
    AutoPreroundedAccumulator,
    PreroundedAccumulator,
    PreroundedSum,
)

bounded = st.floats(
    allow_nan=False, allow_infinity=False, min_value=-1e30, max_value=1e30
)


class TestExtractionExactness:
    @given(bounded)
    def test_fold_decomposition_exact_above_cutoff(self, x):
        """x == sum(folds) + residual, with residual below the cutoff grid."""
        if x == 0.0:
            return
        from repro.fp.properties import exponent

        E = exponent(x)
        acc = PreroundedAccumulator(E, folds=3, fold_width=40)
        acc.add(x)
        retained = acc.to_fraction()
        residual = Fraction(x) - retained
        cutoff = Fraction(2) ** (E - 3 * 40 - 1)
        assert abs(residual) <= cutoff

    def test_scalar_and_vector_deposits_identical(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(-1, 1, 257) * 2.0 ** rng.integers(-20, 21, 257)
        ctx = SumContext.for_data(x)
        alg = PreroundedSum()
        a = alg.make_accumulator(ctx)
        a.add_array(x)
        b = alg.make_accumulator(ctx)
        for v in x.tolist():
            b.add(v)
        assert a._folds == b._folds
        assert a.result() == b.result()


class TestBitwiseReproducibility:
    @pytest.fixture(scope="class")
    def data(self):
        rng = np.random.default_rng(9)
        base = rng.uniform(1, 2, 1500) * 2.0 ** rng.integers(-30, 31, 1500)
        x = np.concatenate([base, -base, rng.uniform(-1e5, 1e5, 999)])
        rng.shuffle(x)
        return x

    def test_any_permutation_same_bits(self, data):
        alg = PreroundedSum()
        ctx = SumContext.for_data(data)
        ref = alg.sum_array(data, ctx)
        rng = np.random.default_rng(1)
        for _ in range(10):
            perm = rng.permutation(data.size)
            assert alg.sum_array(data[perm], ctx) == ref

    def test_any_chunking_same_bits(self, data):
        alg = PreroundedSum()
        ctx = SumContext.for_data(data)
        ref = alg.sum_array(data, ctx)
        rng = np.random.default_rng(2)
        for _ in range(5):
            cuts = np.sort(rng.choice(data.size, size=7, replace=False))
            accs = []
            for chunk in np.split(data, cuts):
                acc = alg.make_accumulator(ctx)
                acc.add_array(chunk)
                accs.append(acc)
            rng.shuffle(accs)
            total = accs[0]
            for acc in accs[1:]:
                total.merge(acc)
            assert total.result() == ref

    def test_any_tree_same_bits(self, data):
        from repro.trees import evaluate_tree_generic, random_shape, balanced, serial

        small = data[:700]
        alg = PreroundedSum()
        ctx = SumContext.for_data(small)
        vals = {
            evaluate_tree_generic(shape_fn, small, alg, ctx)
            for shape_fn in (
                balanced(small.size),
                serial(small.size),
                random_shape(small.size, seed=3),
                random_shape(small.size, seed=4),
            )
        }
        assert len(vals) == 1

    def test_accuracy_within_prerounding_bound(self, data):
        alg = PreroundedSum()
        ctx = SumContext.for_data(data)
        v = alg.sum_array(data, ctx)
        exact = exact_sum_fraction(data)
        from repro.fp.properties import exponent

        cutoff = Fraction(2) ** (exponent(ctx.max_abs) - 120)
        assert abs(Fraction(v) - exact) <= data.size * cutoff + abs(exact) * Fraction(
            1, 2**52
        )


class TestBinSafety:
    def test_rejects_operand_above_bin(self):
        acc = PreroundedAccumulator(bin_exponent=4)
        with pytest.raises(ValueError, match="exceeds the bin capacity"):
            acc.add(64.0)

    def test_rejects_non_finite(self):
        acc = PreroundedAccumulator(bin_exponent=4)
        with pytest.raises(ValueError):
            acc.add(math.inf)

    def test_merge_requires_same_bin(self):
        a = PreroundedAccumulator(3)
        b = PreroundedAccumulator(4)
        with pytest.raises(ValueError, match="bin mismatch"):
            a.merge(b)

    def test_merge_requires_same_params(self):
        a = PreroundedAccumulator(3, folds=3)
        b = PreroundedAccumulator(3, folds=2)
        with pytest.raises(ValueError, match="bin mismatch"):
            a.merge(b)

    def test_context_required(self):
        with pytest.raises(ValueError, match="needs SumContext"):
            PreroundedSum().make_accumulator(None)

    def test_all_zero_data(self):
        alg = PreroundedSum()
        assert alg.sum_array(np.zeros(10)) == 0.0

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            PreroundedAccumulator(0, folds=0)
        with pytest.raises(ValueError):
            PreroundedAccumulator(0, fold_width=60)


class TestTopOfRange:
    """Data whose max is >= 2**1023: the bin capacity 2**1024 is not a
    double, and an operand can round up to it on the fold-0 grid."""

    def test_sum_array_near_overflow(self):
        # 3.0 sits > 120 bits below the top, so it is pre-rounded away; the
        # difference of the two large operands is exact (Sterbenz)
        got = PreroundedSum().sum_array(np.array([1.5e308, -1.4e308, 3.0]))
        assert got == 1.5e308 - 1.4e308

    @pytest.mark.parametrize("engine", ["object", "auto"])
    def test_simcomm_reduce_near_overflow(self, engine):
        from repro.mpi import SimComm
        from repro.mpi.ops import make_reduction_op

        comm = SimComm(2)
        op = make_reduction_op(PreroundedSum())
        chunks = [np.array([1.5e308, 3.0]), np.array([-1.4e308])]
        got = comm.reduce(chunks, op, "balanced", engine=engine).value
        assert got == 1.5e308 - 1.4e308

    def test_operand_rounding_up_to_two_to_the_1024(self):
        """max double rounds up to 2**1024 on the fold-0 grid; its residual
        is still extracted exactly on the scalar and array paths."""
        big = np.finfo(np.float64).max
        x = np.array([big, -big / 3, big / 7, 1e300])
        a = PreroundedAccumulator(1023)
        a.add_array(x)
        b = PreroundedAccumulator(1023)
        for v in x.tolist():
            b.add(v)
        assert a._folds == b._folds
        retained = a.to_fraction()
        cutoff = Fraction(2) ** (1023 - 3 * 40 - 1) * len(x)
        assert abs(exact_sum_fraction(x) - retained) <= cutoff

    def test_capacity_check_compares_exponents(self):
        acc = PreroundedAccumulator(1022)
        with pytest.raises(ValueError, match="bin capacity"):
            acc.add_array(np.array([1.0, 1.5e308]))


class TestAccuracyKnobs:
    def test_fewer_folds_less_accurate(self):
        rng = np.random.default_rng(4)
        base = rng.uniform(1, 2, 2000) * 2.0 ** rng.integers(0, 40, 2000)
        x = np.concatenate([base, -base])
        rng.shuffle(x)
        errs = {}
        for folds in (1, 2, 3):
            alg = PreroundedSum(folds=folds)
            errs[folds] = abs(alg.sum_array(x))  # exact sum is zero
        assert errs[1] >= errs[2] >= errs[3]
        assert errs[3] == 0.0  # 120 bits below max: exact here

    def test_wider_folds_more_accurate(self):
        rng = np.random.default_rng(5)
        base = rng.uniform(1, 2, 2000) * 2.0 ** rng.integers(0, 45, 2000)
        x = np.concatenate([base, -base])
        err_narrow = abs(PreroundedSum(folds=1, fold_width=20).sum_array(x))
        err_wide = abs(PreroundedSum(folds=1, fold_width=45).sum_array(x))
        assert err_wide <= err_narrow


class TestAutoPrerounded:
    def test_streaming_without_context(self):
        rng = np.random.default_rng(6)
        x = rng.uniform(-1e10, 1e10, 500)
        acc = AutoPreroundedAccumulator()
        acc.add_array(x)
        two_pass = PreroundedSum().sum_array(x)
        assert acc.result() == two_pass

    def test_rebinning_on_growing_max(self):
        # within the K*W = 120-bit retention window the small value survives
        acc = AutoPreroundedAccumulator()
        acc.add(1.0)
        acc.add(1e30)  # re-bin upward; 1e30 is ~100 bits above 1.0
        acc.add(-1e30)
        assert acc.result() == 1.0

    def test_rebinning_prerounds_away_deep_bits(self):
        # beyond the retention window the small value is (by design) lost
        acc = AutoPreroundedAccumulator()
        acc.add(1.0)
        acc.add(1e100)  # ~332 bits above 1.0: outside 120 retained bits
        acc.add(-1e100)
        assert acc.result() == 0.0

    def test_merge_different_bins(self):
        a = AutoPreroundedAccumulator()
        a.add(1.0)
        b = AutoPreroundedAccumulator()
        b.add(1e50)
        a.merge(b)
        c = AutoPreroundedAccumulator()
        c.add(1e50)
        d = AutoPreroundedAccumulator()
        d.add(1.0)
        c.merge(d)
        assert a.result() == c.result() == 1e50 + 1.0

    def test_empty(self):
        assert AutoPreroundedAccumulator().result() == 0.0
        a = AutoPreroundedAccumulator()
        b = AutoPreroundedAccumulator()
        a.merge(b)
        assert a.result() == 0.0
