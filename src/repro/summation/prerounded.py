"""Prerounded (PR) summation: bitwise-reproducible K-fold binned sums.

This is our from-scratch substitute for ReproBLAS's ``dIAddd`` operator
(references [10] and [14] of the paper).  The strategy is the one Sec. III.E
describes: split every operand into "high-order" and "low-order" parts such
that the high-order parts can be summed *irrespective of summation order* and
the low-order parts are either recursed upon (further folds) or neglected
(the pre-rounding, which bounds the user-specified accuracy).

Concretely, with the global maximum magnitude ``M`` (obtained in MPI by an
exactly-associative max-allreduce — the "pre" pass), let ``E = exponent(M)``.
Fold ``j`` lives on the grid ``2**g_j`` with ``g_j = E - (j+1)*W`` for fold
width ``W`` bits.  Each operand ``x`` is decomposed by

    q_j = rint(r_j / 2**g_j);   r_{j+1} = r_j - q_j * 2**g_j;   r_0 = x

Every step is *exact* in binary64: ``q_j`` fits in ``W+2`` bits, the product
``q_j * 2**g_j`` is representable, and Sterbenz's lemma makes the residual
subtraction error-free.  The integer fold coefficients are then accumulated
in arbitrary-precision Python integers, so deposits and merges are exact and
therefore associative and commutative: **any reduction tree yields the same
bits**.  The only inexactness is discarding ``r_K`` (magnitude below
``2**(E - K*W - 1)``), i.e. pre-rounding each operand to ``K*W`` bits below
the top of the data — with the default ``K=3, W=40`` that is 120 bits, more
accurate than quad-double.

Two variants are provided:

* :class:`PreroundedSum` — the paper's two-pass algorithm (max pass + sum
  pass), unconditionally reproducible.
* :class:`AutoPreroundedAccumulator` — a one-pass streaming extension that
  re-bins when a larger operand arrives.  Re-binning re-extracts the exact
  accumulated value onto the new grid, so results remain reproducible in
  practice (the dropped low-order bits sit >K*W bits below the running max);
  it is exercised by the ablation bench, not by the headline experiments.

:meth:`PreroundedSum.sum_items` (over :func:`_fold_items`) is the batched
form of the two-pass algorithm that the simulated collectives run: each
sum's operands read in place through a tick block's pointer table, its max
as its pre-pass.  The compiled ``pr_fold`` kernel of the one
:mod:`repro.trees._ckernels` build then takes every operand through all
``K`` folds in one pass and sums the coefficients exactly; without a
compiler (or under ``REPRO_NO_CKERNELS``) each item's row goes through
:meth:`PreroundedAccumulator.add_array`, the one NumPy extraction.  Both
yield the same exact integer fold sums.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from repro.fp.properties import exponent
from repro.summation.base import Accumulator, SumContext, SummationAlgorithm
from repro.trees import _ckernels
from repro.util.tickblock import TickBlock

__all__ = [
    "PreroundedAccumulator",
    "AutoPreroundedAccumulator",
    "PreroundedSum",
]


def _int64_span(fold_width: int) -> int:
    """Most fold coefficients one int64 sum may hold: each is at most
    ``2**(fold_width + 1)`` in magnitude, so ``2**(61 - fold_width)`` of
    them stay within ``2**62``."""
    return 1 << (61 - fold_width)

#: Largest binary exponent of a double: 2**k and 2**-k are both doubles
#: exactly when |k| <= _MAX_POW2.
_MAX_POW2 = 1023


def _retained(bin_exponent: int, folds: int, fold_width: int, sums) -> tuple:
    """``(total, g)``: fold sums ``sums`` binned at ``bin_exponent`` retain
    exactly ``total * 2**g``, with ``g = E - K*W``."""
    total = 0
    for j, f in enumerate(sums):
        total += f << ((folds - 1 - j) * fold_width)
    return total, bin_exponent - folds * fold_width


def _round_folds(bin_exponent: int, folds: int, fold_width: int, sums) -> float:
    """The correctly rounded value of fold sums ``sums`` binned at
    ``bin_exponent``: ±inf when it rounds beyond the double range.

    An int conversion or one int true division, both correctly rounded, so
    this equals ``float`` of the :class:`~fractions.Fraction`
    (:meth:`PreroundedAccumulator.to_fraction`) bit for bit.
    """
    total, g = _retained(bin_exponent, folds, fold_width, sums)
    try:
        return float(total << g) if g >= 0 else total / (1 << -g)
    except OverflowError:
        return math.inf if total > 0 else -math.inf


def _fold_items(
    block: TickBlock,
    folds: int,
    fold_width: int,
    bin_exponent: Optional[int] = None,
) -> list[tuple[int, list[int]]]:
    """Bin exponent and exact fold-coefficient sums of many independent sums.

    Item ``i`` of the tick block (:mod:`repro.util.tickblock`) is one sum;
    its operands are read in place and never written.  With
    ``bin_exponent=None`` each item is binned at the exponent of its own
    largest magnitude, which is exactly what a max-allreduce over its chunks
    yields (the PR pre-pass).  Otherwise every item shares the given bin
    and an operand beyond it raises ``ValueError``, as does any non-finite
    operand.

    The compiled ``pr_fold`` kernel (:func:`repro.trees._ckernels.pr_fold`)
    folds the whole block in one call: per item one max pass, then one pass
    that extracts every fold coefficient of each operand.  Without it
    (``REPRO_NO_CKERNELS``, no compiler) each item, in item order, is
    checked for a non-finite operand, binned, and fed to a
    :class:`PreroundedAccumulator` through
    :meth:`~PreroundedAccumulator.add_array`, so both routes raise the
    first faulty item's error.  The fold sums are exact integers, so how a
    row's operands are split into chunks, lanes or pieces cannot change
    them: both routes yield the same sums, and every reduction tree over
    the chunks does.
    """
    _check_params(folds, fold_width)
    if _ckernels.has_kernel(None, "pr_fold"):
        return list(zip(*_ckernels.pr_fold(block, folds, fold_width, bin_exponent)))
    out = []
    for row in block.rows:
        if not np.isfinite(row).all():
            raise ValueError("cannot accumulate non-finite values")
        e = bin_exponent
        if e is None:
            m = float(np.abs(row).max(initial=0.0))
            e = exponent(m) if m > 0.0 else 0
        acc = PreroundedAccumulator(e, folds, fold_width)
        acc.add_array(row)
        out.append((acc.E, acc._folds))
    return out


def _check_params(folds: int, fold_width: int) -> None:
    """Reject fold counts and widths the extraction cannot keep exact."""
    if folds < 1:
        raise ValueError("need at least one fold")
    if not 2 <= fold_width <= 50:
        raise ValueError("fold_width must be in [2, 50] to keep extraction exact")


def _check_capacity(largest: float, bin_exponent: int) -> None:
    """Reject operands whose largest magnitude does not fit the bin."""
    # compare exponents, not magnitudes: 2**(E+1) overflows at E = 1023
    if largest > 0.0 and exponent(largest) > bin_exponent:
        raise ValueError("operand exceeds bin capacity; bad global max")


def _subtract_fold(
    r: np.ndarray, q: np.ndarray, up, scale, top: Optional[np.ndarray]
) -> None:
    """``r -= q * 2**g`` row by row, exactly.

    ``q`` holds one fold's coefficients as doubles and is overwritten;
    ``scale(q, up)`` forms ``q * 2**g`` (``np.ldexp`` with exponents).
    ``top`` masks the rows binned at exponent 1023, where fold 0's
    ``q * 2**g`` may round up to 2**1024, which is not a double: there it
    is subtracted as two halves, each exact at this grid.
    """
    split = top is not None and bool(top.any())
    if split:
        q[top] *= 0.5
    scale(q, up, out=q)
    if split:
        r[top] -= q[top]
    r -= q


class PreroundedAccumulator(Accumulator):
    """Fixed-bin K-fold accumulator; exact once the bin exponent is set.

    Parameters
    ----------
    bin_exponent:
        Binary exponent of the global maximum magnitude (``exponent(M)``).
        Operands with magnitude ``>= 2**(bin_exponent+1)`` are rejected.
    folds, fold_width:
        Accuracy knobs: ``folds*fold_width`` bits below the top of the data
        are retained.
    """

    __slots__ = ("E", "K", "W", "_folds", "count")

    def __init__(self, bin_exponent: int, folds: int = 3, fold_width: int = 40) -> None:
        _check_params(folds, fold_width)
        self.E = int(bin_exponent)
        self.K = int(folds)
        self.W = int(fold_width)
        self._folds = [0] * self.K
        self.count = 0

    # -- deposits ------------------------------------------------------------
    def add(self, x: float) -> None:
        x = float(x)
        if not math.isfinite(x):
            raise ValueError(f"cannot accumulate non-finite value {x!r}")
        if x != 0.0 and exponent(x) > self.E:  # repro: allow[FP001] -- zero has no exponent; skipping it is exact
            raise ValueError(
                f"operand {x!r} exceeds the bin capacity 2**{self.E + 1}; "
                "recompute the global max or use AutoPreroundedAccumulator"
            )
        r = x
        for j in range(self.K):
            g = self.E - (j + 1) * self.W
            # round() on a float is round-half-to-even: matches np.rint.
            q = round(math.ldexp(r, -g))
            self._folds[j] += q
            if j == 0 and self.E == _MAX_POW2:
                # q*2**g may round up to 2**1024, which is not a double:
                # subtract it as two halves, each exact at this grid
                half = math.ldexp(q / 2, g)
                r = r - half - half
            else:
                r = r - math.ldexp(float(q), g)
        self.count += 1

    def add_array(self, x: np.ndarray) -> None:
        x = np.asarray(x, dtype=np.float64).ravel()
        if x.size == 0:
            return
        if not np.all(np.isfinite(x)):
            raise ValueError("cannot accumulate non-finite values")
        _check_capacity(float(np.max(np.abs(x))), self.E)
        r = x.copy()
        top = np.array([self.E == _MAX_POW2])
        span = _int64_span(self.W)
        for j in range(self.K):
            g = self.E - (j + 1) * self.W
            q = np.rint(np.ldexp(r, -g))
            qi = q.astype(np.int64)
            total = 0
            for start in range(0, qi.size, span):
                total += int(np.add.reduce(qi[start : start + span]))
            self._folds[j] += total
            _subtract_fold(r[None], q[None], g, np.ldexp, top if j == 0 else None)
        self.count += x.size

    # -- combination -----------------------------------------------------------
    def merge(self, other: "PreroundedAccumulator") -> None:  # type: ignore[override]
        if not isinstance(other, PreroundedAccumulator):
            raise TypeError("can only merge PreroundedAccumulator")
        if (other.E, other.K, other.W) != (self.E, self.K, self.W):
            raise ValueError(
                "bin mismatch: merging requires identical (bin_exponent, folds, "
                f"fold_width); got {(other.E, other.K, other.W)} vs "
                f"{(self.E, self.K, self.W)}"
            )
        for j in range(self.K):
            self._folds[j] += other._folds[j]
        self.count += other.count

    def copy(self) -> "PreroundedAccumulator":
        out = PreroundedAccumulator(self.E, self.K, self.W)
        out._folds = list(self._folds)
        out.count = self.count
        return out

    # -- extraction --------------------------------------------------------------
    def to_fraction(self) -> Fraction:
        """Exact rational value of the retained (pre-rounded) sum."""
        total, g = _retained(self.E, self.K, self.W, self._folds)
        return Fraction(total << g) if g >= 0 else Fraction(total, 1 << -g)

    def result(self) -> float:
        """The retained sum, correctly rounded: ±inf when it rounds beyond
        the double range."""
        return _round_folds(self.E, self.K, self.W, self._folds)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PreroundedAccumulator(E={self.E}, K={self.K}, W={self.W}, "
            f"value={self.result()!r})"
        )


class AutoPreroundedAccumulator(Accumulator):
    """One-pass streaming prerounded accumulator (extension).

    Wraps a :class:`PreroundedAccumulator` and re-bins upward whenever an
    operand exceeds the current bin.  Re-binning re-extracts the exact
    accumulated value onto the new grid.
    """

    __slots__ = ("folds", "fold_width", "_inner")

    def __init__(self, folds: int = 3, fold_width: int = 40) -> None:
        self.folds = folds
        self.fold_width = fold_width
        self._inner: Optional[PreroundedAccumulator] = None

    def _rebin(self, new_E: int) -> None:
        old = self._inner
        self._inner = PreroundedAccumulator(new_E, self.folds, self.fold_width)
        if old is None or all(f == 0 for f in old._folds):
            if old is not None:
                self._inner.count = old.count
            return
        value = old.to_fraction()
        # Exact re-extraction of the accumulated value onto the new grid.
        for j in range(self.folds):
            g = new_E - (j + 1) * self.fold_width
            grid = Fraction(1 << g) if g >= 0 else Fraction(1, 1 << (-g))
            q = _round_half_even(value / grid)
            self._inner._folds[j] = q
            value -= q * grid
        self._inner.count = old.count

    def add(self, x: float) -> None:
        x = float(x)
        if x != 0.0:  # repro: allow[FP001] -- zeros need no pre-rounding
            e = exponent(x)
            if self._inner is None or e > self._inner.E:
                self._rebin(e)
        if self._inner is None:
            self._rebin(0)
        self._inner.add(x)

    def add_array(self, x: np.ndarray) -> None:
        x = np.asarray(x, dtype=np.float64).ravel()
        if x.size == 0:
            return
        max_abs = float(np.max(np.abs(x)))
        if max_abs != 0.0:  # repro: allow[FP001] -- all-zero chunk guard
            e = exponent(max_abs)
            if self._inner is None or e > self._inner.E:
                self._rebin(e)
        if self._inner is None:
            self._rebin(0)
        self._inner.add_array(x)

    def merge(self, other: "AutoPreroundedAccumulator") -> None:  # type: ignore[override]
        if other._inner is None:
            return
        if self._inner is None:
            self._inner = other._inner.copy()
            return
        if other._inner.E > self._inner.E:
            self._rebin(other._inner.E)
        if other._inner.E < self._inner.E:
            promoted = AutoPreroundedAccumulator(self.folds, self.fold_width)
            promoted._inner = other._inner.copy()
            promoted._rebin(self._inner.E)
            self._inner.merge(promoted._inner)
        else:
            self._inner.merge(other._inner)

    def result(self) -> float:
        return 0.0 if self._inner is None else self._inner.result()


def _round_half_even(q: Fraction) -> int:
    """Round a rational to the nearest integer, ties to even."""
    floor = q.numerator // q.denominator
    frac = q - floor
    if frac > Fraction(1, 2):
        return floor + 1
    if frac < Fraction(1, 2):
        return floor
    return floor + (floor % 2)


class PreroundedSum(SummationAlgorithm):
    """PR: two-pass prerounded summation, bitwise reproducible by design."""

    code = "PR"
    name = "prerounded"
    cost_rank = 3
    deterministic = True
    needs_context = True
    exact_batch = True

    def __init__(self, folds: int = 3, fold_width: int = 40) -> None:
        self.folds = folds
        self.fold_width = fold_width

    def bin_exponent_for(self, context: Optional[SumContext]) -> int:
        if context is None or context.max_abs is None:
            raise ValueError("PreroundedSum needs SumContext.max_abs (two-pass)")
        if context.max_abs == 0.0:  # repro: allow[FP001] -- all-zero context guard
            return 0
        return exponent(context.max_abs)

    def make_accumulator(self, context: Optional[SumContext] = None) -> PreroundedAccumulator:
        return PreroundedAccumulator(
            self.bin_exponent_for(context), self.folds, self.fold_width
        )

    def sum_array(self, x: np.ndarray, context: Optional[SumContext] = None) -> float:
        x = np.asarray(x, dtype=np.float64)
        if context is None or context.max_abs is None:
            context = SumContext.for_data(x)  # the "pre" pass
        acc = self.make_accumulator(context)
        acc.add_array(x)
        return acc.result()

    def sum_items(
        self,
        items: Sequence[Sequence[np.ndarray]],
        context: Optional[SumContext] = None,
    ) -> list[float]:
        """PR values of many independent sums in one batched pass.

        ``items[i]`` is one sum's operands as a sequence of chunks, or
        ``items`` is a :class:`repro.util.tickblock.TickBlock` whose rows are
        read in place.  Without
        ``context.max_abs`` each item is binned at its own largest magnitude
        (its "pre" pass); with it, every item shares that bin.  Each value
        is bitwise-equal to folding the chunks into accumulators and merging
        them in any reduction tree (see :func:`_fold_items`).
        """
        bin_exponent = None
        if context is not None and context.max_abs is not None:
            bin_exponent = self.bin_exponent_for(context)
        return [
            _round_folds(e, self.folds, self.fold_width, sums)
            for e, sums in _fold_items(
                TickBlock.of(items), self.folds, self.fold_width, bin_exponent
            )
        ]
