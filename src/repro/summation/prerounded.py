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
form of the two-pass algorithm that the simulated collectives run: whole
sums packed into row blocks, each row's max as its pre-pass, and one
vectorised extraction sweep per fold for the whole block.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from repro.fp.properties import exponent
from repro.summation.base import Accumulator, SumContext, SummationAlgorithm

__all__ = [
    "PreroundedAccumulator",
    "AutoPreroundedAccumulator",
    "PreroundedSum",
]

#: Block size for int64-safe fold-coefficient reduction: |q| < 2**42, so
#: 2**20 terms stay below 2**62.
_BLOCK = 1 << 20

#: Elements per scratch buffer of :func:`_fold_items`.  A buffer's rows sum
#: in int64, so it must not exceed ``_BLOCK``; the fixed budget keeps the
#: working set cache-sized and peak memory flat in the batch size.
_SCRATCH = 1 << 16

#: Largest binary exponent of a double: 2**k and 2**-k are both doubles
#: exactly when |k| <= _MAX_POW2.
_MAX_POW2 = 1023


def _fold_items(
    items: Sequence[Sequence[np.ndarray]],
    folds: int,
    fold_width: int,
    bin_exponent: Optional[int] = None,
) -> list[tuple[int, list[int]]]:
    """Bin exponent and exact fold-coefficient sums of many independent sums.

    ``items[i]`` holds one sum's operands as a sequence of chunks (say a
    collective's per-rank data).  With ``bin_exponent=None`` each item is
    binned at the exponent of its own largest magnitude, which is exactly
    what a max-allreduce over its chunks yields (the PR pre-pass).
    Otherwise every item shares the given bin and an operand beyond it
    raises ``ValueError``, as does any non-finite operand.

    Short items are packed one per row into zero-padded blocks of at most
    ``_SCRATCH`` elements, shortest first so rows of a block have similar
    widths; longer items stream through one-row blocks.  Each block's folds
    come out of one vectorised sweep (:func:`_fold_block`).  The fold sums
    are exact integers, so how an item's operands are split into chunks,
    rows or blocks cannot change them: every reduction tree over the chunks
    yields the same sums, and each equals what
    :meth:`PreroundedAccumulator.add_array` deposits for the same bin.
    """
    sizes = [sum([a.size for a in map(np.asarray, chunks)]) for chunks in items]  # repro: allow[FP002] -- integer element counts
    exps = [0 if bin_exponent is None else bin_exponent] * len(items)
    sums = [[0] * folds for _ in items]
    scratch = np.empty((3, min(_SCRATCH, len(items) * max(sizes, default=0))))

    short = sorted(
        (i for i, n in enumerate(sizes) if 0 < n <= _SCRATCH), key=sizes.__getitem__
    )
    start = 0
    while start < len(short):
        stop = start + 1
        while stop < len(short) and (stop + 1 - start) * sizes[short[stop]] <= _SCRATCH:
            stop += 1
        rows = short[start:stop]
        width = sizes[rows[-1]]
        block = scratch[0, : len(rows) * width].reshape(len(rows), width)
        for row, i in zip(block, rows):
            np.concatenate(items[i], axis=None, out=row[: sizes[i]])
            row[sizes[i] :] = 0.0
        block_exps, block_sums = _fold_block(
            block, scratch, folds, fold_width, bin_exponent
        )
        for i, e, row_sums in zip(rows, block_exps.tolist(), block_sums.T.tolist()):
            exps[i] = e
            sums[i] = row_sums
        start = stop

    for i in (i for i, n in enumerate(sizes) if n > _SCRATCH):
        if bin_exponent is None:
            m = max(float(_row_max(_load(scratch, p), scratch)[0]) for p in _pieces(items[i]))
            exps[i] = exponent(m) if m > 0.0 else 0
        for piece in _pieces(items[i]):
            _, block_sums = _fold_block(
                _load(scratch, piece), scratch, folds, fold_width, exps[i]
            )
            for j in range(folds):
                sums[i][j] += int(block_sums[j, 0])
    return list(zip(exps, sums))


def _pieces(chunks: Sequence[np.ndarray]):
    """An item's operands as consecutive slices of at most ``_SCRATCH``."""
    for chunk in chunks:
        flat = np.ravel(chunk)
        for start in range(0, flat.size, _SCRATCH):
            yield flat[start : start + _SCRATCH]


def _load(scratch: np.ndarray, piece: np.ndarray) -> np.ndarray:
    """Copy one piece into a one-row block at the front of the scratch."""
    block = scratch[0, : piece.size].reshape(1, piece.size)
    np.copyto(block[0], piece)
    return block


def _row_max(block: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """Largest magnitude of every row; raises on a non-finite operand."""
    rows, width = block.shape
    m = np.abs(block, out=scratch[1, : rows * width].reshape(rows, width)).max(axis=1)
    if not np.isfinite(m).all():
        raise ValueError("cannot accumulate non-finite values")
    return m


def _fold_block(
    block: np.ndarray,
    scratch: np.ndarray,
    folds: int,
    fold_width: int,
    bin_exponent: Optional[int],
) -> tuple[np.ndarray, np.ndarray]:
    """Bin exponent and fold sums of every row of a packed block.

    Returns ``(exps, sums)`` with ``sums[j, r]`` the int64 sum of row
    ``r``'s fold-``j`` coefficients.  Each fold is one sweep over the whole
    block: ``q = rint(r * 2**-g)`` and ``r -= q * 2**g`` with ``g`` the
    row's fold grid, exactly :meth:`PreroundedAccumulator.add`'s
    decomposition.  ``block`` (a view of ``scratch[0]``) is consumed: it
    ends up holding residuals; ``scratch[1:]`` is overwritten.
    """
    rows, width = block.shape
    m = _row_max(block, scratch)
    if bin_exponent is None:
        exps = np.where(m > 0.0, np.frexp(m)[1] - 1, 0)
    else:
        _check_capacity(float(m.max()), bin_exponent)
        exps = np.full(rows, bin_exponent)
    # fold grids g[j, r] = exps[r] - (j+1)*fold_width, shaped to broadcast
    # over each row's columns; g <= 1023 - fold_width always holds
    g = exps[:, None] - fold_width * np.arange(1, folds + 1).reshape(folds, 1, 1)
    if g.min() < -_MAX_POW2:
        # some row's 2**-g is not a double (a bin near the subnormal floor):
        # the whole block scales by exponents instead, as exactly
        scale, down, up = np.ldexp, (-g).astype(np.int32), g.astype(np.int32)
    else:
        # a product with a power of two is one correctly rounded operation,
        # the same rounding ldexp does, and a multiply is cheaper
        scale, down, up = np.multiply, np.ldexp(1.0, -g), np.ldexp(1.0, g)
    at_top = exps == _MAX_POW2
    y = scratch[1, : rows * width].reshape(rows, width)
    q = scratch[2, : rows * width].view(np.int64).reshape(rows, width)
    sums = np.empty((folds, rows), dtype=np.int64)
    for j in range(folds):
        scale(block, down[j], out=y)
        np.rint(y, out=y)
        np.copyto(q, y, casting="unsafe")  # exact: |q| < 2**42
        np.add.reduce(q, axis=1, out=sums[j])
        if j + 1 < folds:  # the last residual is the pre-rounding: dropped
            _subtract_fold(block, y, up[j], scale, at_top if j == 0 else None)
    return exps, sums


def _check_capacity(largest: float, bin_exponent: int) -> None:
    """Reject operands whose largest magnitude does not fit the bin."""
    # compare exponents, not magnitudes: 2**(E+1) overflows at E = 1023
    if largest > 0.0 and exponent(largest) > bin_exponent:
        raise ValueError("operand exceeds bin capacity; bad global max")


def _subtract_fold(
    r: np.ndarray, q: np.ndarray, up, scale, top: Optional[np.ndarray]
) -> None:
    """``r -= q * 2**g`` row by row, in place and exactly.

    ``q`` holds one fold's coefficients as doubles and is overwritten;
    ``scale(q, up)`` forms ``q * 2**g`` (``np.ldexp`` with exponents or
    ``np.multiply`` with powers of two).  ``top`` masks the rows binned at
    exponent 1023, where fold 0's ``q * 2**g`` may round up to 2**1024,
    which is not a double: there it is subtracted as two halves, each exact
    at this grid.
    """
    if top is not None and top.any():
        q[top] *= 0.5
        scale(q, up, out=q)
        r[top] -= q[top]
    else:
        scale(q, up, out=q)
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
        if folds < 1:
            raise ValueError("need at least one fold")
        if not 2 <= fold_width <= 50:
            raise ValueError("fold_width must be in [2, 50] to keep extraction exact")
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
        for j in range(self.K):
            g = self.E - (j + 1) * self.W
            q = np.rint(np.ldexp(r, -g))
            qi = q.astype(np.int64)
            total = 0
            for start in range(0, qi.size, _BLOCK):
                total += int(np.add.reduce(qi[start : start + _BLOCK]))
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
        g_min = self.E - self.K * self.W
        total = 0
        for j, f in enumerate(self._folds):
            total += f << ((self.K - 1 - j) * self.W)
        if g_min >= 0:
            return Fraction(total * (1 << g_min))
        return Fraction(total, 1 << (-g_min))

    def result(self) -> float:
        return float(self.to_fraction())

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

        ``items[i]`` is one sum's operands as a sequence of chunks.  Without
        ``context.max_abs`` each item is binned at its own largest magnitude
        (its "pre" pass); with it, every item shares that bin.  Each value
        is bitwise-equal to folding the chunks into accumulators and merging
        them in any reduction tree (see :func:`_fold_items`).
        """
        bin_exponent = None
        if context is not None and context.max_abs is not None:
            bin_exponent = self.bin_exponent_for(context)
        values = []
        for e, folds in _fold_items(items, self.folds, self.fold_width, bin_exponent):
            acc = PreroundedAccumulator(e, self.folds, self.fold_width)
            acc._folds = folds
            values.append(acc.result())
        return values
