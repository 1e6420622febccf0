"""Compensated sketch kernel: one read of each chunk feeds profiling and the
bound probe.

Per chunk (one *row*) the kernel yields six statistics: ``max|x|``,
``min{|x| : x != 0}``, and TwoSum-compensated ``(hi, lo)`` pairs for
``Σ|x|`` and ``Σx``.  It runs eight lanes.  Element ``j`` of the row's
first ``width - width % 8`` elements feeds lane ``j % 8``, the tail feeds
lane 0, and lanes 1..7 merge into lane 0 in order.  Each lane is the
sequential Sum2 chain ``hi, e = TwoSum(hi, v); lo = lo + e``, so a row's
``hi`` is exactly the plain lane-parallel sum (what the bound probe
certifies) and ``hi + lo`` is the compensated sum the profiling sketch
needs.  Asked for items, the kernel also runs each item's
:meth:`repro.selection.profile.StreamProfile.merge` chain over its rank rows
in rank order, so a whole stream, ragged or not, profiles in one call.

The compiled kernel is part of the single :mod:`repro.trees._ckernels`
build, and its operands arrive through a tick block's pointer table
(:mod:`repro.util.tickblock`), read in place.
Without it (no compiler, or ``REPRO_NO_CKERNELS``), the NumPy fallback
below replays the identical lane order and operation sequence with
:func:`repro.fp.eft.two_sum_array`, so every statistic is **bitwise-equal**
on both paths.  The parity tests pin this, so serial, batched, parallel and
served routes agree bit for bit with or without a compiler.
"""

from __future__ import annotations

import math

import numpy as np

from repro.fp.eft import two_sum_array
from repro.trees import _ckernels

__all__ = ["SKETCH_COLUMNS", "sketch"]

#: column order of the row and item planes (StreamProfile's field order)
SKETCH_COLUMNS = (
    "max_abs",
    "min_abs_nonzero",
    "abs_sum_hi",
    "abs_sum_lo",
    "sum_hi",
    "sum_lo",
)

_LANES = 8


def sketch(block, *, rows: bool, items: bool):
    """Sketch planes of a tick block (:class:`repro.util.tickblock.TickBlock`).

    Returns ``(row_planes, item_planes)``: ``(n_chunks, 6)`` and
    ``(n_items, 6)`` float64 arrays in :data:`SKETCH_COLUMNS` order, or
    ``None`` for a plane set not asked for.  Each item's plane merges its
    own ``block.ranks[i]`` rows, so ragged streams sketch in one call.
    """
    if _ckernels.kernels_available():
        return _ckernels.sketch_planes(block, rows, items)
    row_planes = _rows_numpy(block)
    item_planes = _items_numpy(row_planes, block.ranks) if items else None
    return (row_planes if rows else None), item_planes


def _rows_numpy(block) -> np.ndarray:
    """Fallback row sketch: one matrix sweep per distinct chunk width."""
    chunks = block.chunks()
    out = np.empty((len(chunks), 6), dtype=np.float64)
    for width in np.unique(block.lens).tolist():
        idx = np.flatnonzero(block.lens == width)
        matrix = np.empty((idx.size, width), dtype=np.float64)
        np.concatenate([chunks[i] for i in idx.tolist()], out=matrix.reshape(-1))
        out[idx] = _rows_matrix(matrix)
    return out


def _rows_matrix(matrix: np.ndarray) -> np.ndarray:
    """The C ``sketch_row`` over every row of a ``(m, width)`` matrix."""
    m, width = matrix.shape
    mags = np.abs(matrix)
    sh = np.zeros((m, _LANES))
    sl = np.zeros((m, _LANES))
    ah = np.zeros((m, _LANES))
    al = np.zeros((m, _LANES))
    nb = width - width % _LANES
    if nb:
        vals = matrix[:, :nb].reshape(m, nb // _LANES, _LANES)
        absv = mags[:, :nb].reshape(m, nb // _LANES, _LANES)
        for b in range(nb // _LANES):
            sh, e = two_sum_array(sh, vals[:, b])
            sl = sl + e
            ah, e = two_sum_array(ah, absv[:, b])
            al = al + e
    for j in range(nb, width):  # the tail rides lane 0
        sh[:, 0], e = two_sum_array(sh[:, 0], matrix[:, j])
        sl[:, 0] = sl[:, 0] + e
        ah[:, 0], e = two_sum_array(ah[:, 0], mags[:, j])
        al[:, 0] = al[:, 0] + e
    out = np.empty((m, 6), dtype=np.float64)
    # max ignores NaN like the kernel's `av > mx ? av : mx` lanes; zero and
    # NaN magnitudes never win the min-nonzero
    out[:, 0] = np.fmax.reduce(mags, axis=1, initial=0.0)
    out[:, 1] = np.min(mags, axis=1, initial=math.inf, where=(mags > 0.0))
    s_hi, s_lo, a_hi, a_lo = sh[:, 0], sl[:, 0], ah[:, 0], al[:, 0]
    for k in range(1, _LANES):
        s_hi, e = two_sum_array(s_hi, sh[:, k])
        s_lo = s_lo + (e + sl[:, k])
        a_hi, e = two_sum_array(a_hi, ah[:, k])
        a_lo = a_lo + (e + al[:, k])
    out[:, 2], out[:, 3], out[:, 4], out[:, 5] = a_hi, a_lo, s_hi, s_lo
    return out


def _items_numpy(row_planes: np.ndarray, ranks: np.ndarray) -> np.ndarray:
    """Fallback item chain: ``StreamProfile.merge`` over each item's ranks,
    vectorised across the items that share a rank count (the kernel's
    per-item loop, lane for lane)."""
    first = np.zeros(ranks.size, dtype=np.int64)
    np.cumsum(ranks[:-1], out=first[1:])
    out = np.empty((ranks.size, 6), dtype=np.float64)
    for k in np.unique(ranks).tolist():
        items = np.flatnonzero(ranks == k)
        out[items] = _merge_ranks(row_planes[first[items, None] + np.arange(k)])
    return out


def _merge_ranks(ranks: np.ndarray) -> np.ndarray:
    """The rank-order merge chain of ``(n_items, n_ranks, 6)`` row planes."""
    n_items, n_ranks, _ = ranks.shape
    mx = np.zeros(n_items)
    mn = np.full(n_items, math.inf)
    ah = np.zeros(n_items)
    al = np.zeros(n_items)
    sh = np.zeros(n_items)
    sl = np.zeros(n_items)
    for r in range(n_ranks):
        row = ranks[:, r]
        mx = np.where(row[:, 0] > mx, row[:, 0], mx)
        mn = np.where(row[:, 1] < mn, row[:, 1], mn)
        ah, e = two_sum_array(ah, row[:, 2])
        al = al + (e + row[:, 3])
        sh, e = two_sum_array(sh, row[:, 4])
        sl = sl + (e + row[:, 5])
    return np.stack([mx, mn, ah, al, sh, sl], axis=1)
