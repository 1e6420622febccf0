"""The tick block: one call's operands behind one pointer table.

Every kernel of the collective engines reads its operands through a
:class:`TickBlock` -- one per ``reduce_many`` tick or ``reduce_batch``
stream, a one-item block for a single collective: the compensated sketch,
the fused ST/K/CP rank-tree reduce, the rank-local folds and the PR fold.
Per chunk the block holds a ``uintp`` data pointer and an ``int64``
length.  Per item it holds the rank count, the input dtype's unit
roundoff and one contiguous float64 *row* with the item's chunks back to
back.  A reduce group is
:meth:`TickBlock.take` of an index array: the table is gathered, the
operands stay where they are.

Two constructors fill the table, both through :class:`TickLayout`, one walk
over the stream that sizes it without touching operand bytes:

* **zero copy** -- an item that is a :class:`ScatteredRow` of one aligned,
  C-contiguous float64 row (what :meth:`repro.mpi.comm.SimComm.scatter_array`
  and the serving daemon's frame scatter return) is read where it lies: one
  address lookup per item plus the cached split offsets.
* **one copy** -- every other item is copied once: plain lists, fp16/fp32
  rows, foreign sequences, unaligned data.
  :meth:`TickLayout.block` copies them into the block's own buffer;
  :meth:`TickLayout.copy_into` copies every item into the parallel path's
  shared input arena, where each shard's block is :meth:`TickBlock.over`
  the arena's operands.

Bytes copied are counted on ``repro_tick_copied_bytes_total{reason}``:
``pack`` for the block's own buffer, ``arena`` for the input arena.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import lru_cache
from operator import attrgetter

import numpy as np

from repro.fp.properties import unit_roundoff_of
from repro.obs import get_registry
from repro.util.chunking import split_indices

__all__ = ["ScatteredRow", "TickBlock", "TickLayout"]

_OBS = get_registry()

_F8 = np.dtype(np.float64)
_DTYPE = attrgetter("dtype")
_SIZE = attrgetter("size")


@lru_cache(maxsize=1024)
def _split(n: int, parts: int) -> tuple:
    """``(slices, lengths)`` of the block scatter of ``n`` values over
    ``parts`` ranks; ``lengths`` is a read-only int64 array."""
    slices = tuple(split_indices(n, parts))
    lens = np.fromiter((s.stop - s.start for s in slices), dtype=np.int64, count=parts)
    lens.flags.writeable = False
    return slices, lens


class ScatteredRow(Sequence):
    """The block scatter of one 1-D row over ``parts`` ranks, read-only.

    To every caller this is the sequence of per-rank chunk views
    ``row[s]`` (``len()`` is the rank count; ``self[r]`` makes rank ``r``'s
    view on access); :class:`TickLayout` reads the whole row through one
    pointer instead of one per chunk.  Writes *into* the views change the
    row as well and need nothing.
    """

    __slots__ = ("row", "parts")

    def __init__(self, row: np.ndarray, parts: int) -> None:
        if row.ndim != 1:
            raise ValueError("a scattered row must be 1-D")
        _split(row.size, parts)  # validates ``parts``, warms the cache
        self.row = row
        self.parts = parts

    def __len__(self) -> int:
        return self.parts

    def __getitem__(self, r):
        slices = _split(self.row.size, self.parts)[0]
        if isinstance(r, slice):
            return [self.row[s] for s in slices[r]]
        return self.row[slices[r]]

    def __iter__(self):
        return map(self.row.__getitem__, _split(self.row.size, self.parts)[0])


def _bounds(lengths: np.ndarray) -> np.ndarray:
    """Start offsets of runs of ``lengths`` laid back to back, then the end."""
    out = np.zeros(lengths.size + 1, dtype=np.int64)
    np.cumsum(lengths, out=out[1:])
    return out


def _copy_into(src, seg: np.ndarray) -> None:
    """The one copy: a row (cast to float64 if needed) or a chunk list,
    back to back into ``seg``."""
    if isinstance(src, np.ndarray):
        np.copyto(seg, src, casting="unsafe")
        return
    try:
        np.concatenate(src, out=seg)
    except (TypeError, ValueError):
        # dtypes the same-kind cast refuses, multi-d or 0-d chunks
        np.concatenate([np.asarray(c, dtype=np.float64).ravel() for c in src], out=seg)


class TickLayout:
    """One walk over a stream of items: everything a :class:`TickBlock`
    needs except operand bytes.

    ``batches[i]`` is one reduction's per-rank chunk sequence.  The walk
    records each item's rank count, chunk offsets and lengths, unit
    roundoff (from its input dtype) and whether it can be read in place.
    """

    __slots__ = ("sources", "direct", "sizes", "ranks", "offs", "lens", "us")

    def __init__(self, batches) -> None:
        sources, direct, sizes, ranks, lens, us = [], [], [], [], [], []
        for item in batches:
            if type(item) is ScatteredRow:
                row = item.row
                n_each = _split(row.size, item.parts)[1]
                sources.append(row)
                direct.append(
                    row.dtype == _F8 and row.flags.c_contiguous and row.flags.aligned
                )
                sizes.append(row.size)
                us.append(unit_roundoff_of((row.dtype,)))
            else:
                item = list(item)
                try:
                    dtypes = set(map(_DTYPE, item))
                except AttributeError:  # lists, scalars: normalise once
                    dtypes = {getattr(c, "dtype", None) for c in item}
                    item = [np.asarray(c, dtype=np.float64).ravel() for c in item]
                n_each = np.fromiter(map(_SIZE, item), dtype=np.int64, count=len(item))
                sources.append(item)
                direct.append(False)
                sizes.append(int(n_each.sum()))  # repro: allow[FP002] -- integer element counts, not an FP reduction
                us.append(unit_roundoff_of(dtypes))
            ranks.append(n_each.size)
            lens.append(n_each)
        self.sources = sources
        self.direct = direct
        self.sizes = sizes
        self.ranks = np.array(ranks, dtype=np.int64)
        self.lens = np.concatenate(lens) if lens else np.zeros(0, dtype=np.int64)
        # each chunk's offset into its item's row
        value_at = _bounds(self.lens)
        self.offs = value_at[:-1] - np.repeat(
            value_at[_bounds(self.ranks)[:-1]], self.ranks
        )
        self.us = us

    def __len__(self) -> int:
        return len(self.sources)

    @property
    def n_values(self) -> int:
        """Operand count of the whole stream (float64 values it packs to)."""
        return sum(self.sizes)  # repro: allow[FP002] -- integer element counts, not an FP reduction

    def block(self) -> "TickBlock":
        """The zero-copy block: items that can be read in place are, every
        other item is copied once into the block's own buffer."""
        n_copy = sum(n for n, d in zip(self.sizes, self.direct) if not d)  # repro: allow[FP002] -- integer element counts, not an FP reduction
        flat = np.empty(n_copy, dtype=np.float64)
        base = flat.ctypes.data if n_copy else 0
        rows, addrs = [], []
        pos = 0
        for src, n, direct in zip(self.sources, self.sizes, self.direct):
            if direct:
                rows.append(src)
                addrs.append(src.ctypes.data)
                continue
            seg = flat[pos : pos + n]
            if n:
                _copy_into(src, seg)
            rows.append(seg)
            addrs.append(base + 8 * pos)
            pos += n
        _count_copy("pack", 8 * n_copy)
        ptrs = np.repeat(np.array(addrs, dtype=np.uint64), self.ranks)
        ptrs += (8 * self.offs).astype(np.uint64)
        return TickBlock(rows, self.ranks, self.offs, self.lens, self.us, ptrs)

    def copy_into(self, flat: np.ndarray) -> None:
        """Copy every item's operands once, as float64, back to back into
        ``flat`` (the parallel path's input-arena region)."""
        pos = 0
        for src, n in zip(self.sources, self.sizes):
            if n:
                _copy_into(src, flat[pos : pos + n])
            pos += n
        _count_copy("arena", 8 * pos)


def _count_copy(reason: str, nbytes: int) -> None:
    if nbytes and _OBS.enabled:
        _OBS.counter("repro_tick_copied_bytes_total", reason=reason).inc(nbytes)


class TickBlock:
    """One tick's operands behind one pointer table (see the module docs).

    ``rows[i]`` is item ``i``'s contiguous float64 row, ``ranks[i]`` its
    chunk count and ``us[i]`` its unit roundoff.  Chunks are item-major:
    chunk ``c`` starts ``offs[c]`` values into its item's row, holds
    ``lens[c]`` values and is read at address ``ptrs[c]``.  The rows keep
    the operand memory alive for as long as the block lives.
    """

    __slots__ = ("rows", "ranks", "offs", "lens", "us", "ptrs")

    def __init__(self, rows, ranks, offs, lens, us, ptrs) -> None:
        self.rows = rows
        self.ranks = ranks
        self.offs = offs
        self.lens = lens
        self.us = us
        self.ptrs = ptrs.view(np.uintp)

    @classmethod
    def of(cls, batches) -> "TickBlock":
        """The block of a stream of chunk sequences (zero copy where it can)."""
        return batches if isinstance(batches, TickBlock) else TickLayout(batches).block()

    @classmethod
    def over(cls, flat: np.ndarray, ranks: np.ndarray, lens: np.ndarray, us) -> "TickBlock":
        """Views over ``flat``, a contiguous float64 buffer holding every
        item's chunks back to back."""
        value_at = _bounds(lens)
        item_at = value_at[_bounds(ranks)]
        bounds = item_at.tolist()
        rows = [flat[a:b] for a, b in zip(bounds[:-1], bounds[1:])]
        offs = value_at[:-1] - np.repeat(item_at[:-1], ranks)
        ptrs = value_at[:-1].astype(np.uint64) * np.uint64(8) + np.uint64(flat.ctypes.data)
        return cls(rows, ranks, offs, lens, list(us), ptrs)

    def __len__(self) -> int:
        return len(self.rows)

    @property
    def max_len(self) -> int:
        """Longest chunk (bounds kernel scratch)."""
        return int(self.lens.max()) if self.lens.size else 0

    def take(self, idx) -> "TickBlock":
        """The sub-block of items ``idx``: gathers the table, not the
        operands."""
        idx = np.asarray(idx, dtype=np.intp)
        if idx.size == len(self) and (idx == np.arange(len(self))).all():
            return self
        ranks = self.ranks[idx]
        starts = _bounds(self.ranks)[idx]
        chunks = np.repeat(starts - _bounds(ranks)[:-1], ranks)
        chunks += np.arange(chunks.size)
        return TickBlock(
            [self.rows[i] for i in idx.tolist()],
            ranks,
            self.offs[chunks],
            self.lens[chunks],
            [self.us[i] for i in idx.tolist()],
            self.ptrs[chunks],
        )

    def chunks(self) -> list:
        """Every chunk as a 1-D view, item-major (the NumPy fallbacks)."""
        starts = self.offs.tolist()
        ends = (self.offs + self.lens).tolist()
        out = []
        c = 0
        for row, k in zip(self.rows, self.ranks.tolist()):
            out.extend(row[a:b] for a, b in zip(starts[c : c + k], ends[c : c + k]))
            c += k
        return out
