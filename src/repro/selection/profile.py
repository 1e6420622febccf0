"""Runtime profiling of summand sets: cheap estimates of (n, k, dr).

The paper's closing argument: "Achieving reproducible numerical accuracy by
intelligent runtime selection of reduction algorithms depends on being able
to assess the mathematical properties of the floating-point values to be
reduced" — and those properties must be *estimable* at a cost far below the
reduction itself.

:class:`StreamProfile` is a mergeable statistics sketch: each rank folds its
chunk in with one read (max, min-nonzero magnitude, and compensated ``(hi,
lo)`` sums of ``|x|`` and ``x`` from the fused kernel in
:mod:`repro.selection._statskernel`, so the condition-number estimate stays
meaningful up to k ~ 1e30 instead of saturating at 1/(n·u)); sketches merge
associatively, so profiling costs one extra allreduce of six doubles —
exactly the "profile parameters of interest at runtime" tooling Sec. V.D
calls for.  :func:`profile_batch` sketches a whole stream, rank merges
included, in one kernel call over its tick block
(:mod:`repro.util.tickblock`), and :func:`set_profiles` turns the tick's
sketches into the profiles its one policy query (``select_many(profiles,
threshold, *, u, shape)``) reads; a single sketch's estimates are its
one-sketch case.

Accuracy: ``dr`` is exact (it only needs the extreme exponents).  Each
chunk's sums are eight lane-sequential Sum2 chains (Ogita–Rump–Oishi) of at
most ``m = ceil(w/8) + 7`` terms for a chunk of ``w`` values, so with unit
roundoff ``u`` and ``γ_m = m·u/(1 - m·u)`` the compensated chunk sum obeys
``|ŝ - s| <= u·|s| + γ_m²·Σ|x|`` — about ``(w/8·u)²·Σ|x|`` — and the rank
merges add the same form with ``m`` the rank count.  The relative error of
``k̂ = Σ|x| / |Σx|`` is therefore about ``u + (w/8·u)²·k``: under 1e-6 for
``k <= 1e15`` on single chunks of up to 2**20 values, far tighter than the
decade granularity selection needs (tests pin this).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.fp.eft import two_sum
from repro.fp.properties import exponent
from repro.metrics.properties import SetProfile
from repro.obs import get_registry
from repro.selection._statskernel import sketch
from repro.util.tickblock import TickBlock

__all__ = [
    "StreamProfile", "dynamic_range", "profile_batch", "profile_chunk",
    "profile_stream", "set_profiles",
]

_OBS = get_registry()


@dataclass
class StreamProfile:
    """Mergeable one-pass sketch of a (distributed) summand set."""

    n: int = 0
    max_abs: float = 0.0
    min_abs_nonzero: float = math.inf
    abs_sum_hi: float = 0.0
    abs_sum_lo: float = 0.0
    sum_hi: float = 0.0
    sum_lo: float = 0.0

    # -- accumulation ----------------------------------------------------------
    def update(self, chunk: np.ndarray) -> None:
        """Fold a chunk in: its one-read kernel row, merged into the sketch."""
        block = TickBlock.of([[chunk]])
        rows, _ = sketch(block, rows=True, items=False)
        self.merge(StreamProfile(block.rows[0].size, *rows[0].tolist()))

    def merge(self, other: "StreamProfile") -> None:
        """Associative sketch merge (the allreduce combine)."""
        self.n += other.n
        self.max_abs = max(self.max_abs, other.max_abs)
        self.min_abs_nonzero = min(self.min_abs_nonzero, other.min_abs_nonzero)
        self.abs_sum_hi, err = two_sum(self.abs_sum_hi, other.abs_sum_hi)
        self.abs_sum_lo = self.abs_sum_lo + (err + other.abs_sum_lo)
        self.sum_hi, err = two_sum(self.sum_hi, other.sum_hi)
        self.sum_lo = self.sum_lo + (err + other.sum_lo)

    # -- estimates ----------------------------------------------------------------
    def condition_estimate(self) -> float:
        """k̂ = Σ|x| / |Σx| from the sketch (inf when the sum vanishes)."""
        return self.as_set_profile().condition

    def dynamic_range_estimate(self) -> int:
        """Exact dr: exponent span of the extreme magnitudes."""
        return dynamic_range(self.max_abs, self.min_abs_nonzero)

    def as_set_profile(self) -> SetProfile:
        """This sketch's profile: the one-sketch case of :func:`set_profiles`."""
        return set_profiles([self])[0]


def set_profiles(sketches: "Sequence[StreamProfile]") -> "list[SetProfile]":
    """A tick's profiles, one per sketch: the one definition of k̂ = Σ|x| /
    |Σx| over the compensated sums (1 for empty and all-zero items, inf
    where the sum vanishes or Σ|x| overflows), with the exact dr."""
    profiles = []
    for s in sketches:
        abs_sum = s.abs_sum_hi + s.abs_sum_lo
        sum_mag = abs(s.sum_hi + s.sum_lo)
        if math.isinf(s.abs_sum_hi):  # Σ|x| overflowed: its lo term is NaN or inf
            abs_sum = k = math.inf
        elif s.n == 0 or abs_sum == 0.0:  # repro: allow[FP001] -- empty and all-zero items
            k = 1.0
        elif sum_mag == 0.0:  # repro: allow[FP001] -- vanished sum => infinite condition
            k = math.inf
        else:
            k = abs_sum / sum_mag
        dr = dynamic_range(s.max_abs, s.min_abs_nonzero)
        profiles.append(SetProfile(s.n, k, dr, s.max_abs, abs_sum))
    return profiles


def dynamic_range(max_abs: float, min_abs_nonzero: float) -> int:
    """Exact dr: the exponent span of the extreme magnitudes, 0 for empty
    and all-zero sets (the sketch's and the bound probe's dr)."""
    if not math.isfinite(min_abs_nonzero) or max_abs == 0.0:  # repro: allow[FP001] -- all-zero input guard
        return 0
    return exponent(max_abs) - exponent(min_abs_nonzero)


def profile_chunk(chunk: np.ndarray) -> StreamProfile:
    """Sketch one rank's chunk."""
    p = StreamProfile()
    p.update(chunk)
    return p


def profile_stream(chunks: "list[np.ndarray]") -> StreamProfile:
    """Sketch a distributed set: every chunk's row merged in rank order (the
    allreduce), in one kernel call — bitwise-equal to ``update`` per chunk."""
    block = TickBlock.of([chunks])
    _, items = sketch(block, rows=False, items=True)
    return StreamProfile(block.rows[0].size, *items[0].tolist())


def profile_batch(block) -> "list[StreamProfile]":
    """Sketch a whole stream of distributed sets in one kernel call.

    ``block`` is a :class:`repro.util.tickblock.TickBlock`, or a stream of
    per-rank chunk lists to build one from.  One kernel call sketches every
    chunk and runs every item's rank-merge chain, ragged widths and rank
    counts included, so each returned sketch is bitwise-equal to
    ``AdaptiveReducer.profile`` on the same item.
    """
    block = TickBlock.of(block)
    if not len(block):
        return []
    _, items = sketch(block, rows=False, items=True)
    if _OBS.enabled:
        _OBS.counter("repro_profile_batch_total", path="batched").inc()
        _OBS.counter("repro_profile_items_total", path="batched").inc(len(block))
    return [
        StreamProfile(row.size, *planes)
        for row, planes in zip(block.rows, items.tolist())
    ]
