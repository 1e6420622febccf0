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
calls for.  :func:`profile_batch` sketches a whole uniform-width stream,
rank merges included, in one kernel call.

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

import numpy as np

from repro.fp.eft import two_sum
from repro.fp.properties import exponent
from repro.metrics.properties import SetProfile
from repro.obs import get_registry
from repro.selection._statskernel import sketch
from repro.trees._ckernels import chunk_sizes

__all__ = ["StreamProfile", "profile_chunk", "profile_stream", "profile_batch"]

_OBS = get_registry()


def _record_profile_path(path: str, n_items: int) -> None:
    """Count which profiling path a stream took (batched sweep vs ragged
    per-item fallback) and how many items rode it."""
    if _OBS.enabled:
        _OBS.counter("repro_profile_batch_total", path=path).inc()
        _OBS.counter("repro_profile_items_total", path=path).inc(n_items)


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
        chunks, sizes = chunk_sizes([chunk])
        rows, _ = sketch(chunks, sizes, 1, rows=True, items=False)
        self.merge(StreamProfile(int(sizes[0]), *rows[0].tolist()))

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
    @property
    def abs_sum(self) -> float:
        return self.abs_sum_hi + self.abs_sum_lo

    @property
    def approx_sum(self) -> float:
        return self.sum_hi + self.sum_lo

    def condition_estimate(self) -> float:
        """k̂ = Σ|x| / |Σx| from the sketch (inf when the sum vanishes)."""
        if self.n == 0:
            return 1.0
        s = abs(self.approx_sum)
        t = self.abs_sum
        if t == 0.0:  # repro: allow[FP001] -- all-zero input
            return 1.0
        if s == 0.0:  # repro: allow[FP001] -- vanished sum => infinite condition
            return math.inf
        return t / s

    def dynamic_range_estimate(self) -> int:
        """Exact dr: exponent span of the extreme magnitudes."""
        if not math.isfinite(self.min_abs_nonzero) or self.max_abs == 0.0:  # repro: allow[FP001] -- all-zero input guard
            return 0
        return exponent(self.max_abs) - exponent(self.min_abs_nonzero)

    def as_set_profile(self) -> SetProfile:
        return SetProfile(
            n=self.n,
            condition=self.condition_estimate(),
            dynamic_range=self.dynamic_range_estimate(),
            max_abs=self.max_abs,
            abs_sum=self.abs_sum,
        )


def profile_chunk(chunk: np.ndarray) -> StreamProfile:
    """Sketch one rank's chunk."""
    p = StreamProfile()
    p.update(chunk)
    return p


def profile_stream(chunks: "list[np.ndarray]") -> StreamProfile:
    """Sketch a distributed set: every chunk's row merged in rank order (the
    allreduce), in one kernel call — bitwise-equal to ``update`` per chunk."""
    if not len(chunks):
        return StreamProfile()
    chunks, sizes = chunk_sizes(list(chunks))
    _, items = sketch(chunks, sizes, len(chunks), rows=False, items=True)
    return StreamProfile(int(sizes.sum()), *items[0].tolist())  # repro: allow[FP002] -- integer element counts, not an FP reduction


def profile_batch(batches) -> "list[StreamProfile] | None":
    """Sketch a whole stream of same-shape distributed sets in bulk.

    ``batches[i]`` is one reduction's per-rank chunk list.  When every chunk
    across the stream has the same length (the serving-path common case)
    one kernel call sketches every chunk and runs every item's rank-merge
    chain, so each returned sketch is bitwise-equal to
    ``AdaptiveReducer.profile`` on the same item.  Returns ``None`` for
    ragged streams (callers fall back to the per-item loop).
    """
    n_items = len(batches)
    if n_items == 0:
        return []
    n_ranks = len(batches[0])
    if any(len(chunks) != n_ranks for chunks in batches):
        _record_profile_path("ragged_fallback", n_items)
        return None
    if n_ranks == 0:
        _record_profile_path("batched", n_items)
        return [StreamProfile() for _ in range(n_items)]
    chunks, sizes = chunk_sizes([c for chunks in batches for c in chunks])
    width = int(sizes[0])
    if not bool((sizes == width).all()):
        _record_profile_path("ragged_fallback", n_items)
        return None
    _, items = sketch(chunks, sizes, n_ranks, rows=False, items=True)
    n_total = n_ranks * width
    _record_profile_path("batched", n_items)
    return [StreamProfile(n_total, *row) for row in items.tolist()]
