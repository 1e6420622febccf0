"""Analytic certification probe: which items a provable bound settles.

This module is not a selection route: :class:`repro.selection.selector.AdaptiveReducer`
always profiles and queries its policy.  It answers a separate question
about a stream of reductions: for which items does a *provable*
Hallman–Ipsen error bound (:func:`repro.metrics.bounds.summation_error_bound`,
deterministic or probabilistic at a requested confidence) already certify
the algorithm the profiling policy picks?  :meth:`BoundTier.decide_stream`
answers from cheap one-pass statistics read through the same fused sketch
kernel as profiling (:mod:`repro.selection._statskernel`), so the probe can
be measured next to the served decisions.

Two properties make a resolved item trustworthy:

1. **Certified statistics.**  The cheap pass computes ``Σ|x|`` and ``Σx``
   with plain binary64 summation (eight lanes within chunks, pairwise
   across ranks), whose own error is bounded by the same Hallman–Ipsen
   machinery.  That turns the noisy estimates into a *certified
   interval* ``[k_lo, k_hi]`` for the true condition number — every bound
   below is evaluated at the conservative end, so a certification is a
   theorem about the data, not a guess.

2. **Decision agreement.**  A candidate is certified only when
   (a) its provable bound at ``k_hi`` meets the threshold AND (b) the
   profiling policy's own variability estimate at ``k_hi`` would accept it;
   a candidate is skipped only when the policy's estimate at ``k_lo`` would
   provably reject it.  Anything in between is *inconclusive* (``None``).
   Consequently a resolved item always carries the same algorithm code the
   profiling route chooses (tests pin this).

The statistics pass is precision-aware: each item carries the unit roundoff
of its input dtype (:func:`item_unit_roundoff`), so fp32/fp16 inputs are
certified against their own roundoff instead of being silently upcast
inside the decision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.fp.properties import UNIT_ROUNDOFF, exponent, unit_roundoff
from repro.metrics.bounds import summation_error_bound
from repro.metrics.properties import SetProfile
from repro.selection._statskernel import sketch
from repro.selection.policy import SelectionDecision
from repro.trees._ckernels import chunk_sizes

__all__ = [
    "BoundStats",
    "BoundTier",
    "bound_stats_item",
    "bound_stats_stream",
    "item_unit_roundoff",
    "unit_roundoff_of",
]


_ROUNDOFF_BY_DTYPE: "dict" = {}


def item_unit_roundoff(chunks) -> float:
    """Unit roundoff of one reduction's input: the promoted dtype of its
    chunks (fp16 -> 2**-11, fp32 -> 2**-24, fp64 and non-arrays -> 2**-53).

    This is the "no silent upcast in the selection decision" hook: the
    reduction *executes* in binary64 either way, but low-precision scenario
    inputs are selected for at their own roundoff.
    """
    return unit_roundoff_of({getattr(c, "dtype", None) for c in chunks})


def unit_roundoff_of(dtypes: set) -> float:
    """:func:`item_unit_roundoff` from the set of an item's chunk dtypes
    (``None`` marks a non-array chunk)."""
    if None in dtypes or not dtypes:
        return UNIT_ROUNDOFF
    if len(dtypes) == 1:
        dt = next(iter(dtypes))
    else:
        dt = np.result_type(*dtypes)
    u = _ROUNDOFF_BY_DTYPE.get(dt)
    if u is None:
        u = unit_roundoff(dt)
        _ROUNDOFF_BY_DTYPE[dt] = u
    return u


@dataclass(frozen=True)
class BoundStats:
    """One cheap pass over one reduction's operands: everything the probe
    needs.

    ``abs_sum`` and ``approx_sum`` are plain binary64 summations (the sketch
    kernel's ``hi`` planes — its eight-lane order within chunks — merged
    pairwise across ranks: a fixed order of height ``<= n-1``); their own
    rounding error is certified by the probe before use.  ``u`` is the input
    dtype's unit roundoff.
    """

    n: int
    max_abs: float
    min_abs_nonzero: float
    abs_sum: float
    approx_sum: float
    u: float

    def dynamic_range_estimate(self) -> int:
        """Exact dr from the extreme magnitudes (0 for all-zero sets)."""
        if not math.isfinite(self.min_abs_nonzero) or self.max_abs == 0.0:  # repro: allow[FP001] -- all-zero input guard
            return 0
        return exponent(self.max_abs) - exponent(self.min_abs_nonzero)


def bound_stats_item(chunks, u: float) -> BoundStats:
    """Cheap one-pass statistics of one reduction's chunk list: the
    one-item case of :func:`bound_stats_stream`."""
    return bound_stats_stream([chunks], [u])[0]


def bound_stats_stream(batches, us: Sequence[float]) -> "list[BoundStats]":
    """Cheap statistics for a whole stream in one kernel call.

    Each chunk is one row of the compensated sketch kernel
    (:mod:`repro.selection._statskernel`, bitwise-equal with or without a
    compiler).  The probe takes the rows' ``hi`` planes — the plain
    lane-parallel sums — and merges each item's ranks with one pairwise
    :func:`np.sum` over a contiguous matrix row, which NumPy computes
    exactly as the 1-D sum of that row, so an item's statistics do not
    depend on the stream around it.  Streams with a varying rank count
    fall back to the bitwise-identical per-item loop.
    """
    n_items = len(batches)
    if n_items == 0:
        return []
    n_ranks = len(batches[0])
    if any(len(chunks) != n_ranks for chunks in batches):
        return [bound_stats_item(chunks, u) for chunks, u in zip(batches, us)]
    if n_ranks == 0:
        return [BoundStats(0, 0.0, math.inf, 0.0, 0.0, u) for u in us]
    chunks, sizes = chunk_sizes([c for chunks in batches for c in chunks])
    rows, _ = sketch(chunks, sizes, n_ranks, rows=True, items=False)
    planes = rows.T.copy()
    shape = (n_items, n_ranks)
    max_tot = planes[0].reshape(shape).max(axis=1)
    min_tot = planes[1].reshape(shape).min(axis=1)
    abs_tot = np.sum(planes[2].reshape(shape), axis=1)  # repro: allow[FP002] -- pairwise merge of the certified statistics pass
    sum_tot = np.sum(planes[4].reshape(shape), axis=1)  # repro: allow[FP002] -- pairwise merge of the certified statistics pass
    n_tot = sizes.reshape(shape).sum(axis=1).tolist()  # repro: allow[FP002] -- integer element counts, not an FP reduction
    return [
        BoundStats(
            n=n_tot[i],
            max_abs=float(max_tot[i]),
            min_abs_nonzero=float(min_tot[i]),
            abs_sum=float(abs_tot[i]),
            approx_sum=float(sum_tot[i]),
            u=us[i],
        )
        for i in range(n_items)
    ]


@dataclass(frozen=True)
class BoundTier:
    """The analytic certification probe.

    ``confidence`` parameterises the probabilistic (martingale) bounds:
    ``1.0`` (default) certifies only against the deterministic worst case;
    ``0.999999`` allows the ``sqrt(n)``-scaled probabilistic forms, which
    is what certifies large well-conditioned reductions at serving-grade
    thresholds.  ``policy`` must walk ``candidates`` cheapest-first with a
    vectorised ``model`` and a ``cost_model``, as :class:`AnalyticPolicy`
    does.
    """

    confidence: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.confidence <= 1.0:
            raise ValueError("confidence must be in (0, 1]")

    def decide_stream(
        self,
        stats: Sequence[BoundStats],
        threshold: float,
        policy,
    ) -> "list[SelectionDecision | None]":
        """Resolve what can be *proved*; return ``None`` where only
        profiling decides.

        Walks the policy's candidates cheapest-first with three vectorised
        verdicts per candidate: **certify** (provable bound and the
        policy's own estimate both meet the threshold at the conservative
        ``k_hi``), **reject** (the policy's estimate provably misses the
        threshold even at ``k_lo`` — keep walking), or **inconclusive**
        (``None`` for this item).  Items whose every
        candidate is provably rejected resolve to the policy's documented
        most-robust fall-through.
        """
        n_items = len(stats)
        if n_items == 0:
            return []
        n = np.array([s.n for s in stats], dtype=np.float64)
        abs_sum = np.array([s.abs_sum for s in stats], dtype=np.float64)
        sum_mag = np.abs(np.array([s.approx_sum for s in stats], dtype=np.float64))
        u = np.array([s.u for s in stats], dtype=np.float64)

        # certify the cheap statistics themselves: the stats pass ran in
        # binary64 with tree height <= n-1, so its own error is bounded by
        # the Hallman–Ipsen deterministic form at u = 2**-53
        eps = np.expm1(np.maximum(n - 1.0, 0.0) * math.log1p(UNIT_ROUNDOFF))
        with np.errstate(divide="ignore", invalid="ignore"):
            abs_hi = np.where(eps < 1.0, abs_sum / (1.0 - eps), math.inf)
            stat_err = eps * abs_hi
            denom = sum_mag - stat_err
            k_hi = np.where(denom > 0.0, abs_hi / denom, math.inf)
            k_lo = np.where(
                sum_mag + stat_err > 0.0,
                np.maximum((abs_sum / (1.0 + eps)) / (sum_mag + stat_err), 1.0),
                1.0,
            )

        shape = getattr(policy, "shape", "balanced")
        model = policy.model
        candidates = list(policy.candidates)
        resolved = np.full(n_items, -1, dtype=np.int64)
        predicted = np.zeros(n_items, dtype=np.float64)
        active = np.ones(n_items, dtype=bool)
        bounds_by_code: "dict[str, np.ndarray]" = {}
        for ci, code in enumerate(candidates):
            if not np.any(active):
                break
            try:
                bound_hi = np.asarray(
                    summation_error_bound(
                        code, n, k_hi, 1.0, u, confidence=self.confidence
                    )
                )
            except KeyError:
                bound_hi = np.full(n_items, math.inf)
            bounds_by_code[code] = bound_hi
            est_hi = model.predict_std_array(code, n, k_hi, shape=shape, u=u)
            est_lo = model.predict_std_array(code, n, k_lo, shape=shape, u=u)
            certify = active & (bound_hi <= threshold) & (est_hi <= threshold)
            resolved[certify] = ci
            predicted[certify] = bound_hi[certify]
            reject = active & ~certify & (est_lo > threshold)
            active &= reject
        # every candidate provably rejected: the policy's documented
        # fall-through picks the most robust candidate regardless
        if np.any(active):
            last = len(candidates) - 1
            last_bound = bounds_by_code[candidates[last]]
            resolved[active] = last
            predicted[active] = last_bound[active]

        decisions: "list[SelectionDecision | None]" = [None] * n_items
        relative_costs = policy.cost_model.relative
        for i in np.nonzero(resolved >= 0)[0]:
            ci = int(resolved[i])
            code = candidates[ci]
            s = stats[i]
            profile = SetProfile(
                n=s.n,
                condition=float(k_hi[i]),
                dynamic_range=s.dynamic_range_estimate(),
                max_abs=s.max_abs,
                abs_sum=s.abs_sum,
            )
            decisions[i] = SelectionDecision(
                code=code,
                threshold=threshold,
                predicted_std=float(predicted[i]),
                profile=profile,
                candidate_predictions={
                    c: float(bounds_by_code[c][i]) for c in candidates[: ci + 1]
                },
                relative_cost=relative_costs.get(code, math.nan),
                tier="bound",
                u=s.u,
            )
        return decisions
