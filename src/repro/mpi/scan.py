"""Prefix reductions (``MPI_Scan``) with selectable summation algorithms.

Extension beyond the paper: reductions are not the only collective whose
floating-point result depends on evaluation structure — prefix sums
(``MPI_Scan``) have the same nonassociativity exposure, and are widely used
for particle binning, load balancing, and stream compaction.  This module
provides:

* :func:`scan` — inclusive prefix reduction over per-rank partials, using
  any registry algorithm's accumulators.  With a deterministic algorithm
  (PR) the whole prefix vector is bitwise reproducible regardless of how the
  scan is internally scheduled.
* :func:`exscan` — the exclusive variant (rank 0 receives the identity 0.0).

Scheduling: the sequential schedule is the semantic reference; the
Hillis-Steele (``log p`` step) schedule models what a real implementation
runs.  For non-deterministic algorithms the two schedules may disagree in
the last bits — exposed deliberately, and pinned by tests: under PR they are
bitwise identical.
"""

from __future__ import annotations

from typing import Literal, Optional, Sequence

import numpy as np

from repro.summation.base import SumContext
from repro.summation.registry import get_algorithm

__all__ = ["scan", "exscan"]

Schedule = Literal["sequential", "hillis-steele"]


def _local_values(
    chunks: Sequence[np.ndarray], code: str, context: Optional[SumContext]
) -> list:
    alg = get_algorithm(code)
    accs = []
    for chunk in chunks:
        acc = alg.make_accumulator(context if alg.needs_context else None)
        acc.add_array(np.asarray(chunk, dtype=np.float64))
        accs.append(acc)
    return accs


def scan(
    chunks: Sequence[np.ndarray],
    code: str = "PR",
    *,
    schedule: Schedule = "hillis-steele",
) -> np.ndarray:
    """Inclusive prefix reduction: out[r] = reduce(chunks[0..r]).

    ``chunks[r]`` is rank ``r``'s local data; the returned vector holds one
    double per rank, exactly as ``MPI_Scan`` would deliver.
    """
    if not chunks:
        raise ValueError("need at least one rank")
    alg = get_algorithm(code)
    context = SumContext.for_chunks(chunks) if alg.needs_context else None

    if schedule == "sequential":
        accs = _local_values(chunks, code, context)
        out = np.empty(len(chunks), dtype=np.float64)
        running = accs[0]
        out[0] = running.result()
        for r in range(1, len(chunks)):
            running.merge(accs[r])
            out[r] = running.result()
        return out

    if schedule == "hillis-steele":
        # log-step scan over accumulators; each step r receives the partial
        # from r - stride and merges it *in front* (order preserved by
        # merging the received left-partial into a copy that then absorbs
        # the local state).
        accs = _local_values(chunks, code, context)
        p = len(chunks)
        stride = 1
        while stride < p:
            new_accs = []
            for r in range(p):
                if r >= stride:
                    left = accs[r - stride].copy()
                    left.merge(accs[r])
                    new_accs.append(left)
                else:
                    new_accs.append(accs[r])
            accs = new_accs
            stride *= 2
        return np.array([a.result() for a in accs], dtype=np.float64)

    raise ValueError(f"unknown schedule {schedule!r}")


def exscan(
    chunks: Sequence[np.ndarray],
    code: str = "PR",
    *,
    schedule: Schedule = "hillis-steele",
) -> np.ndarray:
    """Exclusive prefix reduction: out[0] = 0, out[r] = reduce(chunks[0..r-1])."""
    if not chunks:
        raise ValueError("need at least one rank")
    inclusive = scan(chunks[:-1], code, schedule=schedule) if len(chunks) > 1 else np.array([])
    return np.concatenate(([0.0], inclusive))
