"""Allreduce strategies: recursive doubling vs ring reduce-scatter.

Real MPI libraries pick among several allreduce algorithms by message size
and communicator shape — and the *strategy choice alone* changes the
combination order, hence the bits (one of the system-level nondeterminism
sources Sec. II surveys: reductions follow the network, not the data).  Two
classic strategies are implemented over the accumulator interface:

* :func:`allreduce_recursive_doubling` — the butterfly: at stage ``s`` rank
  ``r`` exchanges partials with ``r XOR 2**s`` and merges the received
  partial into its own.  Every rank applies the merges in *its own* order,
  so with an asymmetric merge (Kahan's is) different ranks can end the
  collective holding **different values** — the classic consistency hazard
  this module makes observable.
* :func:`allreduce_ring` — reduce-scatter + allgather: each data segment
  travels the ring starting from a different rank, so segments are reduced
  in rotated orders; all ranks agree bitwise (the allgather shares final
  segments) but the value differs from the butterfly's.

With the prerounded operator both strategies, all starting rotations, and
every rank agree bitwise — the selector's guarantee extends across
collective-algorithm choice, which the tests assert.

Non-power-of-two communicator sizes use the standard pre-fold: the trailing
ranks fold into their partners first, the power-of-two core runs the
butterfly, and results are re-broadcast.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.mpi.ops import ReductionOp
from repro.summation.base import Accumulator, SumContext

__all__ = ["allreduce_recursive_doubling", "allreduce_ring"]


def _locals(chunks: Sequence[np.ndarray], op: ReductionOp) -> list[Accumulator]:
    op = _contextualize(op, chunks)
    return [op.local(np.asarray(c, dtype=np.float64)) for c in chunks], op


def _contextualize(op: ReductionOp, chunks: Sequence[np.ndarray]) -> ReductionOp:
    if not op.algorithm.needs_context or op.context is not None:
        return op
    return ReductionOp(op.algorithm, SumContext.for_chunks(chunks))


def allreduce_recursive_doubling(
    chunks: Sequence[np.ndarray], op: ReductionOp
) -> list[float]:
    """Butterfly allreduce; returns each rank's final value.

    Faithful to the message pattern: at every stage each rank merges the
    *received* partial into its own state, so merge-order asymmetries are
    preserved per rank.
    """
    if not chunks:
        raise ValueError("need at least one rank")
    accs, op = _locals(chunks, op)
    p = len(accs)
    # pre-fold the non-power-of-two tail into the core
    core = 1 << (p.bit_length() - 1)
    if core != p:
        for r in range(core, p):
            partner = r - core
            accs[partner].merge(accs[r])
    stride = 1
    while stride < core:
        snapshot = [a.copy() for a in accs[:core]]
        for r in range(core):
            partner = r ^ stride
            if partner < core:
                accs[r].merge(snapshot[partner])
        stride *= 2
    results = [accs[r % core].result() for r in range(core)]
    # tail ranks receive from their fold partner (as real implementations do)
    return [results[r] if r < core else results[r - core] for r in range(p)]


def allreduce_ring(
    chunks: Sequence[np.ndarray], op: ReductionOp, *, segments: "int | None" = None
) -> list[float]:
    """Ring reduce-scatter + allgather; returns each rank's final value.

    Each rank's chunk is split into ``segments`` pieces (default: one per
    rank); segment ``j`` is reduced travelling the ring starting at rank
    ``(j + 1) % p``, so different segments see rotated combination orders.
    After the allgather every rank holds identical segment totals, which are
    folded left-to-right into the final value — bitwise identical on all
    ranks by construction.
    """
    if not chunks:
        raise ValueError("need at least one rank")
    p = len(chunks)
    segments = p if segments is None else int(segments)
    if segments < 1:
        raise ValueError("segments must be >= 1")
    op = _contextualize(op, chunks)
    # per-rank, per-segment local accumulators
    seg_accs: list[list[Accumulator]] = []
    for c in chunks:
        c = np.asarray(c, dtype=np.float64)
        parts = np.array_split(c, segments)
        seg_accs.append([op.local(part) for part in parts])
    # ring reduce-scatter: segment j accumulates in ring order starting at
    # rank (j + 1) % p and ending at rank j
    seg_totals: list[Accumulator] = []
    for j in range(segments):
        start = (j + 1) % p
        acc = seg_accs[start][j].copy()
        for step in range(1, p):
            r = (start + step) % p
            acc.merge(seg_accs[r][j])
        seg_totals.append(acc)
    # allgather + identical final fold on every rank
    final = seg_totals[0]
    for j in range(1, segments):
        final.merge(seg_totals[j])
    value = final.result()
    return [value] * p
