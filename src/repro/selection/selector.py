"""AdaptiveReducer: end-to-end intelligent runtime selection.

This is the system the paper argues for (Sec. V.D): "estimable quantities
such as condition number and dynamic range can guide runtime selection of a
reduction operator with the appropriate performance/reproducibility tradeoff
for the application at hand."

Every reduction — a single :meth:`AdaptiveReducer.reduce`, a batched or
sharded :meth:`AdaptiveReducer.reduce_many`, or a served request — takes
one route, and makes its decision once, in the calling process:

1. **Profile** — one sketch-kernel call over the stream's tick block
   sketches every rank's chunk and merges each item's ranks (an exactly
   associative allreduce).
2. **Select** — one policy query (``select_many``) picks, per item, the
   cheapest algorithm whose predicted variability meets the tolerance,
   at the unit roundoff of the item's input dtype (fp16/fp32/fp64), so
   low-precision inputs are never silently upcast inside the decision.
3. **Reduce** — same-code items run together through the simulated
   communicator (on the sharded route, workers reduce under the parent's
   codes); PR runs its exact batched path.

The returned :class:`AdaptiveResult` carries the decision record, so
applications can audit what was chosen and why.  The phase histograms
``repro_selector_{profile,select,reduce}_seconds`` hold per-item times on
every route: a batch observes its amortised per-item time once, weighted by
its item count, so each histogram's count equals the number of selections.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Protocol, Sequence

import numpy as np

from repro.metrics.properties import SetProfile
from repro.mpi.comm import ReduceResult, SimComm
from repro.mpi.ops import make_reduction_op
from repro.mpi.topology import tree_cost
from repro.obs import get_registry
from repro.selection.policy import AnalyticPolicy, SelectionDecision, _checked
from repro.selection.profile import (
    StreamProfile,
    profile_batch,
    profile_stream,
    set_profiles,
)
from repro.summation.registry import all_algorithms, get_algorithm
from repro.trees.tree import ReductionTree
from repro.util.pool import run_shards, shard_plan
from repro.util.tickblock import TickBlock, TickLayout
from repro.util.timing import Stopwatch

__all__ = ["Policy", "AdaptiveResult", "AdaptiveReducer", "NonFiniteOperandError"]

_OBS = get_registry()

class NonFiniteOperandError(ValueError):
    """Items ``items`` (stream indices) hold a NaN or inf operand; raised
    before any reduce, so a caller can fail those and reduce the rest."""

    def __init__(self, items: "Sequence[int]") -> None:
        self.items = tuple(items)
        super().__init__(
            f"items {list(self.items)} hold a non-finite operand (NaN or "
            "inf); adaptive reduction takes finite values only"
        )


class Policy(Protocol):
    """Anything that answers a tick's selection queries at once: one
    decision per profile, each at its item's unit roundoff ``u`` (a
    sequence; ``None``: binary64) under the tree-shape hint ``shape``
    (``None``: the policy's default).  A policy may ignore both."""

    def select_many(
        self, profiles: Sequence[SetProfile], threshold: float, *, u=None, shape=None
    ) -> "list[SelectionDecision]":
        ...  # pragma: no cover - protocol


@dataclass(frozen=True)
class AdaptiveResult:
    """Reduction value plus the audited decision that produced it."""

    value: float
    decision: SelectionDecision
    reduce_result: ReduceResult
    profile_seconds: float
    reduce_seconds: float


class AdaptiveReducer:
    """Profile -> select -> reduce over a simulated communicator."""

    def __init__(
        self,
        comm: SimComm,
        policy: "Policy | None" = None,
        *,
        threshold: float = 1e-13,
    ) -> None:
        self.comm = comm
        self.policy = policy if policy is not None else AnalyticPolicy()
        self.threshold = _checked(threshold)

    def profile(self, chunks: Sequence[np.ndarray]) -> StreamProfile:
        """Step 1: sketch + allreduce-merge."""
        return profile_stream(chunks)

    def reduce(
        self,
        chunks: Sequence[np.ndarray],
        *,
        threshold: "float | None" = None,
        tree: "ReductionTree | str" = "topology",
        nondeterministic: bool = False,
    ) -> AdaptiveResult:
        """Adaptively reduce distributed data to one double: the one-item
        case of :meth:`reduce_many` on its serial path.

        ``nondeterministic=True`` routes through the arrival-order reduce,
        modelling a production run whose tree the application cannot pin.
        Arrival-order trees have unknown (chain-heavy) shapes, so the
        selection profiles the tree-shape parameter conservatively, as the
        paper's list of profiled quantities (n, k, dr, tree shape)
        prescribes.
        """
        if not nondeterministic:
            return self.reduce_many([chunks], threshold=threshold, tree=tree, workers=1)[0]
        t = _checked(self.threshold if threshold is None else threshold)
        block = TickBlock.of([chunks])
        (decision,), profile_elapsed, select_elapsed = self._sketch_and_select(
            block, t, shape="unknown"
        )
        op = make_reduction_op(get_algorithm(decision.code))
        with Stopwatch() as sw_reduce:
            result = self.comm.reduce_nondeterministic(block, op)
        if _OBS.enabled:
            _observe([decision], profile_elapsed, select_elapsed, sw_reduce.elapsed)
        return AdaptiveResult(
            value=result.value,
            decision=decision,
            reduce_result=result,
            profile_seconds=profile_elapsed,
            reduce_seconds=sw_reduce.elapsed,
        )

    # -- batched serving path --------------------------------------------------
    def reduce_many(
        self,
        batches: Sequence[Sequence[np.ndarray]],
        *,
        threshold: "float | None" = None,
        tree: "ReductionTree | str" = "topology",
        workers: "int | None" = None,
    ) -> "list[AdaptiveResult]":
        """Adaptively reduce a stream of independent reductions in bulk: the
        serving path.

        The stream becomes one tick block (:mod:`repro.util.tickblock`:
        items scattered from one aligned float64 row are read in place,
        others are copied once), sketched in one kernel call
        (:func:`~repro.selection.profile.profile_batch`) and selected by one
        policy query.  Same-code items, PR included, run together through
        one :meth:`SimComm.reduce_batch` on the block's
        :meth:`~repro.util.tickblock.TickBlock.take` of the group, so
        dispatch is paid once per algorithm and no operand is re-packed.

        ``workers`` parallelises the reduce step only: the parent copies the
        stream into the shared input arena
        (:func:`repro.util.pool.run_shards`), sketches and selects there,
        and each persistent worker reduces a contiguous shard under the
        parent's codes, so results are bitwise-identical to the serial path
        and a NaN/inf operand raises :class:`NonFiniteOperandError` before
        any task is dispatched.  ``workers=None`` defers to
        ``REPRO_WORKERS``/cpu-count behind a bytes-and-items cutover (small
        batches never pay IPC); ``workers >= 2`` always parallelises;
        ``workers <= 1`` forces the serial path.

        ``profile_seconds``/``reduce_seconds`` are the amortised per-item
        costs (phase total / items; the sharded reduce total sums its
        shards' times).
        """
        t = _checked(self.threshold if threshold is None else threshold)
        if not batches:
            return []
        layout = TickLayout(batches)
        plan = shard_plan(len(layout), 8 * layout.n_values, workers)
        if plan[1] > 1:
            decisions, results, profile_s, select_s, reduce_s = (
                self._reduce_many_parallel(layout, t, tree, plan)
            )
        else:
            block = layout.block()
            decisions, profile_s, select_s = self._sketch_and_select(block, t)
            results, reduce_s = _grouped_reduce(
                self.comm, block, [d.code for d in decisions], tree
            )
        n_items = len(decisions)
        if _OBS.enabled:
            _observe(decisions, profile_s, select_s, reduce_s)
        profile_each = profile_s / n_items
        reduce_each = reduce_s / n_items
        return [
            AdaptiveResult(
                value=rr.value,
                decision=decision,
                reduce_result=rr,
                profile_seconds=profile_each,
                reduce_seconds=reduce_each,
            )
            for rr, decision in zip(results, decisions)
        ]

    def _sketch_and_select(
        self, block: TickBlock, threshold: float, *, shape: "str | None" = None
    ) -> tuple:
        """Steps 1+2 for a tick block: ``(decisions, profile elapsed,
        select elapsed)``, the profile time including the selection.  The
        one decision site of every route (serial, sharded and the
        arrival-order :meth:`reduce`), always in the calling process: one
        sketch-kernel call, then one policy query for the whole tick, with
        each item's input-dtype unit roundoff (``block.us``)."""
        with Stopwatch() as sw_profile:
            sketches = profile_batch(block)
            # an operand is NaN or inf exactly when its item's max |x| is
            # inf or its Σ|x| is NaN (a finite Σ|x| that overflows is inf)
            bad = [
                i
                for i, sk in enumerate(sketches)
                if math.isinf(sk.max_abs) or math.isnan(sk.abs_sum_hi)
            ]
            if bad:
                raise NonFiniteOperandError(bad)
            with Stopwatch() as sw_select:
                decisions = self.policy.select_many(
                    set_profiles(sketches), threshold, u=block.us, shape=shape
                )
        return decisions, sw_profile.elapsed, sw_select.elapsed

    def _reduce_many_parallel(
        self,
        layout: TickLayout,
        threshold: float,
        tree: "ReductionTree | str",
        plan: "tuple[int, int]",
    ) -> tuple:
        """Select in the parent, shard the reduce over the persistent pool.

        :func:`~repro.util.pool.run_shards`' ``fill`` copies the layout's
        rank counts, unit roundoffs, chunk lengths and operands into the
        input arena, sketches and selects every item over
        :meth:`TickBlock.over` those views, and writes each item's index
        into ``code_table`` beside them; each :func:`_reduce_many_task`
        shard reduces under those codes.  Returns ``(decisions, per-item
        ReduceResults, profile, select and summed shard reduce elapsed)``.
        """
        n_items = len(layout)
        code_table = tuple(alg.code for alg in all_algorithms())
        code_index = {code: idx for idx, code in enumerate(code_table)}
        decisions = profile_s = select_s = None

        def fill(views) -> None:
            nonlocal decisions, profile_s, select_s
            ranks, us, lens, codes, flat = views
            ranks[:], us[:], lens[:] = layout.ranks, layout.us, layout.lens
            layout.copy_into(flat)
            block = TickBlock.over(flat, ranks, lens, layout.us)
            decisions, profile_s, select_s = self._sketch_and_select(
                block, threshold
            )
            codes[:] = [code_index[d.code] for d in decisions]

        values, reduce_times = run_shards(
            _reduce_many_task,
            n_items,
            plan,
            [
                (np.int64, (n_items,)),
                (np.float64, (n_items,)),
                (np.int64, layout.lens.shape),
                (np.int64, (n_items,)),
                (np.float64, (layout.n_values,)),
            ],
            fill,
            np.float64,
            (self.comm, tree, code_table),
            path="reduce_many",
        )
        tree = self.comm._resolve_tree(tree)
        cost = tree_cost(tree, self.comm.topology) if self.comm.topology else 0.0
        results = [
            ReduceResult(
                value=value, tree=tree, simulated_time=cost, algorithm_code=d.code
            )
            for value, d in zip(values.tolist(), decisions)
        ]
        return decisions, results, profile_s, select_s, math.fsum(reduce_times)


def _observe(
    decisions: "Sequence[SelectionDecision]", profile_s: float, select_s: float, reduce_s: float
) -> None:
    """Count ``decisions`` per algorithm and record their phase totals in
    the per-item phase histograms: each total's amortised per-item time,
    observed once with weight ``len(decisions)``."""
    for code, count in Counter(d.code for d in decisions).items():
        _OBS.counter("repro_selector_selections_total", algorithm=code).inc(count)
    n_items = len(decisions)
    for name, total in (
        ("repro_selector_profile_seconds", profile_s),
        ("repro_selector_select_seconds", select_s),
        ("repro_selector_reduce_seconds", reduce_s),
    ):
        _OBS.histogram(name).observe(total / n_items, count=n_items)


def _grouped_reduce(
    comm: SimComm,
    block: TickBlock,
    codes: "Sequence[str]",
    tree: "ReductionTree | str",
) -> tuple:
    """Step 3 for a tick block, on both routes: item ``i`` reduces under
    algorithm ``codes[i]``, and same-code items execute together, one
    :meth:`SimComm.reduce_batch` per algorithm on the block's
    :meth:`~repro.util.tickblock.TickBlock.take` of the group (PR included:
    its exact batched path takes each item's own max as its pre-pass).  No
    group re-packs an operand.

    Returns ``(per-item ReduceResults, elapsed)``.
    """
    groups: "dict[str, list[int]]" = {}
    for i, code in enumerate(codes):
        groups.setdefault(code, []).append(i)
    results: "list[ReduceResult | None]" = [None] * len(block)
    with Stopwatch() as sw_reduce:
        for code, indices in groups.items():
            op = make_reduction_op(get_algorithm(code))
            group_results = comm.reduce_batch(block.take(indices), op, tree)
            for i, rr in zip(indices, group_results):
                results[i] = rr
    return results, sw_reduce.elapsed


def _reduce_many_task(
    start: int,
    stop: int,
    inputs: list,
    out: np.ndarray,
    comm: SimComm,
    tree: "ReductionTree | str",
    code_table: tuple,
) -> float:
    """Shard task (:func:`~repro.util.pool.run_shards`): reduce items
    ``[start, stop)`` under the codes the parent selected and write their
    float64 values into ``out``; returns the reduce time.

    The shard's tick block is :meth:`TickBlock.over` the input arena's
    operands; each item's code is its index into ``code_table``.
    """
    ranks, us, lens, codes, flat = inputs
    c0, c1 = int(ranks[:start].sum()), int(ranks[:stop].sum())  # repro: allow[FP002] -- integer chunk counts
    v0, v1 = int(lens[:c0].sum()), int(lens[:c1].sum())  # repro: allow[FP002] -- integer value counts
    block = TickBlock.over(
        flat[v0:v1], ranks[start:stop], lens[c0:c1], us[start:stop].tolist()
    )
    results, reduce_s = _grouped_reduce(
        comm, block, [code_table[i] for i in codes[start:stop].tolist()], tree
    )
    out[:] = [rr.value for rr in results]
    return reduce_s
