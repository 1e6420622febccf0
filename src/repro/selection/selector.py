"""AdaptiveReducer: end-to-end intelligent runtime selection.

This is the system the paper argues for (Sec. V.D): "estimable quantities
such as condition number and dynamic range can guide runtime selection of a
reduction operator with the appropriate performance/reproducibility tradeoff
for the application at hand."

Every reduction takes one route, whether it arrives as a single
:meth:`AdaptiveReducer.reduce`, a batched or sharded
:meth:`AdaptiveReducer.reduce_many`, or a served request:

1. **Profile** — every rank sketches its chunk in one kernel read; the
   sketches merge in an (exactly associative) allreduce.  A uniform-width
   stream sketches in one kernel call.
2. **Select** — a policy (analytic model or calibrated grid classifier)
   picks the cheapest algorithm whose predicted variability meets the
   application's tolerance, queried on the item's own sketch.
3. **Reduce** — the chosen algorithm's accumulator runs as a custom op
   through the simulated communicator; PR runs its exact batched path,
   which takes each item's max as the pre-pass while packing its rows.

Selection is precision-aware end to end: each item's unit roundoff is taken
from its input dtype (fp16/fp32/fp64) and passed to the policy query, so
low-precision scenario inputs are never silently upcast inside the decision
(execution stays binary64).

The returned :class:`AdaptiveResult` carries the decision record so
applications (and our benches) can audit what was chosen and why.  The
phase histograms ``repro_selector_{profile,select,reduce}_seconds`` hold
per-item times on every route: a batch observes its amortised per-item time
once, weighted by its item count, so each histogram's count equals the
number of selections.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Protocol, Sequence

import numpy as np

from repro.fp.properties import UNIT_ROUNDOFF
from repro.metrics.properties import SetProfile
from repro.mpi.comm import ReduceResult, SimComm
from repro.mpi.ops import make_reduction_op
from repro.mpi.topology import tree_cost
from repro.obs import get_registry
from repro.selection.bound_tier import item_unit_roundoff, unit_roundoff_of
from repro.selection.policy import AnalyticPolicy, SelectionDecision
from repro.selection.profile import StreamProfile, profile_batch, profile_stream
from repro.summation.registry import all_algorithms, get_algorithm
from repro.trees.tree import ReductionTree
from repro.util.chunking import split_indices
from repro.util.pool import arena_pair, arena_view, get_pool, shard_plan
from repro.util.timing import Stopwatch

__all__ = ["Policy", "AdaptiveResult", "AdaptiveReducer"]

_OBS = get_registry()

_DTYPE = attrgetter("dtype")
_SIZE = attrgetter("size")


class Policy(Protocol):
    """Anything that can turn (profile, threshold) into a decision."""

    def select(self, profile: SetProfile, threshold: float) -> SelectionDecision:
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
        if threshold < 0:
            raise ValueError("threshold must be >= 0")
        self.comm = comm
        self.policy = policy if policy is not None else AnalyticPolicy()
        self.threshold = threshold

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
        """Adaptively reduce distributed data to one double.

        ``nondeterministic=True`` routes through the arrival-order reduce,
        modelling a production run whose tree the application cannot pin.
        """
        t = self.threshold if threshold is None else threshold
        if t < 0:
            raise ValueError("threshold must be >= 0")
        u = item_unit_roundoff(chunks)
        # arrival-order trees have unknown (chain-heavy) shapes: profile the
        # tree-shape parameter conservatively, as the paper's list of
        # profiled quantities (n, k, dr, tree shape) prescribes
        shape = (
            "unknown"
            if nondeterministic
            and getattr(self.policy, "supports_shape_hint", False)
            else None
        )
        with Stopwatch() as sw_profile:
            sketch = self.profile(chunks)
            with Stopwatch() as sw_select:
                decision = self._select(sketch, t, u, shape=shape)
        op = make_reduction_op(get_algorithm(decision.code))
        with Stopwatch() as sw_reduce:
            if nondeterministic:
                result = self.comm.reduce_nondeterministic(chunks, op)
            else:
                result = self.comm.reduce(chunks, op, tree)
        if _OBS.enabled:
            _OBS.counter(
                "repro_selector_selections_total", algorithm=decision.code
            ).inc()
            _observe_phases(
                1, sw_profile.elapsed, sw_select.elapsed, sw_reduce.elapsed
            )
        return AdaptiveResult(
            value=result.value,
            decision=decision,
            reduce_result=result,
            profile_seconds=sw_profile.elapsed,
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
        """Adaptively reduce a stream of independent reductions in bulk.

        The serving path: uniform-width streams profile in one sketch-kernel
        call (:func:`repro.selection.profile.profile_batch`, bitwise-equal
        to per-item profiling; ragged streams fall back to the loop), each
        item's policy query runs on its own sketch, and items choosing the
        same algorithm execute together through
        :meth:`SimComm.reduce_batch`, so packing, schedule compilation and
        kernel dispatch are paid once per algorithm instead of once per
        item.  PR groups take the same route: its fold deposits are exact
        integers, so one vectorised pass over the whole group gives every
        item the value any reduction tree would.

        ``workers`` adds the multicore axis: the item stream splits into
        contiguous shards, each shard runs the full profile → select →
        grouped-reduce pipeline in a persistent worker process (operands
        ship zero-copy through shared memory), and the reassembled results
        are *bitwise-identical* to the serial path — every item's reduction
        is independent, so sharding cannot change any value or decision.
        ``workers=None`` defers to ``REPRO_WORKERS``/cpu-count behind an
        adaptive bytes-and-items cutover (small batches never pay IPC);
        an explicit ``workers >= 2`` always parallelises; ``workers<=1``
        forces the serial path.  Workers write values, decision codes and
        profile sketches straight into a persistent shared-memory result
        arena; the parent re-selects from those sketches, and any
        worker/parent decision drift raises instead of passing silently.

        Each item's value is bitwise-equal to a standalone :meth:`reduce`
        with the same decision; ``profile_seconds``/``reduce_seconds`` are
        the *amortised* per-item costs (phase total / number of items).
        """
        t = self.threshold if threshold is None else threshold
        if t < 0:
            raise ValueError("threshold must be >= 0")
        if not batches:
            return []
        us, payload_bytes = _stream_meta(batches)
        pool_workers, n_shards = shard_plan(len(batches), payload_bytes, workers)
        if n_shards > 1:
            return self._reduce_many_parallel(
                batches, t, tree, pool_workers, n_shards, us
            )
        _, decisions, profile_elapsed, select_elapsed = self._sketch_and_select(
            batches, t, us
        )
        results, groups, reduce_elapsed = self._grouped_reduce(
            batches, decisions, tree
        )
        n_items = len(batches)
        if _OBS.enabled:
            for code, indices in groups.items():
                _OBS.counter(
                    "repro_selector_selections_total", algorithm=code
                ).inc(len(indices))
            _observe_phases(n_items, profile_elapsed, select_elapsed, reduce_elapsed)
        profile_each = profile_elapsed / n_items
        reduce_each = reduce_elapsed / n_items
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
        self,
        batches: Sequence[Sequence[np.ndarray]],
        threshold: float,
        us: Sequence[float],
    ) -> tuple:
        """Steps 1+2 for a stream: ``(sketches, decisions, profile elapsed,
        select elapsed)``, the profile time including the selection.
        Shared by the serial serving path and the shard workers so both run
        the exact same pipeline.  ``us`` carries each item's input-dtype
        unit roundoff into the policy query."""
        with Stopwatch() as sw_profile:
            # uniform-width streams profile as one kernel call; the
            # batched sketches are bitwise-equal to the per-item loop
            sketches = profile_batch(batches)
            if sketches is None:
                sketches = [self.profile(chunks) for chunks in batches]
            with Stopwatch() as sw_select:
                decisions = [
                    self._select(sk, threshold, u) for sk, u in zip(sketches, us)
                ]
        return sketches, decisions, sw_profile.elapsed, sw_select.elapsed

    def _select(
        self,
        sketch: StreamProfile,
        threshold: float,
        u: float = UNIT_ROUNDOFF,
        *,
        shape: "str | None" = None,
    ) -> SelectionDecision:
        """Step 2 for one item: the policy query on its own sketch.

        ``u`` is the item's input-dtype unit roundoff, forwarded to
        precision-aware policies; ``shape`` is a tree-shape hint for
        policies that take one."""
        kwargs = {}
        if getattr(self.policy, "supports_unit_roundoff", False):
            kwargs["u"] = u
        if shape is not None:
            kwargs["shape"] = shape
        return self.policy.select(sketch.as_set_profile(), threshold, **kwargs)

    def _grouped_reduce(
        self,
        batches: Sequence[Sequence[np.ndarray]],
        decisions: "list[SelectionDecision]",
        tree: "ReductionTree | str",
    ) -> tuple:
        """Step 3 for a stream: same-decision items execute together, one
        :meth:`SimComm.reduce_batch` per algorithm (PR included: its exact
        batched path takes each item's own max as its pre-pass).

        Returns ``(per-item ReduceResults, {code: indices}, elapsed)``.
        """
        groups: "dict[str, list[int]]" = {}
        for i, decision in enumerate(decisions):
            groups.setdefault(decision.code, []).append(i)
        results: "list[ReduceResult | None]" = [None] * len(batches)
        with Stopwatch() as sw_reduce:
            for code, indices in groups.items():
                op = make_reduction_op(get_algorithm(code))
                group_results = self.comm.reduce_batch(
                    [batches[i] for i in indices], op, tree
                )
                for i, rr in zip(indices, group_results):
                    results[i] = rr
        return results, groups, sw_reduce.elapsed

    def _reduce_many_parallel(
        self,
        batches: Sequence[Sequence[np.ndarray]],
        threshold: float,
        tree: "ReductionTree | str",
        pool_workers: int,
        n_shards: int,
        us: Sequence[float],
    ) -> "list[AdaptiveResult]":
        """Shard the stream over the persistent pool (bitwise = serial path).

        Operands pack once into the persistent **input arena** (lengths,
        per-item rank counts, per-item unit roundoffs, then every chunk's
        float64 bytes); workers slice zero-copy views out of their cached
        attachment and run the same :meth:`_sketch_and_select` +
        :meth:`_grouped_reduce` pipeline the serial path uses.  Results come
        back through the **result arena** — value, decision-code index and
        the 7 profile-sketch fields per item plus three phase timings per
        shard — so the pickle pipe only carries ``None``.  The parent
        rebuilds each :class:`StreamProfile` from the arena, re-selects
        with the same :meth:`_select`, and checks its codes against the
        workers' in one comparison, so a drift raises instead of passing
        silently.  Chunks are normalised with the same
        ``np.asarray(..., float64)`` coercion the serial pipeline applies,
        so worker inputs are bit-identical to what the serial path would
        profile and reduce.
        """
        flats: "list[np.ndarray]" = []
        lengths: "list[int]" = []
        ranks: "list[int]" = []
        for chunks in batches:
            ranks.append(len(chunks))
            for c in chunks:
                # normalise without materialising: asarray of an f8 chunk —
                # including a memoryview-backed slice of a socket receive
                # buffer — is a view, and write_concat below is the single
                # copy (straight into the shared input arena).  The old
                # ascontiguousarray staging copy doubled every ingest.
                a = np.asarray(c, dtype=np.float64)
                if a.ndim != 1:
                    a = a.ravel()
                flats.append(a)
                lengths.append(a.size)
        n_items = len(batches)
        n_chunks = len(flats)
        total = int(sum(lengths))  # repro: allow[FP002] -- integer chunk-length count, not an FP reduction
        shards = split_indices(n_items, n_shards)
        pool = get_pool(pool_workers)
        code_table = tuple(alg.code for alg in all_algorithms())
        # input arena: [lengths i64 x n_chunks][ranks i64 x n_items]
        # [u f64 x n_items][flat f64]
        # result arena: [values f64][code idx i64][sketch n i64]
        # [sketch f64 x6] per item (72 B), then
        # [profile_s, select_s, reduce_s] f64 per shard (24 B)
        in_bytes = 8 * (n_chunks + 2 * n_items + total)
        res_bytes = 72 * n_items + 24 * len(shards)
        with arena_pair() as (arena_in, arena_res):
            in_handle = arena_in.reserve(in_bytes)
            res_handle = arena_res.reserve(res_bytes)
            arena_in.write(np.asarray(lengths, dtype=np.int64))
            arena_in.write(
                np.asarray(ranks, dtype=np.int64), offset=8 * n_chunks
            )
            arena_in.write(
                np.asarray(us, dtype=np.float64),
                offset=8 * (n_chunks + n_items),
            )
            arena_in.write_concat(
                flats, total, np.float64, offset=8 * (n_chunks + 2 * n_items)
            )
            payloads = [
                (
                    in_handle,
                    res_handle,
                    n_items,
                    n_chunks,
                    total,
                    s.start,
                    s.stop,
                    shard_index,
                    self.comm,
                    self.policy,
                    threshold,
                    tree,
                    code_table,
                )
                for shard_index, s in enumerate(shards)
            ]
            pool.map(_reduce_many_shard, payloads, chunksize=1, path="reduce_many")
            values = arena_res.read(np.float64, (n_items,))
            code_idx = arena_res.read(np.int64, (n_items,), offset=8 * n_items)
            sk_n = arena_res.read(np.int64, (n_items,), offset=16 * n_items)
            sk_f = arena_res.read(np.float64, (n_items, 6), offset=24 * n_items)
            timings = arena_res.read(
                np.float64, (len(shards), 3), offset=72 * n_items
            )
        decisions = [
            self._select(
                StreamProfile(int(sk_n[i]), *sk_f[i].tolist()), threshold, us[i]
            )
            for i in range(n_items)
        ]
        code_index = {code: idx for idx, code in enumerate(code_table)}
        parent_idx = np.array([code_index[d.code] for d in decisions], dtype=np.int64)
        if not np.array_equal(parent_idx, code_idx):
            i = int(np.flatnonzero(parent_idx != code_idx)[0])
            raise RuntimeError(
                f"parallel decision drift at item {i}: worker chose "
                f"{code_table[int(code_idx[i])]!r}, parent replay chose "
                f"{decisions[i].code!r}"
            )
        tree_resolved = self.comm._resolve_tree(tree)
        cost = (
            tree_cost(tree_resolved, self.comm.topology)
            if self.comm.topology
            else 0.0
        )
        results: "list[AdaptiveResult]" = []
        for shard_index, s in enumerate(shards):
            span = s.stop - s.start
            profile_s, select_s, reduce_s = timings[shard_index].tolist()
            if _OBS.enabled:
                _observe_phases(span, profile_s, select_s, reduce_s)
            for i in range(s.start, s.stop):
                value = float(values[i])
                results.append(
                    AdaptiveResult(
                        value=value,
                        decision=decisions[i],
                        reduce_result=ReduceResult(
                            value=value,
                            tree=tree_resolved,
                            simulated_time=cost,
                            algorithm_code=decisions[i].code,
                        ),
                        profile_seconds=profile_s / span,
                        reduce_seconds=reduce_s / span,
                    )
                )
        if _OBS.enabled:
            for idx, count in zip(*np.unique(code_idx, return_counts=True)):
                _OBS.counter(
                    "repro_selector_selections_total",
                    algorithm=code_table[int(idx)],
                ).inc(int(count))
        return results


def _observe_phases(
    n_items: int, profile_s: float, select_s: float, reduce_s: float
) -> None:
    """Record ``n_items`` selections' phase totals in the per-item phase
    histograms: each total's amortised per-item time, observed once with
    weight ``n_items``."""
    for name, total in (
        ("repro_selector_profile_seconds", profile_s),
        ("repro_selector_select_seconds", select_s),
        ("repro_selector_reduce_seconds", reduce_s),
    ):
        _OBS.histogram(name).observe(total / n_items, count=n_items)


def _stream_meta(batches: Sequence[Sequence[np.ndarray]]) -> tuple:
    """One walk over a stream's chunks: ``(per-item unit roundoffs, total
    float64 bytes the stream would ship to workers)``."""
    us = []
    n_values = 0
    for chunks in batches:
        try:
            dtypes = set(map(_DTYPE, chunks))
            n_values += sum(map(_SIZE, chunks))  # repro: allow[FP002] -- integer element counts, not an FP reduction
        except AttributeError:  # non-array chunks
            us.append(item_unit_roundoff(chunks))
            n_values += sum(np.size(c) for c in chunks)  # repro: allow[FP002] -- integer element counts, not an FP reduction
            continue
        us.append(unit_roundoff_of(dtypes))
    return us, 8 * n_values


def _reduce_many_shard(payload: tuple) -> None:
    """Worker: run the serving pipeline on one shard, writing results
    straight into the shared result arena.

    Rebuilds the reducer from its picklable spec (communicator, policy,
    threshold), slices zero-copy chunk views for items ``[start, stop)``
    out of the cached input-arena attachment
    (:func:`repro.util.pool.arena_view` — attach once per arena epoch, not
    once per task), and writes values, decision-code indices, the 7
    profile-sketch fields per item and the shard's phase timings into the
    result arena, so nothing but ``None`` returns through the pickle pipe.
    Every arena view is dropped before returning: a lingering view would
    block the attachment swap on the next arena regrow epoch.
    """
    (
        in_handle,
        res_handle,
        n_items,
        n_chunks,
        total,
        start,
        stop,
        shard_index,
        comm,
        policy,
        threshold,
        tree,
        code_table,
    ) = payload
    lengths = arena_view(in_handle, np.int64, (n_chunks,))
    ranks = arena_view(in_handle, np.int64, (n_items,), offset=8 * n_chunks)
    us_all = arena_view(
        in_handle, np.float64, (n_items,), offset=8 * (n_chunks + n_items)
    )
    flat = arena_view(
        in_handle, np.float64, (total,), offset=8 * (n_chunks + 2 * n_items)
    )
    offsets = np.concatenate(([0], np.cumsum(lengths)))
    chunk_base = np.concatenate(([0], np.cumsum(ranks)))
    batches = []
    for i in range(start, stop):
        c0, c1 = int(chunk_base[i]), int(chunk_base[i + 1])
        batches.append(
            [flat[int(offsets[j]) : int(offsets[j + 1])] for j in range(c0, c1)]
        )
    us = [float(us_all[i]) for i in range(start, stop)]
    reducer = AdaptiveReducer(comm, policy, threshold=threshold)
    sketches, decisions, profile_elapsed, select_elapsed = (
        reducer._sketch_and_select(batches, threshold, us)
    )
    results, _groups, reduce_elapsed = reducer._grouped_reduce(
        batches, decisions, tree
    )
    code_index = {code: idx for idx, code in enumerate(code_table)}
    span = slice(start, stop)
    values_v = arena_view(res_handle, np.float64, (n_items,))
    codes_v = arena_view(res_handle, np.int64, (n_items,), offset=8 * n_items)
    skn_v = arena_view(res_handle, np.int64, (n_items,), offset=16 * n_items)
    skf_v = arena_view(res_handle, np.float64, (n_items, 6), offset=24 * n_items)
    stats_v = arena_view(
        res_handle, np.float64, (3,), offset=72 * n_items + 24 * shard_index
    )
    values_v[span] = [rr.value for rr in results]
    codes_v[span] = [code_index[d.code] for d in decisions]
    skn_v[span] = [sk.n for sk in sketches]
    skf_v[span] = [
        [
            sk.max_abs,
            sk.min_abs_nonzero,
            sk.abs_sum_hi,
            sk.abs_sum_lo,
            sk.sum_hi,
            sk.sum_lo,
        ]
        for sk in sketches
    ]
    stats_v[:] = (profile_elapsed, select_elapsed, reduce_elapsed)
    del values_v, codes_v, skn_v, skf_v, stats_v
    del batches, flat, lengths, ranks, us_all
    return None
