"""Compiled level schedules: batched evaluation of arbitrary-shape ensembles.

The paper's core measurement (Sec. V) evaluates each summation algorithm over
~1000 leaf-permuted reduction trees per grid cell.  The permutations change
*which operand sits on which leaf* but never the tree's *structure*, so the
dependency analysis of the merge schedule can be done once per structure and
reused for every member of the ensemble.

This module performs that analysis: :func:`compile_tree` lowers a
:class:`~repro.trees.tree.ReductionTree` into a :class:`CompiledSchedule` — a
sequence of *dependency levels*, each an index triple ``(left, right, out)``
into a flat accumulator-slot buffer.  Steps within a level are independent
(every slot is written exactly once and read exactly once), so one level is
one batched :meth:`~repro.summation.base.VectorOps.merge_at` call.  Executing
a compiled schedule over an ensemble keeps the slot buffers as
``(n_trees, n_nodes)`` component matrices: each tree level becomes ONE
elementwise merge over the whole ensemble instead of ``n_trees`` Python-level
accumulator merges.  This is the level-parallel structure exploited by
parallel summation algorithms (cf. arXiv:1605.05436) applied across the
ensemble axis.

Grouping independent merges into levels cannot change results: the merge
schedule writes each slot once, so any execution order compatible with the
dependencies computes bitwise-identical partial reductions.  The property
tests pin :meth:`CompiledSchedule.execute` against
:func:`~repro.trees.evaluate.evaluate_tree_generic` for every VectorOps
algorithm and shape.

Compilation costs one O(n) pass per *structure* and is cached under a
structural key (shape kind, leaf count, topology digest) — never object
identity — so ensembles, repeated sweeps, and pickled worker payloads all
share compiled schedules.  The cache is bounded (LRU) and exposes
:func:`clear_schedule_cache` so long sweeps can bound memory explicitly.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.obs import get_registry
from repro.summation.base import VectorOps
from repro.trees.tree import ReductionTree

__all__ = [
    "CompiledSchedule",
    "structural_key",
    "compile_tree",
    "clear_schedule_cache",
    "schedule_cache_info",
]

#: maximum number of compiled structures kept in the LRU cache
SCHEDULE_CACHE_MAX = 64


def structural_key(tree: ReductionTree) -> tuple:
    """Structural identity of a tree: ``(kind, n_leaves, topology digest)``.

    Two trees with equal keys have byte-identical merge schedules, so a
    compiled schedule may be shared between them regardless of object
    identity (e.g. across pickled process-pool payloads that rebuild the
    same shape from a seed).
    """
    sched = np.ascontiguousarray(tree.schedule, dtype=np.int64)
    digest = hashlib.blake2b(sched.tobytes(), digest_size=16).hexdigest()
    return (tree.kind, tree.n_leaves, digest)


@dataclass(frozen=True)
class CompiledSchedule:
    """A reduction tree lowered to gather/scatter dependency levels.

    Attributes
    ----------
    n_leaves:
        Operand count; slots ``0..n_leaves-1`` of the flat buffer are leaves.
    root_slot:
        Buffer slot holding the final reduction.
    levels:
        Per-level ``(left, right, out)`` int64 index triples into the slot
        buffer.  Level ``i`` may only read slots produced at levels ``< i``
        (or leaves), which :func:`compile_tree` guarantees.
    key:
        The :func:`structural_key` this schedule was compiled from.
    """

    n_leaves: int
    root_slot: int
    levels: Tuple[Tuple[np.ndarray, np.ndarray, np.ndarray], ...]
    key: tuple

    @property
    def depth(self) -> int:
        """Number of dependency levels (== the tree's depth)."""
        return len(self.levels)

    @property
    def n_nodes(self) -> int:
        return 2 * self.n_leaves - 1

    def execute(self, permuted: np.ndarray, vops: VectorOps) -> np.ndarray:
        """Values of every row of ``permuted`` under this tree structure.

        ``permuted`` has shape ``(n_trees, n_leaves)``: row ``p`` is the data
        in ensemble member ``p``'s leaf order (a 1-D array is treated as a
        single-tree ensemble).  The leaves are lifted with ``vops.init`` and
        reduced by :meth:`reduce_states`: states live in ``(n_trees,
        n_nodes)`` component buffers; each level is one batched
        ``merge_at``.  Returns
        the ``(n_trees,)`` root values, each bitwise equal to the generic
        node-walk of the same tree on the same row.
        """
        permuted = np.asarray(permuted, dtype=np.float64)
        if permuted.ndim == 1:
            permuted = permuted[np.newaxis, :]
        if permuted.ndim != 2:
            raise ValueError("expected a (n_trees, n_leaves) matrix")
        n = permuted.shape[1]
        if n != self.n_leaves:
            raise ValueError(
                f"{n} operands per row for a {self.n_leaves}-leaf schedule"
            )
        return np.asarray(
            vops.result(self.reduce_states(vops.init(permuted), vops)),
            dtype=np.float64,
        )

    def reduce_states(
        self, states: Tuple[np.ndarray, ...], vops: VectorOps
    ) -> Tuple[np.ndarray, ...]:
        """Reduce ready-made per-leaf accumulator states to the root state.

        ``states`` is a component tuple whose *last* axis indexes leaves
        (length ``n_leaves``); leading axes are independent ensemble lanes
        (e.g. the batch axis of :meth:`repro.mpi.comm.SimComm.reduce_batch`)
        that broadcast through every merge.  This is :meth:`execute` minus
        the leaf lifting — the entry point for the collective fast path,
        where leaf states are rank-local partial reductions produced by
        :meth:`~repro.summation.base.VectorOps.fold` rather than raw
        operands.  Returns the root state components with the leaf axis
        collapsed; results are bitwise-equal to walking the source tree's
        merge schedule node by node.
        """
        n = states[0].shape[-1]
        if n != self.n_leaves:
            raise ValueError(f"{n} leaf states for a {self.n_leaves}-leaf schedule")
        if n == 1:
            return tuple(c[..., 0] for c in states)
        lead = states[0].shape[:-1]
        buffers = tuple(
            np.zeros(lead + (self.n_nodes,), dtype=np.float64) for _ in states
        )
        for buf, comp in zip(buffers, states):
            buf[..., :n] = comp
        for left, right, out in self.levels:
            vops.merge_at(buffers, left, right, out)
        return tuple(buf[..., self.root_slot] for buf in buffers)


def _compile(tree: ReductionTree, key: tuple) -> CompiledSchedule:
    """Group the merge schedule into dependency levels (one O(n) pass)."""
    n = tree.n_leaves
    if n == 1:
        return CompiledSchedule(n_leaves=1, root_slot=0, levels=(), key=key)
    steps = tree.schedule.tolist()
    node_level = [0] * (2 * n - 1)
    step_level = np.empty(n - 1, dtype=np.int64)
    for t, (a, b) in enumerate(steps):
        la, lb = node_level[a], node_level[b]
        lvl = (la if la >= lb else lb) + 1
        step_level[t] = lvl
        node_level[n + t] = lvl
    order = np.argsort(step_level, kind="stable")
    sorted_levels = step_level[order]
    depth = int(sorted_levels[-1])
    bounds = np.searchsorted(sorted_levels, np.arange(1, depth + 2))
    sched = tree.schedule
    levels = []
    for i in range(depth):
        members = order[bounds[i] : bounds[i + 1]]
        levels.append(
            (
                np.ascontiguousarray(sched[members, 0]),
                np.ascontiguousarray(sched[members, 1]),
                np.ascontiguousarray(members + n),
            )
        )
    return CompiledSchedule(
        n_leaves=n, root_slot=2 * n - 2, levels=tuple(levels), key=key
    )


_cache: "OrderedDict[tuple, CompiledSchedule]" = OrderedDict()
_cache_lock = threading.Lock()
_cache_hits = 0
_cache_misses = 0

_OBS = get_registry()


def compile_tree(tree: ReductionTree, *, cache: bool = True) -> CompiledSchedule:
    """Compiled level schedule for ``tree``, shared via the structural cache.

    The cache key is :func:`structural_key` — structure, not object identity
    — so two ``balanced(4096)`` instances (or the same random shape rebuilt
    from its seed in another process) compile exactly once.  Pass
    ``cache=False`` to bypass the cache entirely (used by tests).
    """
    global _cache_hits, _cache_misses
    key = structural_key(tree)
    if cache:
        with _cache_lock:
            hit = _cache.get(key)
            if hit is not None:
                _cache.move_to_end(key)
                _cache_hits += 1
            else:
                _cache_misses += 1
        if _OBS.enabled:
            _OBS.counter(
                "repro_schedule_cache_events_total",
                event="hit" if hit is not None else "miss",
            ).inc()
        if hit is not None:
            return hit
    compiled = _compile(tree, key)
    if cache:
        evictions = 0
        with _cache_lock:
            _cache[key] = compiled
            _cache.move_to_end(key)
            while len(_cache) > SCHEDULE_CACHE_MAX:
                # Per-process memo cache: a given key always maps to a
                # bitwise-identical compiled plan, so worker copies cannot
                # diverge in value — only in what they have cached.
                # repro: allow[FP010] -- memo cache, key -> bitwise-same plan
                _cache.popitem(last=False)
                evictions += 1
        if evictions and _OBS.enabled:
            _OBS.counter(
                "repro_schedule_cache_events_total", event="evict"
            ).inc(evictions)
    return compiled


def clear_schedule_cache() -> None:
    """Drop every cached schedule (bounds memory over long sweeps)."""
    global _cache_hits, _cache_misses
    with _cache_lock:
        _cache.clear()
        _cache_hits = 0
        _cache_misses = 0


def schedule_cache_info() -> dict:
    """Cache statistics: ``{"size", "max_size", "hits", "misses"}``."""
    with _cache_lock:
        return {
            "size": len(_cache),
            "max_size": SCHEDULE_CACHE_MAX,
            "hits": _cache_hits,
            "misses": _cache_misses,
        }
