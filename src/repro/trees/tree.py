"""Reduction-tree representation.

Following Sec. II.B, a reduction tree is "a full binary tree whose N leaf
nodes correspond to floating-point operands and whose internal nodes
correspond to the partial reductions formed in the process of computing the
final result".  Trees vary in two ways: **shape** (how nodes are linked) and
**assignment of operands to leaves** (a permutation of the data).

For scalability (the paper evaluates 2**20-leaf trees) the tree is not stored
as linked node objects but as a *merge schedule*: an ``(n-1, 2)`` integer
array where row ``t`` names the two slots whose partial reductions are merged
at step ``t``, the result being written to slot ``n + t``.  Slots ``0..n-1``
are the leaves; slot ``2n-2`` is the root.  Any full binary tree has exactly
one such bottom-up schedule ordering compatible with its structure (modulo
reordering of independent steps, which cannot change results since each slot
is written once), so the schedule is a faithful encoding.

Fast evaluators special-case the two shapes the paper studies (completely
balanced, completely unbalanced/serial); the schedule form supports arbitrary
shapes for the fault-injection and random-shape extensions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

import numpy as np

__all__ = ["ReductionTree"]


@dataclass(frozen=True)
class ReductionTree:
    """A full binary reduction tree over ``n_leaves`` operands.

    Attributes
    ----------
    n_leaves:
        Number of operands (leaves).
    schedule:
        ``(n_leaves - 1, 2)`` read-only int64 array of merge steps (see
        module docs).  For ``n_leaves == 1`` the schedule is empty and the
        root is leaf 0.
    kind:
        ``"balanced"``, ``"serial"`` or ``"custom"`` — a hint that unlocks
        fast evaluation paths; the schedule is always authoritative.
    """

    n_leaves: int
    schedule: np.ndarray
    kind: str = "custom"

    def __post_init__(self) -> None:
        if self.n_leaves < 1:
            raise ValueError("a reduction tree needs at least one leaf")
        sched = np.asarray(self.schedule, dtype=np.int64)
        expected = (max(self.n_leaves - 1, 0), 2)
        if sched.shape != expected:
            raise ValueError(f"schedule shape {sched.shape} != {expected}")
        # a read-only view: trees are shared (a communicator caches its
        # resolved trees and hands them out on every ReduceResult)
        sched = sched.view()
        sched.flags.writeable = False
        object.__setattr__(self, "schedule", sched)

    # -- structural queries --------------------------------------------------
    @property
    def n_nodes(self) -> int:
        """Total node count of the full binary tree: ``2 * n_leaves - 1``."""
        return 2 * self.n_leaves - 1

    @property
    def root_slot(self) -> int:
        return self.n_nodes - 1 if self.n_leaves > 1 else 0

    def validate(self) -> None:
        """Check the schedule encodes a full binary tree (each slot consumed
        exactly once; every step reads already-produced slots)."""
        n = self.n_leaves
        if n == 1:
            return
        consumed = np.zeros(self.n_nodes, dtype=bool)
        for t, (a, b) in enumerate(self.schedule):
            for side in (a, b):
                if not 0 <= side < n + t:
                    raise ValueError(
                        f"step {t} reads slot {side}, which does not exist yet"
                    )
                if consumed[side]:
                    raise ValueError(f"slot {side} consumed twice (step {t})")
                consumed[side] = True
            if a == b:
                raise ValueError(f"step {t} merges slot {a} with itself")
        if consumed[self.root_slot]:
            raise ValueError("root slot was consumed")
        if int(np.count_nonzero(consumed[: self.root_slot])) != self.n_nodes - 1:
            raise ValueError("some slot was never consumed")

    def depth(self) -> int:
        """Longest leaf-to-root path length in edges.

        Balanced n-leaf trees have depth ``ceil(log2 n)``; serial trees have
        depth ``n - 1``.
        """
        n = self.n_leaves
        if n == 1:
            return 0
        d = np.zeros(self.n_nodes, dtype=np.int64)
        for t, (a, b) in enumerate(self.schedule):
            d[n + t] = max(d[a], d[b]) + 1
        return int(d[self.root_slot])

    def parents(self) -> np.ndarray:
        """Parent slot of every node (root's parent is -1)."""
        p = np.full(self.n_nodes, -1, dtype=np.int64)
        n = self.n_leaves
        for t, (a, b) in enumerate(self.schedule):
            p[a] = n + t
            p[b] = n + t
        return p

    def leaf_depths(self) -> np.ndarray:
        """Depth of every leaf (number of merges its operand flows through)."""
        n = self.n_leaves
        if n == 1:
            return np.zeros(1, dtype=np.int64)
        parent = self.parents()
        # depth of node = 1 + depth of parent, computed top-down.
        depth = np.zeros(self.n_nodes, dtype=np.int64)
        # process internal nodes in reverse creation order: parents always
        # have a higher slot id than their children.
        for slot in range(self.n_nodes - 2, -1, -1):
            depth[slot] = depth[parent[slot]] + 1
        return depth[:n]

    # -- conversions -----------------------------------------------------------
    def to_networkx(self):
        """Export as a ``networkx.DiGraph`` (edges child -> parent).

        Optional dependency used by docs and structural tests.
        """
        import networkx as nx

        g = nx.DiGraph()
        g.add_nodes_from(range(self.n_nodes))
        parent = self.parents()
        for child, par in enumerate(parent):
            if par >= 0:
                g.add_edge(child, int(par))
        return g

    def iter_steps(self) -> Iterator[tuple[int, int, int]]:
        """Yield ``(left_slot, right_slot, out_slot)`` in schedule order."""
        n = self.n_leaves
        for t, (a, b) in enumerate(self.schedule):
            yield int(a), int(b), n + t

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ReductionTree(kind={self.kind!r}, n_leaves={self.n_leaves}, "
            f"depth={self.depth() if self.n_leaves <= 1 << 16 else '...'})"
        )
