"""SimComm: a single-process simulator of MPI collective reductions.

The paper's testbed runs MPI on a dedicated 48-core node; no MPI is
available here, and more importantly the *phenomenon under study is
arithmetic*, not transport.  :class:`SimComm` therefore executes collectives
SPMD-style in one process: the caller supplies every rank's local data at
once, and the communicator applies the same local-accumulate + tree-combine
structure a real ``MPI_Reduce`` with a custom op would, including:

* deterministic reduction down a *fixed* tree (``reduce(..., tree=...)``),
* topology-aware trees (Balaji & Kimpe style, via the machine model),
* **nondeterministic arrival-order reduction** (``reduce_nondeterministic``)
  whose effective tree varies run to run with jitter and fault injection —
  the exascale behaviour of Sec. II.B.

API shape follows mpi4py's lowercase conventions loosely (``reduce``,
``allreduce``, ``max_allreduce``) adapted to the SPMD-at-once calling style.

Execution engines
-----------------
Every collective accepts ``engine``:

* ``"object"`` — the reference path: one accumulator per rank
  (``op.local``) and one Python ``op.combine`` per tree node.
* ``"vector"`` — the compiled fast path: all rank-local states in one
  :meth:`~repro.summation.base.VectorOps.fold` sweep over the tick block's
  pointer table, then the rank tree executed as a compiled level schedule
  (:mod:`repro.trees.schedule`, structural-key cached) with one batched
  ``merge_at`` per dependency level; a balanced tree takes one fused
  compiled call for both.  Requires the op's algorithm to expose
  VectorOps; raises otherwise.
* ``"auto"`` (default) — ``"vector"`` when the op supports it; else the
  exact batched path when the algorithm offers one (PR, see below); else
  ``"object"``.

The engines are bitwise-equal by contract (fold rows match ``op.local``
states; grouping merges into levels cannot change results because each
slot is written once), and the collective-engine property tests pin that
across algorithms, ragged chunk sizes and tree shapes.  Both non-object
engines read operands through a tick block (:mod:`repro.util.tickblock`):
a single collective is a one-item block, and ``reduce_batch`` amortises
compilation and level sweeps across a whole stream of same-shape
reductions — the heavy-traffic serving path.

PR needs a per-reduction pre-pass (the global max) and so has no vector
engine, but it needs no tree walk either: its fold deposits are exact
integers, so every reduction tree yields the same sums.  On ``"auto"`` it
runs :meth:`PreroundedSum.sum_items
<repro.summation.prerounded.PreroundedSum.sum_items>`, which reads each
collective's tick-block row in place, takes each row's max as its pre-pass
and extracts all fold coefficients in one vectorised sweep per fold —
bitwise-equal to the object walk on any tree, for one collective or a
whole ``reduce_batch`` group.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.mpi.nondet import arrival_order_tree, sample_arrival_times
from repro.mpi.ops import ReductionOp
from repro.obs import get_registry
from repro.mpi.topology import MachineTopology, topology_aware_tree, tree_cost
from repro.summation.base import SumContext
from repro.trees import _ckernels
from repro.trees.schedule import compile_tree
from repro.trees.shapes import balanced, serial
from repro.trees.tree import ReductionTree
from repro.util.rng import SeedLike, resolve_rng
from repro.util.tickblock import ScatteredRow, TickBlock

__all__ = ["ReduceResult", "SimComm"]

_OBS = get_registry()


@dataclass(frozen=True)
class ReduceResult:
    """Outcome of a simulated global reduction."""

    value: float
    tree: ReductionTree
    simulated_time: float  # critical-path cost on the topology (0 if none)
    algorithm_code: str


class SimComm:
    """A simulated communicator of ``n_ranks`` ranks.

    Parameters
    ----------
    n_ranks:
        Communicator size; if ``topology`` is given its rank count wins.
    topology:
        Optional machine model used for topology-aware trees, link costs and
        arrival-time simulation.
    seed:
        Seeds the communicator's private RNG stream (nondeterministic
        reductions draw from it, so two communicators with equal seeds
        replay identical "nondeterminism").
    """

    def __init__(
        self,
        n_ranks: int | None = None,
        *,
        topology: MachineTopology | None = None,
        seed: SeedLike = None,
    ) -> None:
        if topology is not None:
            n_ranks = topology.n_ranks
        if n_ranks is None or n_ranks < 1:
            raise ValueError("n_ranks must be >= 1 (or provide a topology)")
        self.n_ranks = int(n_ranks)
        self.topology = topology
        self._rng = resolve_rng(seed)
        self._trees: "dict[str, ReductionTree]" = {}

    # -- data distribution ---------------------------------------------------
    def scatter_array(self, data: np.ndarray) -> ScatteredRow:
        """Block-scatter a global vector into per-rank chunks.

        The chunks are views of one float64 row, returned as a
        :class:`~repro.util.tickblock.ScatteredRow` (a read-only sequence
        of the per-rank views that keeps the row), so reductions read them
        in place.
        """
        return ScatteredRow(np.asarray(data, dtype=np.float64).ravel(), self.n_ranks)

    # -- collectives --------------------------------------------------------
    def max_allreduce(self, local_values: Sequence[float]) -> float:
        """Exact, order-independent max reduction (PR's "pre" pass).

        NaN handling is deterministic: a NaN contribution from *any* rank
        poisons the result regardless of operand order.  (Python's ``max``
        is order-dependent under NaN — ``max(nan, x) != max(x, nan)`` — which
        would make PR's pre-pass context depend on rank ordering; NumPy's
        ``np.max`` propagates NaN unconditionally.)
        """
        self._check_size(local_values)
        return float(np.max(np.asarray(local_values, dtype=np.float64)))

    def reduce(
        self,
        chunks: Sequence[np.ndarray],
        op: ReductionOp,
        tree: "ReductionTree | str" = "topology",
        engine: str = "auto",
    ) -> ReduceResult:
        """Deterministic global reduction down a fixed tree of ranks.

        ``chunks[r]`` is rank ``r``'s local data.  ``tree`` may be a
        ready-made rank tree or one of ``"balanced"``, ``"serial"``,
        ``"topology"`` (topology-aware when a topology exists, else
        balanced).  ``engine`` selects the execution path (see module
        docs); all paths are bitwise-equal.
        """
        self._check_size(chunks)
        tree = self._resolve_tree(tree)
        value = self._execute(self._engine(op, engine), chunks, op, tree)
        cost = tree_cost(tree, self.topology) if self.topology else 0.0
        return ReduceResult(
            value=value, tree=tree, simulated_time=cost, algorithm_code=op.code
        )

    def allreduce(
        self,
        chunks: Sequence[np.ndarray],
        op: ReductionOp,
        tree: "ReductionTree | str" = "topology",
        engine: str = "auto",
    ) -> list[float]:
        """Reduce then broadcast: every rank sees the same value (bitwise)."""
        result = self.reduce(chunks, op, tree, engine)
        return [result.value] * self.n_ranks

    def reduce_nondeterministic(
        self,
        chunks: "Sequence[np.ndarray] | TickBlock",
        op: ReductionOp,
        *,
        jitter: float = 0.25,
        fault_prob: float = 0.0,
        fault_delay: float = 25.0,
        engine: str = "auto",
    ) -> ReduceResult:
        """One *run* of an arrival-order reduction (tree varies per call).

        Each call draws fresh arrival times from the communicator's RNG
        stream, so repeated calls model repeated application runs on a busy
        machine.  ``chunks`` may be a one-item
        :class:`~repro.util.tickblock.TickBlock`, read in place.
        """
        if isinstance(chunks, TickBlock):
            if len(chunks) != 1:
                raise ValueError("an arrival-order reduce takes one item")
            self._check_count(int(chunks.ranks[0]))
        else:
            self._check_size(chunks)
        path = self._engine(op, engine)
        schedule = sample_arrival_times(
            self.n_ranks,
            jitter=jitter,
            fault_prob=fault_prob,
            fault_delay=fault_delay,
            seed=self._rng,
        )
        run = arrival_order_tree(schedule, self.topology)
        return ReduceResult(
            value=self._execute(path, chunks, op, run.tree),
            tree=run.tree,
            simulated_time=run.completion_time,
            algorithm_code=op.code,
        )

    def reduce_batch(
        self,
        batches: "Sequence[Sequence[np.ndarray]] | TickBlock",
        op: ReductionOp,
        tree: "ReductionTree | str" = "topology",
        engine: str = "auto",
    ) -> list[ReduceResult]:
        """Reduce a stream of independent collectives sharing ``op`` + tree.

        ``batches[i]`` is one reduction's per-rank chunk list, or
        ``batches`` is a ready :class:`~repro.util.tickblock.TickBlock`
        (what ``AdaptiveReducer.reduce_many`` passes, one
        :meth:`~repro.util.tickblock.TickBlock.take` per algorithm group).
        On the vector engine every item's rank states fold in one sweep
        over the block's pointer table, and the rank tree runs once with a
        ``(B, n_ranks)`` batch axis broadcasting through every level —
        amortising schedule compilation and kernel dispatch across the
        whole stream.  PR streams take the exact batched path instead
        (module docs).  Each element of the returned list is bitwise-equal
        to ``self.reduce(batches[i], op, tree)``.
        """
        tree = self._resolve_tree(tree)
        if isinstance(batches, TickBlock):
            bad = batches.ranks[batches.ranks != self.n_ranks]
            if bad.size:
                self._check_count(int(bad[0]))
        else:
            for chunks in batches:
                self._check_size(chunks)
        if not len(batches):
            return []
        path = self._engine(op, engine)
        if path == "object":
            # per-item object fallback: each delegated reduce() records its
            # own engine="object" dispatch, so totals still sum to one
            # dispatch per collective
            if _OBS.enabled:
                _OBS.counter("repro_comm_batch_fallback_total").inc()
            if isinstance(batches, TickBlock):
                chunks, k = batches.chunks(), self.n_ranks
                batches = [chunks[i : i + k] for i in range(0, len(chunks), k)]
            return [self.reduce(chunks, op, tree, engine="object") for chunks in batches]
        if _OBS.enabled:
            _OBS.counter("repro_comm_batch_calls_total").inc()
            _OBS.counter("repro_comm_dispatch_total", engine="batch").inc(
                len(batches)
            )
        values = self._execute_block(path, TickBlock.of(batches), op, tree)
        cost = tree_cost(tree, self.topology) if self.topology else 0.0
        return [
            ReduceResult(
                value=float(v), tree=tree, simulated_time=cost, algorithm_code=op.code
            )
            for v in values
        ]

    # -- engines ---------------------------------------------------------------
    def _vector_batch(
        self, block: TickBlock, op: ReductionOp, tree: ReductionTree
    ) -> np.ndarray:
        """One fold sweep for every item's rank states, one tree walk with
        a ``(B, n_ranks)`` batch axis."""
        vops = op.vector_ops
        if tree.kind == "balanced" and _ckernels.has_kernel(vops, "reduce"):
            # fused fast path: fold + balanced rank tree + result extraction
            # for the whole stream in ONE compiled call (bitwise-equal to the
            # fold/reduce_states path below; the engine property tests pin it)
            if _OBS.enabled:
                _OBS.counter("repro_comm_batch_fused_total").inc()
            return _ckernels.reduce_block(block, vops)
        states = op.local_states(block)
        states = tuple(c.reshape(len(block), self.n_ranks) for c in states)
        root = compile_tree(tree).reduce_states(states, vops)
        return np.asarray(vops.result(root), dtype=np.float64).reshape(len(block))

    def _engine(self, op: ReductionOp, engine: str) -> str:
        """The path ``engine`` resolves to for ``op``: ``"vector"``,
        ``"exact"`` or ``"object"``."""
        if engine == "auto":
            if op.supports_vector:
                return "vector"
            return "exact" if op.supports_exact_batch else "object"
        if engine == "vector":
            if not op.supports_vector:
                raise ValueError(
                    f"algorithm {op.code!r} does not support the vector engine "
                    "(no VectorOps, or it needs a per-reduction context)"
                )
            return "vector"
        if engine == "object":
            return "object"
        raise ValueError(f"unknown engine {engine!r} (use 'auto', 'vector' or 'object')")

    def _execute(
        self,
        path: str,
        chunks: "Sequence[np.ndarray] | TickBlock",
        op: ReductionOp,
        tree: ReductionTree,
    ) -> float:
        """Run one collective (a chunk list or a one-item tick block) on a
        resolved path, counting the dispatch: the object walk, or a one-item
        tick block through :meth:`reduce_batch`'s executor."""
        if _OBS.enabled:
            _OBS.counter("repro_comm_dispatch_total", engine=path).inc()
        one_item = isinstance(chunks, TickBlock)
        if path == "object":
            return self._execute_object(chunks.chunks() if one_item else chunks, op, tree)
        block = chunks if one_item else TickBlock.of([chunks])
        return float(self._execute_block(path, block, op, tree)[0])

    def _execute_block(
        self, path: str, block: TickBlock, op: ReductionOp, tree: ReductionTree
    ) -> "Sequence[float]":
        """The value of every item of a tick block on the ``"vector"`` or
        ``"exact"`` path."""
        if path == "exact":
            return op.algorithm.sum_items(block, op.context)
        return self._vector_batch(block, op, tree)

    def _execute_object(
        self, chunks: Sequence[np.ndarray], op: ReductionOp, tree: ReductionTree
    ) -> float:
        """Reference path: per-rank accumulators + per-node Python merges."""
        op = self._contextualize(op, chunks)
        accs: list = [op.local(chunk) for chunk in chunks]
        slots: list = accs + [None] * (self.n_ranks - 1)
        for a, b, out in tree.iter_steps():
            slots[out] = op.combine(slots[a], slots[b])
        return op.finalize(slots[tree.root_slot])

    # -- helpers ---------------------------------------------------------------
    def _check_size(self, seq: Sequence) -> None:
        self._check_count(len(seq))

    def _check_count(self, count: int) -> None:
        if count != self.n_ranks:
            raise ValueError(
                f"expected one entry per rank ({self.n_ranks}), got {count}"
            )

    def _contextualize(self, op: ReductionOp, chunks: Sequence[np.ndarray]) -> ReductionOp:
        """Run the pre-pass (max allreduce) for context-needing algorithms."""
        if not op.algorithm.needs_context or op.context is not None:
            return op
        local_maxes = [
            float(np.max(np.abs(c))) if np.asarray(c).size else 0.0 for c in chunks
        ]
        total = int(sum(np.asarray(c).size for c in chunks))  # repro: allow[FP002] -- integer element counts, not floats
        return op.with_context_for(self.max_allreduce(local_maxes), total)

    def _resolve_tree(self, tree: "ReductionTree | str") -> ReductionTree:
        if isinstance(tree, ReductionTree):
            if tree.n_leaves != self.n_ranks:
                raise ValueError("tree leaf count != communicator size")
            return tree
        resolved = self._trees.get(tree)
        if resolved is None:
            # a communicator's named trees never change: build each once
            # (a ReductionTree's schedule is read-only, so sharing is safe)
            if tree == "balanced":
                resolved = balanced(self.n_ranks)
            elif tree == "serial":
                resolved = serial(self.n_ranks)
            elif tree == "topology":
                if self.topology is not None:
                    resolved = topology_aware_tree(self.topology)
                else:
                    resolved = balanced(self.n_ranks)
            else:
                raise ValueError(f"unknown tree spec {tree!r}")
            self._trees[tree] = resolved
        return resolved
