"""Interfaces shared by every summation algorithm.

The paper treats a parallel sum as a *reduction tree*: leaves are operands,
internal nodes are partial reductions.  To let one tree evaluator drive every
algorithm, each algorithm is exposed in up to three forms:

1. :class:`Accumulator` — a stateful object with ``add`` (leaf deposit),
   ``merge`` (internal tree node) and ``result`` (root).  This is the exact
   analogue of a custom ``MPI_Op`` plus its local accumulation loop, and is
   what the simulated-MPI substrate registers as a reduction operator.
2. :class:`VectorOps` — the same accumulator state as parallel component
   arrays with elementwise ``merge``, used by the level-wise evaluator to run
   ensembles of 2**20-leaf trees in seconds, and (via :meth:`VectorOps.fold`)
   by the collective fast path to produce every rank's local state in one
   batched sweep.
3. ``SummationAlgorithm.sum_array`` — an optimised whole-array kernel used
   for rank-local reductions and the Fig. 4/5 timing study.

Algorithms advertise two static properties the runtime selector consumes:
``cost_rank`` (the paper's expense ordering ST < K < CP < PR) and
``deterministic`` (True when the result is bitwise independent of reduction
order, as for prerounded summation).
"""

from __future__ import annotations

import abc
import copy
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

__all__ = ["SumContext", "Accumulator", "VectorOps", "SummationAlgorithm"]


@dataclass(frozen=True)
class SumContext:
    """Global information an accumulator may need before the reduction starts.

    Prerounded summation is two-pass: the bin placement depends on the global
    maximum magnitude, which in an MPI setting is obtained with a (cheap,
    exactly associative) max-allreduce before the sum.  ``max_abs`` carries
    that value.  ``n_hint`` lets algorithms size overflow-safe blocks.
    """

    max_abs: Optional[float] = None
    n_hint: Optional[int] = None

    @staticmethod
    def for_data(x: np.ndarray) -> "SumContext":
        """Build a context by scanning ``x`` (the local part of the data)."""
        x = np.asarray(x, dtype=np.float64)
        max_abs = float(np.max(np.abs(x))) if x.size else 0.0
        return SumContext(max_abs=max_abs, n_hint=int(x.size))

    @staticmethod
    def for_chunks(chunks: Sequence[np.ndarray]) -> "SumContext":
        """The context of data spread over ``chunks`` (one per rank): the
        largest of their :meth:`for_data` maxima, as a max-allreduce
        yields it, and their total size."""
        max_abs, n = 0.0, 0
        for c in chunks:
            part = SumContext.for_data(c)
            max_abs = max(max_abs, part.max_abs)
            n += part.n_hint
        return SumContext(max_abs=max_abs, n_hint=n)


class Accumulator(abc.ABC):
    """Stateful partial-sum object: the per-node state of a reduction tree."""

    @abc.abstractmethod
    def add(self, x: float) -> None:
        """Deposit a single operand (a leaf of the reduction tree)."""

    def add_array(self, x: np.ndarray) -> None:
        """Deposit many operands; default is a scalar loop, algorithms
        override with vectorised kernels."""
        for v in np.asarray(x, dtype=np.float64).ravel().tolist():
            self.add(v)

    @abc.abstractmethod
    def merge(self, other: "Accumulator") -> None:
        """Combine another partial reduction into this one (tree node)."""

    @abc.abstractmethod
    def result(self) -> float:
        """Round the accumulated state down to a single double (tree root)."""

    def copy(self) -> "Accumulator":
        """An independent copy of this partial reduction; algorithms with
        flat state override the deep copy."""
        return copy.deepcopy(self)


class VectorOps(abc.ABC):
    """Elementwise accumulator-state operations over component arrays.

    A *state* is a tuple of equally shaped float64 arrays; element ``i`` of
    every component together encodes one accumulator.  ``merge`` combines two
    such batches elementwise, which is exactly what one level of a balanced
    reduction tree does for all its nodes at once.
    """

    #: number of float64 component arrays in a state
    n_components: int = 1

    #: name of this algebra's compiled balanced-sweep kernel in
    #: :mod:`repro.trees._ckernels` (None = NumPy sweep only).  A tagged
    #: kernel MUST be bitwise-equal to the NumPy level sweep; the engine
    #: property tests pin both against the generic node-walk.
    ckernel: Optional[str] = None

    @abc.abstractmethod
    def init(self, values: np.ndarray) -> Tuple[np.ndarray, ...]:
        """Lift raw operands into single-operand accumulator states."""

    @abc.abstractmethod
    def merge(
        self, a: Tuple[np.ndarray, ...], b: Tuple[np.ndarray, ...]
    ) -> Tuple[np.ndarray, ...]:
        """Elementwise pairwise merge of two state batches."""

    @abc.abstractmethod
    def result(self, state: Tuple[np.ndarray, ...]) -> np.ndarray:
        """Collapse states to plain doubles (the root rounding)."""

    def merge_leaves(
        self, a_values: np.ndarray, b_values: np.ndarray
    ) -> Tuple[np.ndarray, ...]:
        """Merge two arrays of *raw operands* into accumulator states.

        Semantically ``merge(init(a), init(b))`` — the first level of any
        reduction tree, where both children are leaves.  Algorithms override
        this to skip materialising the all-zero compensation components of
        singleton states (and the operand copies ``init`` makes); overrides
        must stay bitwise equal to the default, which the engine property
        tests pin.
        """
        return self.merge(self.init(a_values), self.init(b_values))

    def fold(
        self, matrix: np.ndarray, lengths: np.ndarray
    ) -> Tuple[np.ndarray, ...]:
        """Vectorised rank-local phase: fold every row of a padded chunk
        matrix into one accumulator state per row.

        ``matrix`` is ``(R, M)`` float64 with row ``r`` holding rank ``r``'s
        chunk in its first ``lengths[r]`` columns and zeros after; the return
        value is an ``n_components``-tuple of ``(R,)`` arrays, row ``r``'s
        state bitwise-equal to the object path
        ``make_accumulator(); add_array(chunk_r)`` — the contract the
        collective fast path (:meth:`repro.mpi.comm.SimComm.reduce`) relies
        on and the engine property tests pin.

        The base implementation is a masked serial column sweep: column
        ``j`` is merged into the running states as a batch of singleton
        operands, with an ``np.where`` guard so padding columns are bitwise
        inert.  That reproduces the scalar ``add``-per-element accumulate
        order, which matches the object path only for algorithms whose
        ``add_array`` *is* the scalar loop and whose ``merge`` against a
        singleton state reproduces ``add``; every algorithm that overrides
        ``add_array`` with a blocked kernel must override ``fold`` to match
        it (all bundled VectorOps algebras do).
        """
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.ndim != 2:
            raise ValueError("fold expects a (R, M) chunk matrix")
        n_rows, width = matrix.shape
        lengths = np.asarray(lengths, dtype=np.int64)
        state = tuple(np.zeros(n_rows, dtype=np.float64) for _ in range(self.n_components))
        for j in range(width):
            merged = self.merge(state, self.init(matrix[:, j]))
            active = j < lengths
            state = tuple(
                np.where(active, m, s) for m, s in zip(merged, state)
            )
        return state

    def merge_at(
        self,
        buffers: Tuple[np.ndarray, ...],
        left: np.ndarray,
        right: np.ndarray,
        out: np.ndarray,
    ) -> None:
        """Gather-merge-scatter along the slot axis of flat state buffers.

        ``buffers`` are component arrays whose *last* axis indexes
        accumulator slots; leading axes (if any) are ensemble lanes that
        broadcast through the elementwise ``merge``.  The states at slots
        ``left`` and ``right`` are merged pairwise and written to slots
        ``out`` in place — one dependency level of a compiled reduction
        schedule (:mod:`repro.trees.schedule`), for a whole ensemble, in a
        single call.  ``left``/``right``/``out`` must be disjoint within a
        call, which a leveled schedule guarantees (each slot is written once
        and read once).
        """
        a = tuple(c[..., left] for c in buffers)
        b = tuple(c[..., right] for c in buffers)
        merged = self.merge(a, b)
        for c, m in zip(buffers, merged):
            c[..., out] = m


class SummationAlgorithm(abc.ABC):
    """A named summation strategy with the three execution forms.

    Subclasses set the class attributes and implement
    :meth:`make_accumulator` and :meth:`sum_array`.
    """

    #: short code used in the paper's figures: "ST", "K", "CP", "PR", ...
    code: str = "?"
    #: human-readable name
    name: str = "?"
    #: the paper's cost ordering; higher = more expensive (ST=0 ... PR=3)
    cost_rank: int = 0
    #: True when the result is bitwise independent of the reduction tree
    deterministic: bool = False
    #: True when sum_array / accumulators need a SumContext with max_abs
    needs_context: bool = False
    #: True when ``sum_items`` sums whole collectives in one batched pass
    #: whose result cannot depend on the reduction tree
    exact_batch: bool = False

    @abc.abstractmethod
    def make_accumulator(self, context: Optional[SumContext] = None) -> Accumulator:
        """Create an empty accumulator (optionally using global context)."""

    @abc.abstractmethod
    def sum_array(self, x: np.ndarray, context: Optional[SumContext] = None) -> float:
        """Optimised whole-array sum in this algorithm's natural order."""

    @property
    def vector_ops(self) -> Optional[VectorOps]:
        """Vectorised state ops, or ``None`` if the algorithm has no
        elementwise-mergeable state (e.g. order-imposing sorted sums)."""
        return None

    def __call__(self, x: np.ndarray, context: Optional[SumContext] = None) -> float:
        return self.sum_array(np.asarray(x, dtype=np.float64), context)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.code} cost_rank={self.cost_rank}>"
