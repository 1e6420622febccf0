"""Custom reduction operators: the ``MPI_Op`` layer over summation
accumulators.

The paper's Fig. 4 experiment "globally reduce[s] the local sums by using
MPI_Reduce with custom reduction operators for Kahan, composite precision,
and prerounded summations".  A :class:`ReductionOp` packages a summation
algorithm the same way: the *local* phase turns a rank's chunk into an
accumulator (the custom datatype an MPI op would ship), and the *combine*
phase merges two accumulators (the op callback).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.summation.base import Accumulator, SumContext, SummationAlgorithm, VectorOps
from repro.trees import _ckernels
from repro.util.chunking import pack_ragged
from repro.util.tickblock import TickBlock

__all__ = ["ReductionOp", "make_reduction_op"]


@dataclass(frozen=True)
class ReductionOp:
    """A summation algorithm packaged as a reduction operator.

    ``context`` carries pre-pass information (the global max magnitude for
    PR); build it with :meth:`with_context_for` before reducing data the
    algorithm needs to see globally.
    """

    algorithm: SummationAlgorithm
    context: Optional[SumContext] = None

    @property
    def code(self) -> str:
        return self.algorithm.code

    def with_context_for(self, global_max_abs: float, n_hint: int | None = None) -> "ReductionOp":
        """Bind the global-max context (the max-allreduce's result)."""
        return ReductionOp(
            self.algorithm, SumContext(max_abs=global_max_abs, n_hint=n_hint)
        )

    @property
    def vector_ops(self) -> "VectorOps | None":
        """The algorithm's batched state algebra (None = object path only)."""
        return self.algorithm.vector_ops

    @property
    def supports_vector(self) -> bool:
        """True when the collective fast path can execute this op: the
        algorithm exposes VectorOps and needs no per-reduction context."""
        return self.algorithm.vector_ops is not None and not self.algorithm.needs_context

    @property
    def supports_exact_batch(self) -> bool:
        """True when the algorithm sums whole collectives in one batched
        pass (``sum_items``) whose result cannot depend on the rank tree:
        PR, whose fold deposits are exact integers."""
        return self.algorithm.exact_batch

    def local(self, chunk: np.ndarray) -> Accumulator:
        """Rank-local phase: fold a chunk into a fresh accumulator."""
        acc = self.algorithm.make_accumulator(self.context)
        acc.add_array(np.asarray(chunk, dtype=np.float64))
        return acc

    def local_states(self, block: TickBlock):
        """Vectorised rank-local phase: the states of every chunk of a
        :class:`repro.util.tickblock.TickBlock` in one sweep, each row
        bitwise-equal to :meth:`local` on the corresponding chunk (see
        :meth:`repro.summation.base.VectorOps.fold`).

        The compiled kernel reads the chunks through the block's pointer
        table; the NumPy fallback pads them into a matrix first.
        """
        vops = self._require_vector_ops()
        if _ckernels.has_kernel(vops, "fold"):
            return _ckernels.fold_block(block, vops)
        matrix, lengths = pack_ragged(block.chunks())
        return vops.fold(matrix, lengths)

    def _require_vector_ops(self) -> VectorOps:
        vops = self.algorithm.vector_ops
        if vops is None:
            raise TypeError(
                f"algorithm {self.code!r} has no VectorOps; use the object path"
            )
        return vops

    def combine(self, a: Accumulator, b: Accumulator) -> Accumulator:
        """Op callback: merge ``b`` into ``a`` and return ``a``."""
        a.merge(b)
        return a

    def finalize(self, acc: Accumulator) -> float:
        return acc.result()


def make_reduction_op(
    algorithm: SummationAlgorithm, context: Optional[SumContext] = None
) -> ReductionOp:
    """Convenience constructor mirroring ``MPI.Op.Create``."""
    return ReductionOp(algorithm, context)
