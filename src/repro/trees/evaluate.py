"""Tree evaluation: compute the floating-point value a reduction tree yields.

Semantics
---------
Every leaf is a *singleton accumulator* holding one operand (the local value
a rank contributes), and every internal node is an accumulator ``merge`` —
exactly the custom-``MPI_Op`` view of a parallel reduction.  The root's
``result()`` is the value of the tree.

Four execution strategies produce identical semantics:

* :func:`evaluate_tree_generic` — literal node-walk over the merge schedule.
  Works for any shape and any algorithm; O(n) Python-level merges.
* level-wise vectorised evaluation for **balanced** trees of algorithms with
  :class:`~repro.summation.base.VectorOps`; single trees use
  :func:`evaluate_balanced_vectorized`, ensembles the 2-D
  :func:`balanced_ensemble_vops` sweep (each tree level is one batch of
  elementwise merges over every ensemble member at once);
* position-stepped vectorised evaluation for **serial** trees across a whole
  *ensemble* of leaf permutations at once (see
  :mod:`repro.trees.serial_batch`);
* compiled level schedules for **arbitrary** shapes — random, skewed,
  fault-perturbed — via :mod:`repro.trees.schedule`: the structure is
  lowered once to per-level gather indices and every level becomes one
  batched ``merge_at`` over ``(n_trees, n_nodes)`` state buffers.

Balanced ensembles of algebras that advertise a compiled kernel
additionally route through the optional fused C sweep of
:mod:`repro.trees._ckernels` (bitwise-identical, NumPy fallback when no
compiler is present or ``REPRO_NO_CKERNELS`` is set).

:func:`evaluate_tree` and :func:`evaluate_ensemble` pick the fastest valid
strategy; tests pin every strategy against the generic walk bitwise so the
fast paths cannot silently diverge.

Deterministic algorithms (PR, EX) are evaluated through their real
accumulators in the generic path, but :func:`evaluate_ensemble` exploits
``algorithm.deterministic`` to compute once and tile — after the test suite
has proven bitwise tree-independence.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Union

import numpy as np

from repro.summation.base import SumContext, SummationAlgorithm, VectorOps
from repro.trees import _ckernels
from repro.trees.schedule import compile_tree
from repro.trees.serial_batch import serial_ensemble_standard, serial_ensemble_vops
from repro.trees.tree import ReductionTree
from repro.util.pool import run_shards, shard_plan
from repro.util.rng import SeedLike, permutation_stream

__all__ = [
    "evaluate_tree",
    "evaluate_tree_generic",
    "evaluate_balanced_vectorized",
    "balanced_ensemble_vops",
    "evaluate_ensemble",
]

#: shapes `evaluate_ensemble` accepts: a named extreme or any explicit tree
ShapeLike = Union[str, ReductionTree]


def evaluate_tree_generic(
    tree: ReductionTree,
    data: np.ndarray,
    algorithm: SummationAlgorithm,
    context: Optional[SumContext] = None,
) -> float:
    """Literal node-walk: every internal node is one accumulator merge.

    This is the semantic oracle every fast path is pinned against.
    """
    data = np.asarray(data, dtype=np.float64).ravel()
    if data.size != tree.n_leaves:
        raise ValueError(f"{data.size} operands for a {tree.n_leaves}-leaf tree")
    if context is None and algorithm.needs_context:
        context = SumContext.for_data(data)
    if tree.n_leaves == 1:
        acc = algorithm.make_accumulator(context)
        acc.add(float(data[0]))
        return acc.result()
    slots: list = [None] * tree.n_nodes
    for i, v in enumerate(data.tolist()):
        acc = algorithm.make_accumulator(context)
        acc.add(v)
        slots[i] = acc
    for a, b, out in tree.iter_steps():
        left, right = slots[a], slots[b]
        left.merge(right)
        slots[out] = left
        slots[a] = slots[b] = None  # free promptly; each slot is read once
    return slots[tree.root_slot].result()


def evaluate_balanced_vectorized(
    data: np.ndarray,
    algorithm: SummationAlgorithm,
    context: Optional[SumContext] = None,
) -> float:
    """Level-wise evaluation of the canonical balanced tree via VectorOps.

    Matches :func:`shapes.balanced`'s schedule: nodes are paired in order at
    each level and an odd trailing node is carried up unchanged.
    """
    vops = algorithm.vector_ops
    if vops is None:
        raise TypeError(f"{algorithm.code} has no vectorised state ops")
    data = np.asarray(data, dtype=np.float64).ravel()
    if data.size == 0:
        raise ValueError("empty data")
    return float(balanced_ensemble_vops(data[np.newaxis, :], vops)[0])


def balanced_ensemble_vops(
    permuted: np.ndarray, vops: VectorOps, *, allow_ckernel: bool = True
) -> np.ndarray:
    """Balanced-tree values of every row of ``permuted`` in one matrix sweep.

    ``permuted`` has shape ``(P, n)``: row ``p`` is the data in tree ``p``'s
    leaf order.  The level loop of :func:`evaluate_balanced_vectorized` runs
    on ``(P, width)`` component matrices, so one ensemble costs the same
    number of NumPy calls as a single tree.  Each row's value is bitwise
    equal to the generic node-walk of :func:`shapes.balanced` on that row.

    When the algebra advertises a compiled kernel and the optional
    :mod:`repro.trees._ckernels` backend is available, the sweep runs fused
    in C out of an L1-resident scratch buffer (bitwise-equal by
    construction and pinned by the engine tests); ``allow_ckernel=False``
    forces the pure-NumPy sweep, which the equivalence tests use to pin
    both implementations independently.
    """
    permuted = np.asarray(permuted, dtype=np.float64)
    if permuted.ndim != 2:
        raise ValueError("expected a (P, n) matrix of permuted data")
    width = permuted.shape[1]
    if width == 0:
        raise ValueError("empty data")
    if width == 1:
        state = vops.init(permuted)
        return np.asarray(
            vops.result(tuple(c[:, 0] for c in state)), dtype=np.float64
        )
    if allow_ckernel and _ckernels.has_kernel(vops):
        return _ckernels.sweep_matrix(permuted, vops)
    # First level straight from the raw operands: ``merge_leaves`` skips the
    # operand copy and the all-zero compensation components ``init`` would
    # materialise, roughly halving the sweep's memory traffic.
    even = width - (width % 2)
    state = vops.merge_leaves(permuted[:, :even:2], permuted[:, 1:even:2])
    if width % 2:
        carry = vops.init(permuted[:, width - 1 : width])
        state = tuple(np.concatenate((m, c), axis=1) for m, c in zip(state, carry))
    width = state[0].shape[1]
    while width > 1:
        even = width - (width % 2)
        heads = tuple(c[:, :even:2] for c in state)
        tails = tuple(c[:, 1:even:2] for c in state)
        merged = vops.merge(heads, tails)
        if width % 2:
            carry = tuple(c[:, width - 1 : width] for c in state)
            merged = tuple(
                np.concatenate((m, c), axis=1) for m, c in zip(merged, carry)
            )
        state = merged
        width = state[0].shape[1]
    return np.asarray(vops.result(tuple(c[:, 0] for c in state)), dtype=np.float64)


def evaluate_tree(
    tree: ReductionTree,
    data: np.ndarray,
    algorithm: SummationAlgorithm,
    context: Optional[SumContext] = None,
    *,
    force_generic: bool = False,
) -> float:
    """Value of ``tree`` applied to ``data`` under ``algorithm``.

    Dispatches to the fastest strategy whose semantics match the generic
    node-walk; pass ``force_generic=True`` to pin the literal walk (used by
    the equivalence tests).  Arbitrary (``custom``-kind) shapes of VectorOps
    algorithms run through the compiled level schedule of
    :mod:`repro.trees.schedule` instead of per-node Python merges.
    """
    data = np.asarray(data, dtype=np.float64).ravel()
    if context is None and algorithm.needs_context:
        context = SumContext.for_data(data)
    if force_generic:
        return evaluate_tree_generic(tree, data, algorithm, context)
    vops = algorithm.vector_ops
    if vops is None:
        return evaluate_tree_generic(tree, data, algorithm, context)
    if tree.kind == "balanced":
        return evaluate_balanced_vectorized(data, algorithm, context)
    if tree.kind == "serial":
        out = serial_ensemble_vops(data[np.newaxis, :], vops)
        return float(out[0])
    out = compile_tree(tree).execute(data[np.newaxis, :], vops)
    return float(out[0])


def evaluate_ensemble(
    data: np.ndarray,
    shape: ShapeLike,
    algorithm: SummationAlgorithm,
    n_trees: int,
    seed: SeedLike = None,
    context: Optional[SumContext] = None,
    *,
    batch_elems: int = 1 << 24,
    perms: Optional[np.ndarray] = None,
    workers: Optional[int] = None,
) -> np.ndarray:
    """Values of ``n_trees`` same-shape trees with permuted leaf assignments.

    This is the paper's core measurement: "we generate distinct reduction
    trees by randomly assigning operands to leaves" and study the spread of
    the computed sums.  ``shape`` is ``"balanced"``, ``"serial"``, or any
    explicit :class:`ReductionTree` (random, skewed, fault-perturbed, ...)
    whose leaf count matches ``data``.

    The first tree always uses the identity assignment.  Deterministic
    algorithms are computed once and tiled (their tree-independence is
    established by the property-test suite).  For VectorOps algorithms every
    shape is evaluated as a batched matrix sweep — balanced/serial through
    their dedicated 2-D kernels, everything else through the compiled level
    schedule — with working memory bounded by ``batch_elems``.

    ``perms`` optionally supplies the leaf assignments explicitly as an
    ``(n_trees, n)`` integer index matrix, overriding the seeded stream —
    used when several paths must consume bit-identical permutations (e.g.
    the perf-trajectory bench) or when assignments come from a recorded
    trace.  Indices are bounds-checked once up front.

    ``workers`` shards the tree/permutation axis over the persistent
    multicore pool (:func:`repro.util.pool.run_shards`): the data and every
    permutation row are written once into the shared input arena (a seeded
    stream writes each row there directly, so the ``(n_trees, n)`` matrix
    is never built in private memory), contiguous row shards evaluate in
    worker processes against read-only views of it, and the value vector
    is bitwise-identical to the serial sweep — each tree's value is
    independent of every other tree's.  ``workers=None`` defers to
    ``REPRO_WORKERS``/cpu-count behind the adaptive bytes-and-items cutover;
    an explicit ``workers >= 2`` always parallelises; deterministic
    algorithms always use the compute-once-and-tile shortcut.
    """
    data = np.asarray(data, dtype=np.float64).ravel()
    n = data.size
    if n == 0:
        raise ValueError("empty data")
    if isinstance(shape, ReductionTree):
        tree: Optional[ReductionTree] = shape
        if tree.n_leaves != n:
            raise ValueError(
                f"{n} operands for a {tree.n_leaves}-leaf ensemble shape"
            )
        kind = tree.kind
    elif shape in ("balanced", "serial"):
        tree = None
        kind = shape
    else:
        raise ValueError(
            f"shape must be 'balanced', 'serial' or a ReductionTree, got {shape!r}"
        )
    if context is None and algorithm.needs_context:
        context = SumContext.for_data(data)

    if algorithm.deterministic:
        value = algorithm.sum_array(data, context)
        return np.full(n_trees, value, dtype=np.float64)

    if perms is not None:
        perm_arr = np.asarray(perms)
        if perm_arr.ndim != 2 or perm_arr.shape != (n_trees, n):
            raise ValueError(
                f"perms must have shape ({n_trees}, {n}), got {perm_arr.shape}"
            )
        if not np.issubdtype(perm_arr.dtype, np.integer):
            raise ValueError("perms must be an integer index matrix")
        # the batched gather runs with mode="clip" (no per-element bounds
        # checks), so validate user-supplied indices once here
        if perm_arr.size and (perm_arr.min() < 0 or perm_arr.max() >= n):
            raise ValueError("perms contains out-of-range leaf indices")
        perm_iter: Iterable[np.ndarray] = iter(perm_arr)
    else:
        perm_iter = permutation_stream(n, n_trees, seed)

    # multicore cutover: shard the permutation axis over the persistent pool
    plan = shard_plan(n_trees, n_trees * n * 8 + data.nbytes, workers)
    if plan[1] > 1:

        def fill(views) -> None:
            data_v, perm_v = views
            data_v[:] = data
            if perms is not None:
                perm_v[:] = perm_arr
                return
            for row, p in zip(perm_v, perm_iter):
                row[:] = p

        values, _ = run_shards(
            _ensemble_task,
            n_trees,
            plan,
            [(np.float64, (n,)), (np.int64, (n_trees, n))],
            fill,
            np.float64,
            (tree if tree is not None else kind, algorithm, context, batch_elems),
            path="ensemble",
        )
        return values

    vops = algorithm.vector_ops

    if kind == "serial" and algorithm.code == "ST":
        # cumsum is a true left-to-right recurrence: fastest serial kernel
        return _batched_perm_ensemble(
            data, perm_iter, n_trees, serial_ensemble_standard, batch_elems
        )
    if vops is not None:
        if kind == "balanced" and n >= 2 and _ckernels.has_kernel(vops):
            # fused C sweep: the leaf gather happens inside the kernel, so
            # the permuted operand matrix is never materialised at all
            perm_source = perm_arr if perms is not None else perm_iter
            return _batched_balanced_indexed(
                data, perm_source, n_trees, vops, batch_elems
            )
        if kind == "balanced":
            kernel: Callable[[np.ndarray], np.ndarray] = (
                lambda mat: balanced_ensemble_vops(mat, vops)
            )
            # Cache-block the matrix sweep: the level loop revisits every
            # row log2(n) times, so blocks of ~L2-sized working set are
            # several times faster than one memory-bound full-ensemble pass.
            batch_elems = min(batch_elems, max(8 * n, _BALANCED_BLOCK_ELEMS))
        elif kind == "serial":
            kernel = lambda mat: serial_ensemble_vops(mat, vops)
        else:
            assert tree is not None  # custom kinds only arise from real trees
            compiled = compile_tree(tree)
            kernel = lambda mat: compiled.execute(mat, vops)
            # the engine's slot buffers are ~2x n_components wider than the
            # permuted operand matrix; shrink the batch budget to match
            batch_elems = max(n, batch_elems // (2 * max(vops.n_components, 1)))
        return _batched_perm_ensemble(data, perm_iter, n_trees, kernel, batch_elems)

    # no vectorised state ops: literal node-walk per ensemble member
    if tree is None:
        if kind == "balanced":
            from repro.trees.shapes import balanced as balanced_shape

            tree = balanced_shape(n)
        else:
            from repro.trees.shapes import serial as serial_shape

            tree = serial_shape(n)
    return np.array(
        [
            evaluate_tree_generic(tree, data[p], algorithm, context)
            for p in perm_iter
        ]
    )


#: L2-sized row-block budget for the balanced matrix sweep (in float64 elems)
_BALANCED_BLOCK_ELEMS = 1 << 18


def _ensemble_task(
    start: int,
    stop: int,
    inputs: list,
    out: np.ndarray,
    shape: ShapeLike,
    algorithm: SummationAlgorithm,
    context: Optional[SumContext],
    batch_elems: int,
) -> None:
    """Shard task (:func:`~repro.util.pool.run_shards`): the values of
    permutation rows ``[start, stop)`` into ``out``, through the serial
    strategy dispatch, so every fast path (C sweeps, compiled schedules,
    cumsum serial kernels) still applies inside the worker."""
    data, perms = inputs
    out[:] = evaluate_ensemble(
        data,
        shape,
        algorithm,
        stop - start,
        context=context,
        batch_elems=batch_elems,
        perms=perms[start:stop],
        workers=1,
    )


def _batched_balanced_indexed(
    data: np.ndarray,
    perm_source: Union[np.ndarray, Iterable[np.ndarray]],
    n_trees: int,
    vops: VectorOps,
    batch_elems: int,
) -> np.ndarray:
    """Balanced ensemble via the compiled indexed sweep, memory-bounded.

    A pre-stacked ``(n_trees, n)`` permutation matrix is sliced block-wise
    with zero copies; a streamed permutation source is staged into a
    ``batch_elems``-bounded index block first.
    """
    n = data.size
    data = np.ascontiguousarray(data, dtype=np.float64)
    out = np.empty(n_trees, dtype=np.float64)
    per_batch = min(max(1, batch_elems // max(n, 1)), max(n_trees, 1))
    if isinstance(perm_source, np.ndarray):
        arr = np.ascontiguousarray(perm_source, dtype=np.int64)
        for s in range(0, n_trees, per_batch):
            blk = arr[s : s + per_batch]
            _ckernels.sweep_indexed(data, blk, vops, out=out[s : s + blk.shape[0]])
        return out
    idx = np.empty((per_batch, n), dtype=np.int64)
    start = 0
    filled = 0
    for p in perm_source:
        idx[filled] = p
        filled += 1
        if filled == per_batch:
            _ckernels.sweep_indexed(data, idx, vops, out=out[start : start + filled])
            start += filled
            filled = 0
    if filled:
        _ckernels.sweep_indexed(
            data, idx[:filled], vops, out=out[start : start + filled]
        )
    return out


def _batched_perm_ensemble(
    data: np.ndarray,
    perms: Iterable[np.ndarray],
    n_trees: int,
    kernel: Callable[[np.ndarray], np.ndarray],
    batch_elems: int,
) -> np.ndarray:
    """Run an ensemble kernel over permutation batches bounded in memory.

    Permutations are staged into a preallocated ``(per_batch, n)`` index
    matrix and the whole block is gathered with one ``np.take(...,
    mode="clip")`` call — the fastest NumPy gather for this access pattern
    (clip mode skips per-element bounds checks; indices are trusted here
    because permutation streams are valid by construction and user-supplied
    ``perms`` are validated up front).  No per-tree Python lists, no
    ``vstack`` copies, no slow row-at-a-time buffered takes.
    """
    n = data.size
    per_batch = min(max(1, batch_elems // max(n, 1)), max(n_trees, 1))
    out = np.empty(n_trees, dtype=np.float64)
    idx = np.empty((per_batch, n), dtype=np.intp)
    mat = np.empty((per_batch, n), dtype=np.float64)
    start = 0
    filled = 0
    for p in perms:
        idx[filled] = p
        filled += 1
        if filled == per_batch:
            np.take(data, idx, out=mat, mode="clip")
            out[start : start + filled] = kernel(mat)
            start += filled
            filled = 0
    if filled:
        np.take(data, idx[:filled], out=mat[:filled], mode="clip")
        out[start : start + filled] = kernel(mat[:filled])
    return out
