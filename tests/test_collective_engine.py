"""Vectorized collective engine: bitwise pins against the object path.

The compiled collective path (``SimComm`` with ``engine="vector"``: one
:meth:`VectorOps.fold` sweep for the rank-local phase, then the rank tree as
a compiled level schedule) is only admissible because every value it
produces is bitwise equal to the object path — one accumulator per rank and
one Python ``op.combine`` per tree node.  These tests pin that equality for
every VectorOps algorithm over ragged chunk lists (including empty chunks
and single-rank communicators), balanced/serial/random/topology trees,
arrival-order reductions, the batched ``reduce_batch`` stream, and the
serving layer (``AdaptiveReducer.reduce_many`` + the batched profiler).
PR's exact batched path is pinned the same way against the object walk
and against scalar deposits (``TestExactPrerounded``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.fp.properties import exponent
from repro.mpi.comm import SimComm
from repro.mpi.ops import make_reduction_op
from repro.mpi.topology import MachineTopology
from repro.selection.profile import StreamProfile, profile_batch
from repro.selection.selector import AdaptiveReducer
from repro.summation import get_algorithm
from repro.summation.prerounded import PreroundedAccumulator
from repro.trees import _ckernels
from repro.trees.shapes import balanced, random_shape, serial
from repro.util.chunking import pack_ragged

#: every algorithm exposing VectorOps (the vector-capable collective ops)
VOPS_CODES = ("ST", "K", "KBN", "CP", "PW", "DD")

_PROFILE_FIELDS = (
    "n", "max_abs", "min_abs_nonzero",
    "abs_sum_hi", "abs_sum_lo", "sum_hi", "sum_lo",
)


def _bits_equal(a: float, b: float) -> bool:
    return np.float64(a).tobytes() == np.float64(b).tobytes()


def _ragged_chunks(n_ranks: int, seed: int, max_len: int = 120) -> list:
    """Adversarial rank chunks: ragged lengths, empties, zeros and -0.0."""
    rng = np.random.default_rng(seed)
    chunks = []
    for r in range(n_ranks):
        w = int(rng.integers(0, max_len))
        c = rng.uniform(-1.0, 1.0, w) * 10.0 ** rng.integers(-9, 10, size=w)
        if w and rng.random() < 0.5:
            idx = rng.integers(0, w, size=max(1, w // 5))
            c[idx] = 0.0
            c[idx[: len(idx) // 2]] = -0.0
        chunks.append(c)
    return chunks


def _trees(n_ranks: int, seed: int):
    yield balanced(n_ranks)
    yield serial(n_ranks)
    yield random_shape(n_ranks, seed=seed)


class TestVectorEngineBitwise:
    @pytest.mark.parametrize("code", VOPS_CODES)
    @pytest.mark.parametrize("n_ranks", [1, 2, 3, 7, 16])
    def test_vector_equals_object_over_trees(self, code, n_ranks):
        comm = SimComm(n_ranks)
        op = make_reduction_op(get_algorithm(code))
        for seed in range(4):
            chunks = _ragged_chunks(n_ranks, seed=seed * 31 + n_ranks)
            for tree in _trees(n_ranks, seed=seed):
                ref = comm.reduce(chunks, op, tree, engine="object").value
                out = comm.reduce(chunks, op, tree, engine="vector").value
                assert _bits_equal(ref, out), (code, n_ranks, seed)

    @pytest.mark.parametrize("code", VOPS_CODES)
    def test_topology_tree_and_cost_metadata(self, code):
        topo = MachineTopology(nodes=2, sockets_per_node=2, cores_per_socket=3)
        comm = SimComm(topology=topo)
        op = make_reduction_op(get_algorithm(code))
        chunks = _ragged_chunks(comm.n_ranks, seed=5)
        ref = comm.reduce(chunks, op, "topology", engine="object")
        out = comm.reduce(chunks, op, "topology", engine="vector")
        assert _bits_equal(ref.value, out.value)
        assert out.simulated_time == ref.simulated_time
        assert out.algorithm_code == code

    @pytest.mark.parametrize("code", ["K", "CP", "DD"])
    def test_nondeterministic_same_seed_same_bits(self, code):
        op = make_reduction_op(get_algorithm(code))
        chunks = _ragged_chunks(12, seed=77)
        runs_obj = [
            SimComm(12, seed=3).reduce_nondeterministic(
                chunks, op, jitter=0.5, engine="object"
            )
            for _ in range(3)
        ]
        runs_vec = [
            SimComm(12, seed=3).reduce_nondeterministic(
                chunks, op, jitter=0.5, engine="vector"
            )
            for _ in range(3)
        ]
        for a, b in zip(runs_obj, runs_vec):
            assert _bits_equal(a.value, b.value)
            assert np.array_equal(a.tree.parents(), b.tree.parents())

    def test_auto_engine_matches_explicit_vector(self):
        comm = SimComm(6)
        op = make_reduction_op(get_algorithm("K"))
        chunks = _ragged_chunks(6, seed=11)
        auto = comm.reduce(chunks, op, "balanced").value
        vec = comm.reduce(chunks, op, "balanced", engine="vector").value
        assert _bits_equal(auto, vec)

    def test_allreduce_broadcasts_one_bit_pattern(self):
        comm = SimComm(5)
        op = make_reduction_op(get_algorithm("CP"))
        chunks = _ragged_chunks(5, seed=13)
        values = comm.allreduce(chunks, op, "balanced")
        assert len(values) == 5
        assert len({np.float64(v).tobytes() for v in values}) == 1


class TestLocalPhase:
    @pytest.mark.parametrize("code", VOPS_CODES)
    def test_fold_matrix_rows_equal_object_accumulators(self, code):
        alg = get_algorithm(code)
        op = make_reduction_op(alg)
        chunks = _ragged_chunks(10, seed=23)
        matrix, lengths = pack_ragged(chunks)
        states = op.local_matrix(matrix, lengths)
        values = np.asarray(alg.vector_ops.result(states), dtype=np.float64)
        for r, chunk in enumerate(chunks):
            acc = alg.make_accumulator(None)
            acc.add_array(chunk)
            assert _bits_equal(acc.result(), values[r]), (code, r)

    @pytest.mark.parametrize("code", VOPS_CODES)
    def test_local_states_equals_numpy_fold(self, code):
        """The compiled pointer-table kernels and the NumPy fold agree."""
        alg = get_algorithm(code)
        op = make_reduction_op(alg)
        chunks = _ragged_chunks(9, seed=29)
        states = op.local_states(chunks)
        matrix, lengths = pack_ragged(chunks)
        ref = alg.vector_ops.fold(matrix, lengths)
        assert len(states) == len(ref)
        for got, want in zip(states, ref):
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    @pytest.mark.parametrize("code", ["ST", "K", "KBN", "CP", "DD"])
    def test_fold_chunks_kernel_matches_numpy_fold(self, code):
        vops = get_algorithm(code).vector_ops
        if not _ckernels.has_fold_kernel(vops):
            pytest.skip("compiled fold kernels unavailable")
        chunks = _ragged_chunks(11, seed=37)
        got = _ckernels.fold_chunks(chunks, vops)
        matrix, lengths = pack_ragged(chunks)
        want = vops.fold(matrix, lengths)
        for g, w in zip(got, want):
            assert np.asarray(g).tobytes() == np.asarray(w).tobytes()

    def test_local_matrix_without_vops_raises(self):
        op = make_reduction_op(get_algorithm("PR"))
        with pytest.raises(TypeError):
            op.local_matrix(np.zeros((1, 1)), np.array([1]))


class TestEngineSelection:
    def test_pr_vector_engine_raises(self):
        comm = SimComm(4)
        op = make_reduction_op(get_algorithm("PR"))
        chunks = [np.arange(1.0, 5.0) for _ in range(4)]
        with pytest.raises(ValueError, match="vector engine"):
            comm.reduce(chunks, op, "balanced", engine="vector")

    def test_unknown_engine_raises(self):
        comm = SimComm(2)
        op = make_reduction_op(get_algorithm("ST"))
        with pytest.raises(ValueError, match="unknown engine"):
            comm.reduce([np.ones(2)] * 2, op, "balanced", engine="simd")

    def test_supports_vector_flags(self):
        assert make_reduction_op(get_algorithm("K")).supports_vector
        assert not make_reduction_op(get_algorithm("PR")).supports_vector


class TestReduceBatch:
    @pytest.mark.parametrize("code", ["ST", "K", "CP", "DD"])
    def test_batch_equals_reduce_loop(self, code):
        comm = SimComm(6)
        op = make_reduction_op(get_algorithm(code))
        batches = [_ragged_chunks(6, seed=100 + i) for i in range(7)]
        got = comm.reduce_batch(batches, op, "balanced")
        for result, chunks in zip(got, batches):
            ref = comm.reduce(chunks, op, "balanced")
            assert _bits_equal(result.value, ref.value)
            assert result.algorithm_code == ref.algorithm_code
            assert result.simulated_time == ref.simulated_time

    def test_empty_batch(self):
        comm = SimComm(3)
        op = make_reduction_op(get_algorithm("K"))
        assert comm.reduce_batch([], op, "balanced") == []

    def test_batch_checks_rank_count(self):
        comm = SimComm(3)
        op = make_reduction_op(get_algorithm("K"))
        with pytest.raises(ValueError):
            comm.reduce_batch([[np.ones(2)] * 2], op, "balanced")


def _scalar_pr(chunks) -> float:
    """PR by scalar deposits: the max pre-pass, then one ``add`` per operand
    (``math.ldexp``/``round`` arithmetic, independent of the array paths)."""
    flat = np.concatenate([np.asarray(c, dtype=np.float64).ravel() for c in chunks])
    max_abs = float(np.max(np.abs(flat))) if flat.size else 0.0
    acc = PreroundedAccumulator(exponent(max_abs) if max_abs else 0)
    for v in flat.tolist():
        acc.add(v)
    return acc.result()


def _assert_pr_parity(comm, batches, tree, scalar=True):
    """PR from ``reduce_batch`` and from ``reduce`` on ``engine="auto"`` is
    bitwise the ``engine="object"`` walk (and the scalar reference)."""
    op = make_reduction_op(get_algorithm("PR"))
    batched = comm.reduce_batch(batches, op, tree)
    assert len(batched) == len(batches)
    for got, chunks in zip(batched, batches):
        ref = comm.reduce(chunks, op, tree, engine="object")
        auto = comm.reduce(chunks, op, tree)
        assert _bits_equal(got.value, ref.value), (got.value, ref.value)
        assert _bits_equal(auto.value, ref.value), (auto.value, ref.value)
        assert got.algorithm_code == auto.algorithm_code == "PR"
        assert got.simulated_time == auto.simulated_time == ref.simulated_time
        if scalar:
            assert _bits_equal(ref.value, _scalar_pr(chunks))


class TestExactPrerounded:
    """The exact batched PR path (``reduce_batch`` and ``reduce`` on
    ``engine="auto"``) against the ``engine="object"`` reference walk."""

    @pytest.mark.parametrize("n_ranks", [1, 2, 7, 16])
    def test_ragged_chunks_over_trees(self, n_ranks):
        comm = SimComm(n_ranks)
        batches = [_ragged_chunks(n_ranks, seed=300 + i) for i in range(6)]
        for tree in _trees(n_ranks, seed=n_ranks):
            _assert_pr_parity(comm, batches, tree)

    @pytest.mark.parametrize(
        "n_ranks, width", [pytest.param(3, 5, id="3"), pytest.param(4, 4, id="4")]
    )
    def test_identical_chunks(self, n_ranks, width):
        comm = SimComm(n_ranks)
        batches = [[np.arange(1.0, width + 1.0)] * n_ranks for _ in range(3)]
        _assert_pr_parity(comm, batches, "balanced")

    def test_topology_tree(self):
        topo = MachineTopology(nodes=2, sockets_per_node=2, cores_per_socket=3)
        comm = SimComm(topology=topo)
        batches = [_ragged_chunks(comm.n_ranks, seed=40 + i) for i in range(4)]
        _assert_pr_parity(comm, batches, "topology")

    @pytest.mark.parametrize("dtype", [np.float32, np.float16])
    def test_low_precision_chunks(self, dtype):
        comm = SimComm(5)
        rng = np.random.default_rng(70)
        batches = [
            [
                (rng.uniform(-1, 1, w) * 10.0 ** rng.integers(-4, 4, w)).astype(dtype)
                for w in rng.integers(0, 60, 5)
            ]
            for _ in range(4)
        ]
        _assert_pr_parity(comm, batches, "balanced")

    def test_all_zero_and_empty_items(self):
        comm = SimComm(3)
        batches = [
            [np.zeros(4), np.array([-0.0, 0.0]), np.zeros(0)],
            [np.zeros(0), np.zeros(0), np.zeros(0)],
            [np.array([1.0, -1.0]), np.array([2.5]), np.array([-2.5])],
        ]
        _assert_pr_parity(comm, batches, "serial")
        op = make_reduction_op(get_algorithm("PR"))
        assert [r.value for r in comm.reduce_batch(batches, op, "serial")] == [0.0] * 3

    def test_subnormal_max(self):
        """Bins near the subnormal floor: their fold grids need factors
        that are not doubles, so the block scales with ``np.ldexp``."""
        comm = SimComm(4)
        rng = np.random.default_rng(11)
        batches = [
            [rng.uniform(-1, 1, 30) * 2.0 ** rng.integers(-1074, -1000, 30) for _ in range(4)],
            [
                np.array([5e-324, -1e-323, 2.5e-320]),
                np.array([3e-310]),
                np.zeros(2),
                np.array([-7e-322]),
            ],
            # a subnormal item batched next to ordinary ones
            [rng.uniform(-1, 1, 30) for _ in range(4)],
        ]
        _assert_pr_parity(comm, batches, "balanced")

    def test_max_near_top_of_range(self):
        comm = SimComm(3)
        rng = np.random.default_rng(12)
        big = np.finfo(np.float64).max
        batches = [
            [np.array([1.5e308, 3.0]), np.array([-1.4e308]), np.array([1e300, -2e-300])],
            [rng.uniform(-1, 1, 20) * 2.0 ** rng.integers(900, 1022, 20) / 64 for _ in range(3)],
            [np.array([big]), np.array([-big]), np.array([1.0])],
            # a subnormal item packed into the same block as the top ones
            [np.array([3e-315, -5e-324]), np.array([7e-322]), np.array([1e-323])],
        ]
        _assert_pr_parity(comm, batches, "balanced")

    def test_item_beyond_int64_block(self):
        """An item with more than 2**20 operands streams through the
        bounded scratch in pieces; its fold sums stay exact."""
        comm = SimComm(2)
        rng = np.random.default_rng(13)
        n = (1 << 20) + 3
        big = rng.uniform(-1, 1, n) * 2.0 ** rng.integers(-30, 30, n)
        big[:64] = 2.0**40  # same-sign top operands: fold-0 sums grow large
        batches = [
            [big[: n // 2], big[n // 2 :]],
            [rng.random(10), rng.random(7)],
        ]
        _assert_pr_parity(comm, batches, "balanced", scalar=False)

    def test_explicit_context_shares_one_bin(self):
        comm = SimComm(2)
        op = make_reduction_op(get_algorithm("PR")).with_context_for(64.0)
        batches = [[np.array([0.5, 3.0]), np.array([1e-20])], [np.ones(3), np.zeros(1)]]
        got = comm.reduce_batch(batches, op, "balanced")
        for r, chunks in zip(got, batches):
            ref = comm.reduce(chunks, op, "balanced", engine="object")
            assert _bits_equal(r.value, ref.value)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_raises_on_both_paths(self, bad):
        comm = SimComm(2)
        op = make_reduction_op(get_algorithm("PR"))
        chunks = [np.array([1.0, bad]), np.ones(3)]
        with pytest.raises(ValueError):
            comm.reduce_batch([[np.ones(2), np.ones(2)], chunks], op, "balanced")
        with pytest.raises(ValueError):
            comm.reduce(chunks, op, "balanced")
        with pytest.raises(ValueError):
            comm.reduce(chunks, op, "balanced", engine="object")

    def test_undersized_context_raises_on_both_paths(self):
        comm = SimComm(2)
        op = make_reduction_op(get_algorithm("PR")).with_context_for(1.0)
        chunks = [np.array([0.5, 3.0]), np.ones(2)]
        with pytest.raises(ValueError, match="bin capacity"):
            comm.reduce_batch([chunks], op, "balanced")
        with pytest.raises(ValueError, match="bin capacity"):
            comm.reduce(chunks, op, "balanced")
        with pytest.raises(ValueError, match="bin capacity"):
            comm.reduce(chunks, op, "balanced", engine="object")

    def test_nondeterministic_keeps_rng_stream(self):
        """The exact path still draws the arrival schedule: two equal-seed
        communicators replay the same trees, and PR's value is the same on
        every one of them."""
        op = make_reduction_op(get_algorithm("PR"))
        chunks = _ragged_chunks(8, seed=5)
        a, b = SimComm(8, seed=3), SimComm(8, seed=3)
        runs_a = [a.reduce_nondeterministic(chunks, op) for _ in range(4)]
        runs_b = [b.reduce_nondeterministic(chunks, op, engine="object") for _ in range(4)]
        for ra, rb in zip(runs_a, runs_b):
            assert np.array_equal(ra.tree.parents(), rb.tree.parents())
            assert ra.simulated_time == rb.simulated_time
            assert _bits_equal(ra.value, rb.value)
        assert len({r.value for r in runs_a}) == 1


class TestBatchedProfiling:
    def test_profile_batch_bitwise_equals_sequential(self):
        rng = np.random.default_rng(8)
        batches = [
            [rng.standard_normal(64) * 10.0 ** rng.integers(-6, 7) for _ in range(5)]
            for _ in range(9)
        ]
        got = profile_batch(batches)
        assert got is not None
        reducer = AdaptiveReducer(SimComm(5))
        for sketch, chunks in zip(got, batches):
            ref = reducer.profile(chunks)
            for field in _PROFILE_FIELDS:
                a, b = getattr(sketch, field), getattr(ref, field)
                if field == "n":
                    assert a == b
                else:
                    assert _bits_equal(a, b), field

    def test_profile_batch_ragged_returns_none(self):
        batches = [[np.arange(3.0), np.arange(5.0)]] * 2
        assert profile_batch(batches) is None

    def test_profile_batch_empty_and_zero_rank(self):
        assert profile_batch([]) == []
        sketches = profile_batch([[], []])
        assert sketches is not None and len(sketches) == 2
        assert all(s.n == 0 for s in sketches)

    def test_profile_batch_zero_width_chunks(self):
        batches = [[np.empty(0), np.empty(0)]] * 3
        sketches = profile_batch(batches)
        assert sketches is not None
        ref = StreamProfile()
        for s in sketches:
            for field in _PROFILE_FIELDS:
                assert getattr(s, field) == getattr(ref, field) or (
                    field == "min_abs_nonzero" and np.isinf(s.min_abs_nonzero)
                )


class TestServingPath:
    def test_reduce_many_equals_reduce_loop(self):
        rng = np.random.default_rng(17)
        comm = SimComm(6)
        batches = [
            [rng.random(48) * 10.0 ** int(rng.integers(-3, 4)) for _ in range(6)]
            for _ in range(10)
        ]
        many = AdaptiveReducer(comm, threshold=1e-13).reduce_many(
            batches, tree="balanced"
        )
        solo_reducer = AdaptiveReducer(comm, threshold=1e-13)
        for result, chunks in zip(many, batches):
            ref = solo_reducer.reduce(chunks, tree="balanced")
            assert result.decision.code == ref.decision.code
            assert _bits_equal(result.value, ref.value)

    def test_reduce_many_audit_profiles_are_per_item(self):
        rng = np.random.default_rng(21)
        comm = SimComm(4)
        batches = [[rng.random(32) for _ in range(4)] for _ in range(5)]
        results = AdaptiveReducer(comm).reduce_many(batches, tree="balanced")
        reducer = AdaptiveReducer(comm)
        for result, chunks in zip(results, batches):
            sketch = reducer.profile(chunks)
            assert result.decision.profile.n == sketch.n
            assert _bits_equal(result.decision.profile.max_abs, sketch.max_abs)

    def test_reduce_many_empty_stream(self):
        assert AdaptiveReducer(SimComm(3)).reduce_many([]) == []

    def test_reduce_many_rejects_negative_threshold(self):
        with pytest.raises(ValueError):
            AdaptiveReducer(SimComm(3)).reduce_many(
                [[np.ones(4)] * 3], threshold=-1.0
            )
