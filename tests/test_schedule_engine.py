"""Compiled-schedule engine: bitwise pins against the generic node-walk.

The batched ensemble engine (:mod:`repro.trees.schedule`) and the 2-D
balanced/serial kernels are only admissible because every value they produce
is bitwise equal to :func:`evaluate_tree_generic` — the literal accumulator
walk that serves as the semantic oracle.  These tests pin that equality for
every VectorOps algorithm over balanced, serial, skewed and random shapes
(including odd leaf counts and n=1), plus the old-path/new-path equivalence
of :func:`evaluate_ensemble` under fixed seeds.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.summation import get_algorithm
from repro.trees import (
    balanced,
    balanced_ensemble_vops,
    clear_schedule_cache,
    compile_tree,
    evaluate_balanced_vectorized,
    evaluate_ensemble,
    evaluate_tree,
    evaluate_tree_generic,
    random_shape,
    schedule_cache_info,
    serial,
    skewed,
    structural_key,
)
from repro.util.rng import permutation_stream

#: every algorithm exposing VectorOps (ST, K, Neumaier, CP, pairwise, DD)
VOPS_CODES = ("ST", "K", "KBN", "CP", "PW", "DD")


def _mixed_magnitudes(n: int, seed: int) -> np.ndarray:
    """Signed operands spanning ~16 decades — hard mode for compensation."""
    rng = np.random.default_rng(seed)
    return rng.uniform(-1.0, 1.0, n) * 10.0 ** rng.integers(-8, 9, size=n)


#: signed zeros, subnormals and +-1e308 (cancelling before they can
#: overflow): the row a compiled sweep must carry bit for bit, signs of
#: zero included
_EDGE_ROW = np.array(
    [-0.0, 0.0, 5e-324, 1e308, -1e308, -5e-324, 2.5e-308, -0.0,
     -2.5e-308, 1e-310, -1e-310, 1e308, -1e308, 0.0, -0.0, -0.0]
)


def _shapes(n: int, seed: int):
    yield balanced(n)
    yield serial(n)
    yield random_shape(n, seed=seed)
    yield skewed(n, 0.35)
    yield skewed(n, 0.8)


class TestCompile:
    def test_structural_key_is_identity_free(self):
        assert structural_key(balanced(33)) == structural_key(balanced(33))
        assert structural_key(balanced(33)) != structural_key(serial(33))
        assert structural_key(random_shape(33, seed=1)) != structural_key(
            random_shape(33, seed=2)
        )

    def test_cache_shares_compiled_schedules_across_instances(self):
        clear_schedule_cache()
        first = compile_tree(balanced(65))
        second = compile_tree(balanced(65))  # distinct tree object, same key
        assert first is second
        info = schedule_cache_info()
        assert info["misses"] == 1 and info["hits"] == 1

    def test_clear_hook_bounds_memory(self):
        compile_tree(random_shape(17, seed=3))
        clear_schedule_cache()
        info = schedule_cache_info()
        assert info["size"] == 0 and info["hits"] == 0 and info["misses"] == 0

    def test_cache_bypass(self):
        clear_schedule_cache()
        a = compile_tree(balanced(9), cache=False)
        b = compile_tree(balanced(9), cache=False)
        assert a is not b
        assert schedule_cache_info()["size"] == 0

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 40, 127])
    def test_levels_partition_schedule(self, n):
        for tree in _shapes(n, seed=n):
            compiled = compile_tree(tree, cache=False)
            assert compiled.depth == tree.depth()
            outs = np.concatenate([lvl[2] for lvl in compiled.levels]) if n > 1 else []
            # every internal slot produced exactly once, in dependency order
            assert sorted(outs) == list(range(n, 2 * n - 1))
            produced = set(range(n))
            for left, right, out in compiled.levels:
                assert set(left) <= produced and set(right) <= produced
                produced |= set(out.tolist())


class TestEngineBitwise:
    @pytest.mark.parametrize("code", VOPS_CODES)
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 17, 64, 255])
    def test_engine_matches_generic_walk(self, code, n):
        alg = get_algorithm(code)
        x = _mixed_magnitudes(n, seed=n + 1)
        for tree in _shapes(n, seed=n):
            expected = evaluate_tree_generic(tree, x, alg)
            got = float(compile_tree(tree, cache=False).execute(x, alg.vector_ops)[0])
            assert got == expected, (code, n, tree.kind)

    @pytest.mark.parametrize("code", VOPS_CODES)
    def test_engine_batched_rows_match_per_tree_walk(self, code):
        n, n_trees = 41, 7
        alg = get_algorithm(code)
        x = _mixed_magnitudes(n, seed=5)
        tree = random_shape(n, seed=11)
        perms = list(permutation_stream(n, n_trees, 99))
        batch = compile_tree(tree).execute(x[np.array(perms)], alg.vector_ops)
        for row, p in zip(batch, perms):
            assert row == evaluate_tree_generic(tree, x[p], alg)

    @pytest.mark.parametrize("code", VOPS_CODES)
    def test_evaluate_tree_routes_custom_shapes_through_engine(self, code):
        alg = get_algorithm(code)
        x = _mixed_magnitudes(33, seed=2)
        tree = random_shape(33, seed=7)
        assert evaluate_tree(tree, x, alg) == evaluate_tree(
            tree, x, alg, force_generic=True
        )

    @given(
        n=st.integers(min_value=1, max_value=60),
        shape_seed=st.integers(0, 2**32 - 1),
        data_seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_engine_matches_walk_on_random_structures(self, n, shape_seed, data_seed):
        tree = random_shape(n, seed=shape_seed)
        x = _mixed_magnitudes(n, seed=data_seed)
        for code in ("ST", "K", "CP"):
            alg = get_algorithm(code)
            got = float(compile_tree(tree).execute(x, alg.vector_ops)[0])
            assert got == evaluate_tree_generic(tree, x, alg)


class TestBalanced2D:
    @pytest.mark.parametrize("code", VOPS_CODES)
    @pytest.mark.parametrize("n", [1, 2, 3, 9, 100, 257])
    def test_matrix_sweep_matches_single_row_kernel(self, code, n):
        alg = get_algorithm(code)
        x = _mixed_magnitudes(n, seed=n + 3)
        perms = np.array(list(permutation_stream(n, 5, 13)))
        batch = balanced_ensemble_vops(x[perms], alg.vector_ops)
        for row, p in zip(batch, perms):
            assert row == evaluate_balanced_vectorized(x[p], alg)
            assert row == evaluate_tree_generic(balanced(n), x[p], alg)


class TestEnsembleEquivalence:
    """New batched `evaluate_ensemble` paths vs the seed's per-tree loops."""

    @pytest.mark.parametrize("code", VOPS_CODES)
    def test_balanced_new_path_equals_old_per_perm_loop(self, code):
        n, n_trees, seed = 97, 11, 123
        alg = get_algorithm(code)
        x = _mixed_magnitudes(n, seed=21)
        old = np.array(
            [
                evaluate_balanced_vectorized(x[p], alg)
                for p in permutation_stream(n, n_trees, seed)
            ]
        )
        # tiny batch budget forces the multi-batch path
        new = evaluate_ensemble(x, "balanced", alg, n_trees, seed=seed, batch_elems=300)
        assert np.array_equal(old, new)

    @pytest.mark.parametrize("code", ("ST", "K", "KBN", "CP"))
    @pytest.mark.parametrize("shape_kind", ("random", "skewed"))
    def test_tree_shaped_ensemble_equals_generic_loop(self, code, shape_kind):
        n, n_trees, seed = 65, 9, 7
        alg = get_algorithm(code)
        x = _mixed_magnitudes(n, seed=4)
        tree = random_shape(n, seed=31) if shape_kind == "random" else skewed(n, 0.5)
        old = np.array(
            [
                evaluate_tree_generic(tree, x[p], alg)
                for p in permutation_stream(n, n_trees, seed)
            ]
        )
        new = evaluate_ensemble(x, tree, alg, n_trees, seed=seed, batch_elems=500)
        assert np.array_equal(old, new)

    def test_tree_shaped_ensemble_without_vops_still_works(self):
        # SO imposes its own operand order and has no elementwise state
        alg = get_algorithm("SO")
        assert alg.vector_ops is None
        x = _mixed_magnitudes(12, seed=6)
        tree = random_shape(12, seed=8)
        old = np.array(
            [
                evaluate_tree_generic(tree, x[p], alg)
                for p in permutation_stream(12, 4, 3)
            ]
        )
        new = evaluate_ensemble(x, tree, alg, 4, seed=3)
        assert np.array_equal(old, new)

    def test_single_leaf_ensemble(self):
        out = evaluate_ensemble(np.array([3.5]), "balanced", get_algorithm("K"), 4, seed=1)
        assert out.tolist() == [3.5] * 4

    def test_mismatched_tree_raises(self):
        with pytest.raises(ValueError, match="leaf"):
            evaluate_ensemble(np.ones(8), random_shape(9, seed=1), get_algorithm("ST"), 3)

    def test_unknown_shape_string_raises(self):
        with pytest.raises(ValueError, match="shape"):
            evaluate_ensemble(np.ones(8), "bushy", get_algorithm("ST"), 3)

    def test_identity_assignment_first_for_tree_shapes(self):
        x = _mixed_magnitudes(31, seed=14)
        tree = random_shape(31, seed=2)
        vals = evaluate_ensemble(x, tree, get_algorithm("CP"), 5, seed=9)
        assert vals[0] == evaluate_tree_generic(tree, x, get_algorithm("CP"))


class TestCompiledKernels:
    """The optional C sweep must be bitwise-equal to the NumPy sweep.

    These tests are meaningful both ways: with a compiler present they pin
    the fused C kernels against the pure-NumPy level sweep (itself pinned
    against the generic walk above); without one, ``has_kernel`` is False
    and the dispatch cleanly stays on NumPy.
    """

    def test_numpy_fallback_always_usable(self):
        # allow_ckernel=False must work regardless of compiler availability
        vops = get_algorithm("K").vector_ops
        mat = np.stack([_mixed_magnitudes(9, seed=s) for s in range(4)])
        out = balanced_ensemble_vops(mat, vops, allow_ckernel=False)
        tree = balanced(9)
        ref = np.array(
            [evaluate_tree_generic(tree, row, get_algorithm("K")) for row in mat]
        )
        assert np.array_equal(ref, out)

    @pytest.mark.parametrize("code", VOPS_CODES)
    @pytest.mark.parametrize("n", (2, 3, 5, 8, 31, 64, 257))
    def test_ckernel_matches_numpy_sweep(self, code, n):
        from repro.trees import _ckernels

        vops = get_algorithm(code).vector_ops
        if not _ckernels.has_kernel(vops):
            pytest.skip("compiled kernels unavailable")
        mat = np.stack(
            [_mixed_magnitudes(n, seed=100 + s) for s in range(6)]
            + [np.resize(_EDGE_ROW, n)]
        )
        ref = balanced_ensemble_vops(mat, vops, allow_ckernel=False)
        got = _ckernels.sweep_matrix(mat, vops)
        assert got.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("code", VOPS_CODES)
    def test_ckernel_indexed_matches_matrix_mode(self, code):
        from repro.trees import _ckernels

        vops = get_algorithm(code).vector_ops
        if not _ckernels.has_kernel(vops):
            pytest.skip("compiled kernels unavailable")
        n = 53
        x = _mixed_magnitudes(n, seed=21)
        perms = np.stack(list(permutation_stream(n, 8, 13)))
        via_idx = _ckernels.sweep_indexed(x, perms, vops)
        via_mat = _ckernels.sweep_matrix(x[perms], vops)
        assert np.array_equal(via_idx, via_mat)

    def test_ensemble_perms_parameter_matches_seeded_stream(self):
        alg = get_algorithm("K")
        n, n_trees, seed = 40, 9, 17
        x = _mixed_magnitudes(n, seed=19)
        perms = np.stack(list(permutation_stream(n, n_trees, seed)))
        assert np.array_equal(
            evaluate_ensemble(x, "balanced", alg, n_trees, seed=seed),
            evaluate_ensemble(x, "balanced", alg, n_trees, perms=perms),
        )

    def test_ensemble_perms_validation(self):
        alg = get_algorithm("K")
        x = np.ones(4)
        with pytest.raises(ValueError, match="shape"):
            evaluate_ensemble(x, "balanced", alg, 3, perms=np.zeros((2, 4), dtype=np.int64))
        with pytest.raises(ValueError, match="integer"):
            evaluate_ensemble(x, "balanced", alg, 2, perms=np.zeros((2, 4)))
        bad = np.zeros((2, 4), dtype=np.int64)
        bad[1, 2] = 7  # out of range
        with pytest.raises(ValueError, match="out-of-range"):
            evaluate_ensemble(x, "balanced", alg, 2, perms=bad)
