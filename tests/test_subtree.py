"""Hierarchical (subtree-level) selection — the paper's future work."""

from __future__ import annotations

import numpy as np
import pytest

from repro.generators import zero_sum_set
from repro.selection import CostModel, HierarchicalReducer
from repro.exact import exact_sum


@pytest.fixture
def mixed_chunks():
    """Heterogeneous ranks: most benign, two hostile (cancelling) chunks."""
    rng = np.random.default_rng(0)
    chunks = [np.abs(rng.uniform(1.0, 2.0, 4096)) for _ in range(6)]
    chunks.append(zero_sum_set(4096, dr=32, seed=1))
    chunks.append(zero_sum_set(4096, dr=24, seed=2))
    return chunks


class TestPlanning:
    def test_per_rank_heterogeneous_choices(self, mixed_chunks):
        red = HierarchicalReducer(threshold=1e-12)
        plan = red.plan(mixed_chunks)
        codes = plan.local_codes
        assert len(codes) == len(mixed_chunks)
        # benign ranks stay cheap, hostile ranks escalate
        assert all(c in ("ST", "K") for c in codes[:6])
        assert all(c == "PR" for c in codes[6:])

    def test_plan_reports_counts_and_cost(self, mixed_chunks):
        red = HierarchicalReducer(threshold=1e-12)
        plan = red.plan(mixed_chunks)
        counts = plan.code_counts
        assert sum(counts.values()) == len(mixed_chunks)
        cm = CostModel()
        sizes = [c.size for c in mixed_chunks]
        hetero = plan.estimated_cost(cm, sizes)
        all_pr = sum(cm.cost("PR", n) for n in sizes)
        assert hetero < all_pr  # the point of subtree selection

    def test_low_precision_ranks_select_at_their_own_roundoff(self):
        """fp32 chunks are planned at u = 2**-24, not upcast to binary64:
        at a 1e-10 budget over four ranks no algorithm cheaper than PR
        meets 2.5e-11 per rank in fp32, while ST does for the same values
        in fp64, where the plan keeps ST."""
        rng = np.random.default_rng(4)
        chunks64 = [rng.uniform(0.5, 1.0, 4096) for _ in range(4)]
        chunks32 = [c.astype(np.float32) for c in chunks64]  # repro: allow[FP005] -- fp32 ranks selecting at their own roundoff is under test
        red = HierarchicalReducer(threshold=1e-10)
        plan32 = red.plan(chunks32)
        assert plan32.local_codes == ("PR",) * 4
        assert {d.u for d in plan32.rank_decisions} == {2.0**-24}
        plan64 = red.plan(chunks64)
        assert plan64.local_codes == ("ST",) * 4
        assert {d.u for d in plan64.rank_decisions} == {2.0**-53}

    def test_empty_chunks_rejected(self):
        with pytest.raises(ValueError):
            HierarchicalReducer().plan([])

    def test_nondeterministic_combine_rejected(self):
        with pytest.raises(ValueError, match="deterministic"):
            HierarchicalReducer(combine="ST")
        with pytest.raises(ValueError):
            HierarchicalReducer(threshold=-1)


class TestReduction:
    def test_value_accuracy(self, mixed_chunks):
        red = HierarchicalReducer(threshold=1e-12)
        result = red.reduce(mixed_chunks)
        exact = exact_sum(np.concatenate(mixed_chunks))
        assert result.value == pytest.approx(exact, rel=1e-11)

    def test_reproducible_under_rank_reordering(self, mixed_chunks):
        """Cross-rank combine is deterministic: permuting the rank order of
        the partials cannot change the result."""
        red = HierarchicalReducer(threshold=1e-12)
        v1 = red.reduce(mixed_chunks).value
        v2 = red.reduce(mixed_chunks[::-1]).value
        assert v1 == v2

    def test_cached_plan_reuse(self, mixed_chunks):
        red = HierarchicalReducer(threshold=1e-12)
        plan = red.plan(mixed_chunks)
        r1 = red.reduce(mixed_chunks, plan=plan)
        r2 = red.reduce(mixed_chunks, plan=plan)
        assert r1.value == r2.value
        assert r1.plan is plan

    def test_plan_chunk_mismatch(self, mixed_chunks):
        red = HierarchicalReducer()
        plan = red.plan(mixed_chunks)
        with pytest.raises(ValueError, match="does not match"):
            red.reduce(mixed_chunks[:-1], plan=plan)

    def test_tight_budget_escalates_everything(self, mixed_chunks):
        red = HierarchicalReducer(threshold=0.0)
        plan = red.plan(mixed_chunks)
        assert set(plan.local_codes) == {"PR"}

    def test_exact_combine_variant(self, mixed_chunks):
        red = HierarchicalReducer(combine="EX", threshold=1e-12)
        result = red.reduce(mixed_chunks)
        assert result.plan.combine_code == "EX"
        exact = exact_sum(np.concatenate(mixed_chunks))
        assert result.value == pytest.approx(exact, rel=1e-11)
