"""Subtree-level selection: the paper's closing proposal, implemented.

Sec. V.D ends: "These results present a strong case for further research
into tools that, at exascale, profile parameters of interest (e.g., n, k,
dr, and tree shape) at runtime and apply cheaper but acceptably accurate
reduction algorithms **to subtrees** based on the profile."

:class:`HierarchicalReducer` does exactly that for the two-level tree a real
machine induces (rank-local reduction below, cross-rank combine above):

* every rank profiles *its own chunk* and selects the cheapest algorithm
  whose predicted variability meets a per-rank error budget — so a rank
  holding benign data runs ST while its neighbour with cancelling data runs
  CP or PR;
* the cross-rank combine always uses a deterministic merge (PR by default):
  the top of the tree is where nondeterministic schedules live, so this is
  the part that must be order-free, and it touches only ``n_ranks`` values —
  its cost is negligible regardless of algorithm.

The budget split follows the error calculus: local errors add up across
ranks, so each rank gets ``threshold / n_ranks`` of the relative budget
(conservative, first-order).

The result is bitwise reproducible whenever every rank's *local* order is
fixed (it is: a rank reduces its own contiguous chunk in place) and the
cross-rank combine is deterministic — while the work spent is proportional
to how hard each rank's data actually is.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

from repro.fp.properties import unit_roundoff_of
from repro.selection.policy import AnalyticPolicy, SelectionDecision, _checked
from repro.selection.profile import profile_batch, profile_stream, set_profiles
from repro.selection.selector import Policy
from repro.summation.base import SumContext
from repro.summation.prerounded import PreroundedAccumulator, PreroundedSum
from repro.summation.registry import get_algorithm

__all__ = ["SubtreePlan", "HierarchicalResult", "HierarchicalReducer"]


@dataclass(frozen=True)
class SubtreePlan:
    """Per-rank algorithm choices plus the shared combine context."""

    local_codes: tuple[str, ...]
    combine_code: str
    rank_decisions: tuple[SelectionDecision, ...]
    global_max_abs: float
    total_n: int

    @property
    def code_counts(self) -> Mapping[str, int]:
        return dict(Counter(self.local_codes))

    def estimated_cost(self, cost_model, chunk_sizes: Sequence[int]) -> float:
        """Total work in ST-units under a cost model (for the ablation)."""
        return math.fsum(cost_model.cost(c, n) for c, n in zip(self.local_codes, chunk_sizes))


@dataclass(frozen=True)
class HierarchicalResult:
    """Value plus the audited per-subtree plan."""

    value: float
    plan: SubtreePlan


class HierarchicalReducer:
    """Per-rank (subtree) algorithm selection with a deterministic combine.

    Parameters
    ----------
    policy:
        Any selection policy (analytic by default); one query per plan
        answers every rank from its own profile and budget share.
    combine:
        Code of the cross-rank combine algorithm; must be deterministic
        (``"PR"`` or ``"EX"``), because the cross-rank order is the
        nondeterministic part of a real machine's tree.
    """

    def __init__(
        self,
        policy: "Policy | None" = None,
        *,
        combine: str = "PR",
        threshold: float = 1e-13,
    ) -> None:
        alg = get_algorithm(combine)
        if not alg.deterministic:
            raise ValueError(
                f"cross-rank combine must be deterministic; {combine!r} is not"
            )
        self.policy = policy if policy is not None else AnalyticPolicy()
        self.combine_code = combine
        self.threshold = _checked(threshold)

    def plan(self, chunks: Sequence[np.ndarray], threshold: "float | None" = None) -> SubtreePlan:
        """Profile every chunk and choose its local algorithm, each at its
        chunk's input-dtype unit roundoff."""
        if not chunks:
            raise ValueError("need at least one chunk")
        t = _checked(self.threshold if threshold is None else threshold)
        sketches = profile_batch([[c] for c in chunks])
        total = profile_stream(list(chunks))
        # conservative first-order budget split: local errors sum
        per_rank_budget = t / max(len(chunks), 1)
        us = [unit_roundoff_of((getattr(c, "dtype", None),)) for c in chunks]
        decisions = tuple(
            self.policy.select_many(set_profiles(sketches), per_rank_budget, u=us)
        )
        return SubtreePlan(
            local_codes=tuple(d.code for d in decisions),
            combine_code=self.combine_code,
            rank_decisions=decisions,
            global_max_abs=total.max_abs,
            total_n=total.n,
        )

    def reduce(
        self,
        chunks: Sequence[np.ndarray],
        threshold: "float | None" = None,
        plan: Optional[SubtreePlan] = None,
    ) -> HierarchicalResult:
        """Execute the two-level reduction under a (possibly cached) plan."""
        if plan is None:
            plan = self.plan(chunks, threshold)
        if len(plan.local_codes) != len(chunks):
            raise ValueError("plan does not match chunk count")
        context = SumContext(max_abs=plan.global_max_abs, n_hint=plan.total_n)
        # local (subtree) phase: each rank's own cheapest-acceptable algorithm
        locals_: list[float] = []
        for code, chunk in zip(plan.local_codes, chunks):
            alg = get_algorithm(code)
            acc = alg.make_accumulator(context if alg.needs_context else None)
            acc.add_array(np.asarray(chunk, dtype=np.float64))
            locals_.append(acc.result())
        # deterministic cross-rank combine over the n_ranks partials
        combine_alg = get_algorithm(plan.combine_code)
        top_ctx = SumContext.for_data(np.asarray(locals_)) if combine_alg.needs_context else None
        value = combine_alg.sum_array(np.asarray(locals_, dtype=np.float64), top_ctx)
        return HierarchicalResult(value=value, plan=plan)
