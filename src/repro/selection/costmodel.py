"""Cost model of the summation algorithms.

Fig. 5 establishes the expense ordering — "Standard summation is the
cheapest and least complex. Kahan's compensated summation, then composite
precision summation, and finally prerounded summation are expected to
progressively provide more accuracy at the expense of performance."  The
selector needs that ordering *quantified* so it can report the expected cost
of its decision and so the ablation bench can locate the crossover where
profiling overhead stops paying for itself.

Default per-element relative costs come from the flop structure of our
kernels (1 add for ST; 6 flops + compensation folds for K; TwoSum + error
propagation for CP; K-fold extraction + integer deposit for PR).  They can
be replaced by *measured* costs via :meth:`CostModel.calibrate`, which times
the actual kernels on this machine — the honest thing to do, since constant
factors are implementation properties, not paper properties.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Mapping

import numpy as np

from repro.summation.base import SumContext
from repro.summation.registry import get_algorithm

__all__ = ["CostModel", "DEFAULT_RELATIVE_COSTS"]

#: Flop-structure defaults, relative to ST = 1.
DEFAULT_RELATIVE_COSTS: Mapping[str, float] = {
    "ST": 1.0,
    "FB": 1.3,
    "K": 2.5,
    "CP": 4.0,
    "PR": 9.0,
    "DD": 5.0,
    "KBN": 3.0,
    "PW": 1.0,
    "SO": 3.0,
    "EX": 30.0,
    "IV": 4.5,
    "AS": 8.0,
}


@dataclass(frozen=True)
class CostModel:
    """Relative per-element reduction costs, ST-normalised."""

    relative: Mapping[str, float] = field(
        default_factory=lambda: dict(DEFAULT_RELATIVE_COSTS)
    )
    #: extra passes over the data that runtime profiling costs (ST-units)
    profiling_overhead: float = 2.0

    def cost(self, code: str, n: int) -> float:
        """Cost of reducing ``n`` values with algorithm ``code`` (ST-units)."""
        if code not in self.relative:
            raise KeyError(f"no cost entry for algorithm {code!r}")
        return self.relative[code] * n

    def rank(self, codes: "list[str]") -> "list[str]":
        """Codes sorted cheapest-first."""
        return sorted(codes, key=lambda c: self.relative.get(c, float("inf")))

    def selection_cost(self, code: str, n: int, *, profiled: bool = True) -> float:
        """Total cost of profile-then-reduce vs just reducing."""
        extra = self.profiling_overhead * n if profiled else 0.0
        return self.cost(code, n) + extra

    def calibrate(
        self, codes: "list[str] | None" = None, n: int = 1 << 18, repeats: int = 3
    ) -> "CostModel":
        """Measure real kernel timings on this machine and return an updated
        model (ST stays the unit)."""
        codes = list(self.relative) if codes is None else codes
        rng = np.random.default_rng(0)
        data = rng.uniform(-1.0, 1.0, size=n)
        ctx = SumContext.for_data(data)
        algorithms = {code: get_algorithm(code) for code in codes}
        for alg in algorithms.values():
            alg.sum_array(data, ctx)  # warm
        # round-robin: every repeat times each code once, so a burst of
        # host noise lands on all codes of one round rather than on
        # whichever code was running; each code keeps its best time
        timings = dict.fromkeys(codes, float("inf"))
        for _ in range(repeats):
            for code, alg in algorithms.items():
                t0 = time.perf_counter()
                alg.sum_array(data, ctx)
                timings[code] = min(timings[code], time.perf_counter() - t0)
        st = timings.get("ST")
        if st is None or st == 0.0:  # repro: allow[FP001] -- zero measured std means exact
            raise RuntimeError("calibration needs the ST baseline")
        merged = dict(self.relative)
        merged.update({c: t / st for c, t in timings.items()})
        return replace(self, relative=merged)
