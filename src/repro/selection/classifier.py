"""Empirical grid classifier: Fig. 12 as a runtime decision table.

The Fig. 9-11 sweeps measure, for every grid cell (a point in (n, k, dr)
space), the std of the error of each algorithm over an ensemble of permuted
reduction trees.  Fig. 12 then shades each cell by the cheapest algorithm
whose measured std meets the threshold.  :class:`GridClassifier` persists
those measurements and answers runtime queries by nearest-cell lookup in
(log10 n, log10 k, dr) space — so the very experiment the paper runs becomes
the calibration table of the selector it advocates.

The table is JSON-(de)serialisable so a calibration computed once (e.g. by
``benchmarks/bench_fig12.py``) can be shipped with an application.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.metrics.properties import SetProfile
from repro.selection.costmodel import CostModel
from repro.selection.policy import SelectionDecision

__all__ = ["GridCell", "GridClassifier"]

#: log10(k) stand-in for exactly-zero sums, larger than any finite grid point.
_INF_LOG_K = 40.0


@dataclass(frozen=True)
class GridCell:
    """One calibrated grid point: parameters plus measured stds."""

    n: int
    condition: float
    dynamic_range: int
    stds: Mapping[str, float]  # algorithm code -> measured error std

    def key(self) -> tuple[float, float, float]:
        log_k = _INF_LOG_K if math.isinf(self.condition) else math.log10(self.condition)
        return (math.log10(max(self.n, 1)), log_k, float(self.dynamic_range))


class GridClassifier:
    """Nearest-cell empirical policy over a calibrated grid."""

    def __init__(
        self, cells: Sequence[GridCell], cost_model: CostModel | None = None
    ) -> None:
        if not cells:
            raise ValueError("need at least one calibrated cell")
        self.cells = list(cells)
        self.cost_model = cost_model or CostModel()
        codes = set(self.cells[0].stds)
        for cell in self.cells:
            if set(cell.stds) != codes:
                raise ValueError("all cells must calibrate the same algorithms")
        self.codes = self.cost_model.rank(sorted(codes))

    # -- queries ---------------------------------------------------------------
    def nearest_cell(self, profile: SetProfile) -> GridCell:
        """Calibrated cell closest to the profile in (log n, log k, dr)."""
        log_k = (
            _INF_LOG_K
            if math.isinf(profile.condition)
            else math.log10(max(profile.condition, 1.0))
        )
        q = (math.log10(max(profile.n, 1)), log_k, float(profile.dynamic_range))
        # dr distances are scaled to decades: 10 binades ~ 3 decades.
        scale = (1.0, 1.0, 0.3)

        def dist(cell: GridCell) -> float:
            ck = cell.key()
            return math.fsum(((a - b) * s) ** 2 for a, b, s in zip(q, ck, scale))

        return min(self.cells, key=dist)

    def cheapest_for(self, cell: GridCell, threshold: float) -> str:
        """Cheapest algorithm whose *measured* std meets the threshold; the
        most robust one when none does."""
        for code in self.codes:
            if cell.stds[code] <= threshold:
                return code
        return self.codes[-1]

    def select(self, profile: SetProfile, threshold: float) -> SelectionDecision:
        cell = self.nearest_cell(profile)
        code = self.cheapest_for(cell, threshold)
        return SelectionDecision(
            code=code,
            threshold=threshold,
            predicted_std=cell.stds[code],
            profile=profile,
            candidate_predictions=dict(cell.stds),
            relative_cost=self.cost_model.relative.get(code, math.nan),
        )

    def select_many(
        self, profiles: Sequence[SetProfile], threshold: float, *, u=None, shape=None
    ) -> "list[SelectionDecision]":
        """One nearest-cell :meth:`select` per profile; ``u`` and ``shape``
        are ignored (the grid measured one precision and tree shape)."""
        return [self.select(profile, threshold) for profile in profiles]

    def decision_grid(self, threshold: float) -> "list[tuple[GridCell, str]]":
        """Fig. 12's content: every cell with its cheapest-acceptable code."""
        return [(cell, self.cheapest_for(cell, threshold)) for cell in self.cells]

    # -- persistence -----------------------------------------------------------
    def to_json(self) -> str:
        payload = {
            "cells": [
                {
                    "n": c.n,
                    "condition": "inf" if math.isinf(c.condition) else c.condition,
                    "dynamic_range": c.dynamic_range,
                    "stds": dict(c.stds),
                }
                for c in self.cells
            ]
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    @classmethod
    def from_json(
        cls, text: str, cost_model: CostModel | None = None
    ) -> "GridClassifier":
        payload = json.loads(text)
        cells = [
            GridCell(
                n=int(c["n"]),
                condition=math.inf if c["condition"] == "inf" else float(c["condition"]),
                dynamic_range=int(c["dynamic_range"]),
                stds={str(k): float(v) for k, v in c["stds"].items()},
            )
            for c in payload["cells"]
        ]
        return cls(cells, cost_model)
