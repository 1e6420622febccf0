"""Selection policies: pick the cheapest algorithm meeting a tolerance.

Fig. 12 shades each (k, dr) cell by "the cheapest summation algorithm that
achieves a given degree of reproducibility at that cell", for error-
variability thresholds ``t``.  A policy makes that decision at runtime for
a whole tick at once (``select_many``; ``select`` is its one-item case).

* :class:`AnalyticPolicy` — closed-form variability estimates per algorithm
  derived from classical error analysis, with empirically calibrated leading
  constants; each item's decision is one comparison of its k̂ against the
  candidates' cut points (:meth:`VariabilityModel.cut_points`).
  Zero calibration data needed; order-of-magnitude accurate, which is the
  granularity selection needs.
* :class:`~repro.selection.classifier.GridClassifier` — nearest-cell
  lookup into a measured grid of variabilities, i.e. Fig. 12 itself turned
  into a decision table.

Variability model — the *relative* std of the error across random reduction
trees (error divided by the exact sum; this is the quantity whose grid
reproduces the paper's strong-k/weak-dr shading, since for fixed magnitudes
the absolute mass ``T = Σ|x|`` is k-independent while ``T/|S| = k``).  With
size ``n``, condition ``k``, unit roundoff ``u``:

    ST:  c_st * u * sqrt(n) * k      (random-walk of first-order roundoffs,
                                      amplified by the condition number)
    K:   c_k  * u * k  +  c_k2 * n * u**2 * k   (first-order floor: the
         per-merge compensations that fail to register against large
         partial sums; plus second-order accumulation)
    CP:  c_cp * n * u**2 * k         (pure second-order: the error sum's
         own rounding)
    PR:  0                            (bitwise reproducible)

For exact-zero sums (k = inf) every non-deterministic algorithm predicts
``inf``, so the policy falls through to the most robust candidate (Sec. V.B:
only CP/PR behave there).

The defaults for ``c_*`` were fitted against the measured grids of the
Fig. 9-11 reproduction (see EXPERIMENTS.md); tests assert the model stays
within two decades of measurement across the whole grid, which is what the
decision task requires (cells are decades apart).
"""

from __future__ import annotations

import functools
import math
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.fp.properties import UNIT_ROUNDOFF
from repro.metrics.properties import SetProfile
from repro.selection.costmodel import CostModel

__all__ = ["SelectionDecision", "VariabilityModel", "AnalyticPolicy", "CUT_CACHE_SIZE"]

#: cut-point groups ``(model, candidates, n, u, shape, t)`` kept per process
CUT_CACHE_SIZE = 1024
_PROBES = 64  # model evaluations per round of the cut-point search
_INF_BITS = int(np.float64(math.inf).view(np.int64))


def _checked(threshold: float) -> float:
    """``threshold`` if it is a valid tolerance (``>= 0``; NaN is not)."""
    if not threshold >= 0:  # also rejects NaN
        raise ValueError("threshold must be >= 0")
    return threshold


@dataclass(frozen=True)
class SelectionDecision:
    """One item's lane of a policy query — everything needed to audit it.

    ``tier`` records what produced the decision: ``"profile"`` (empirical
    sketch + calibrated variability model: every policy's ``select_many``,
    so every :class:`~repro.selection.selector.AdaptiveReducer` decision)
    or ``"bound"`` (the Hallman–Ipsen certification probe,
    :meth:`repro.selection.bound_tier.BoundTier.decide_stream`).
    ``u`` is the unit roundoff the decision was made at — ``2**-53`` for
    binary64 inputs, larger for fp32/fp16 scenario inputs, so low-precision
    data is never silently upcast inside the selection decision.
    ``candidate_predictions`` maps each candidate, cheapest first, to its
    predicted std (read lazily from an :class:`AnalyticPolicy` decision).
    """

    code: str
    threshold: float
    predicted_std: float
    profile: SetProfile
    candidate_predictions: Mapping[str, float]
    relative_cost: float
    tier: str = "profile"
    u: float = UNIT_ROUNDOFF

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SelectionDecision({self.code}: predicted std "
            f"{self.predicted_std:.2e} <= t={self.threshold:.2e}, "
            f"cost x{self.relative_cost:.1f}, via {self.tier})"
        )


@dataclass(frozen=True)
class VariabilityModel:
    """Closed-form per-algorithm error-variability estimates.

    ``shape_factor_serial`` encodes the tree-*shape* parameter the paper
    lists among the quantities a runtime should profile: unbalanced (serial)
    reductions are empirically an order of magnitude more variable than
    balanced ones for ST (Fig. 7's row-wise comparison), so predictions for
    an unknown or chain-heavy tree are scaled up by this factor.
    """

    c_st: float = 0.02
    c_k: float = 0.08
    c_k2: float = 4.0
    c_cp: float = 2.0
    u: float = UNIT_ROUNDOFF
    shape_factor_serial: float = 12.0

    def _shape_multiplier(self, code: str, shape: str) -> float:
        if shape == "balanced":
            return 1.0
        if shape in ("serial", "unknown"):
            # Kahan recovers most of the serial penalty (its compensation
            # works against leaf-sized operands); ST eats it fully.
            if code in ("ST", "PW"):
                return self.shape_factor_serial
            if code in ("K", "KBN", "FB"):
                return max(self.shape_factor_serial / 4.0, 1.0)
            return 1.0
        raise ValueError(f"unknown tree shape hint {shape!r}")

    def predict_std(self, code: str, profile: SetProfile, *, shape="balanced", u=None) -> float:
        """Predicted *relative* std of the error over random reduction trees
        for one profile: the one-lane case of :meth:`predict_std_array`."""
        return float(self.predict_std_array(code, profile.n, profile.condition, shape=shape, u=u))

    def predict_std_array(
        self, code: str, n, k, *, shape: str = "balanced", u=None
    ):
        """Predicted *relative* std of the error over random reduction trees,
        per lane of the arrays ``(n, k)``.

        ``shape`` is ``"balanced"`` (default: the grid experiments'
        setting), ``"serial"``, or ``"unknown"`` (conservative: treated as
        serial).  ``u`` — a scalar or a per-lane array — overrides the
        model's unit roundoff: the precision axis, so fp32/fp16 scenario
        inputs predict at their own roundoff instead of silently upcasting
        to binary64.  ``inf`` for non-deterministic algorithms on
        exact-zero sums (``k = inf``).
        """
        n = np.maximum(np.asarray(n, dtype=np.float64), 1.0)
        k = np.asarray(k, dtype=np.float64)
        u = np.asarray(self.u if u is None else u, dtype=np.float64)
        if code in ("PR", "EX", "SO", "AS"):
            return np.zeros(np.broadcast(n, k).shape, dtype=np.float64)
        mult = self._shape_multiplier(code, shape)
        if code in ("ST", "PW"):
            return mult * self.c_st * u * np.sqrt(n) * k
        if code in ("K", "KBN", "FB"):
            return mult * (self.c_k * u * k + self.c_k2 * n * u**2 * k)
        if code in ("CP", "DD", "IV"):
            return mult * self.c_cp * n * u**2 * k
        raise KeyError(f"no variability model for algorithm {code!r}")

    @functools.lru_cache(maxsize=CUT_CACHE_SIZE)
    def cut_points(self, candidates: tuple, n, u, shape: str, t: float) -> "tuple[float, ...]":
        """Each candidate's decision boundary in k for one ``(n, u, shape,
        t)`` group: the largest double ``k >= 0`` whose
        :meth:`predict_std_array` is ``<= t`` (``inf`` when ``k = inf``
        qualifies, NaN when no ``k`` does).  Predictions are monotone in
        ``k``, so an item meets a candidate exactly when ``k̂ <= k*``.  A
        bounded search over the doubles' bit patterns (DESIGN.md, "The
        decision boundary"); a pure function, so its cache cannot change a
        decision.
        """
        cuts = []
        for code in candidates:
            at = self.predict_std_array(code, n, np.array([0.0, 1.0, math.inf]), shape=shape, u=u)
            if at[2] <= t or not at[0] <= t:
                cuts.append(math.inf if at[2] <= t else math.nan)
                continue
            lo, hi = 0, _INF_BITS  # the prediction meets t at lo and misses it at hi
            with np.errstate(all="ignore"):
                guess = np.float64(t) / at[1]  # predictions are about k * at[1]
            probes = np.arange(-_PROBES // 2, _PROBES // 2)
            probes += int(guess.view(np.int64)) if 0.0 < guess < math.inf else 0
            while hi - lo > 1:
                probes = probes[(probes > lo) & (probes < hi)]
                if not probes.size:
                    step = max((hi - lo) // (_PROBES + 1), 1)
                    probes = lo + step * np.arange(1, min(_PROBES, hi - lo - 1) + 1)
                k = probes.view(np.float64)
                misses = ~(self.predict_std_array(code, n, k, shape=shape, u=u) <= t)
                first = int(misses.argmax()) if misses.any() else probes.size
                lo = int(probes[first - 1]) if first else lo
                hi = int(probes[first]) if first < probes.size else hi
            cuts.append(float(np.int64(lo).view(np.float64)))
        return tuple(cuts)


class _CandidatePredictions(Mapping):
    """An analytic decision's ``candidate_predictions``: each candidate's
    predicted std, evaluated by the model when it is read."""

    __slots__ = ("_model", "_candidates", "_profile", "_shape", "_u")

    def __init__(self, model, candidates, profile, shape, u) -> None:
        self._model, self._candidates = model, candidates
        self._profile, self._shape, self._u = profile, shape, u

    def __getitem__(self, code: str) -> float:
        if code not in self._candidates:
            raise KeyError(code)
        return self._model.predict_std(code, self._profile, shape=self._shape, u=self._u)

    def __iter__(self):
        return iter(self._candidates)

    def __len__(self) -> int:
        return len(self._candidates)

    def __repr__(self) -> str:
        return repr(dict(self))


class AnalyticPolicy:
    """Cheapest-first selection driven by the closed-form model."""

    def __init__(
        self,
        candidates: Sequence[str] = ("ST", "K", "CP", "PR"),
        model: VariabilityModel | None = None,
        cost_model: CostModel | None = None,
        shape: str = "balanced",
    ) -> None:
        if not candidates:
            raise ValueError("need at least one candidate algorithm")
        self.model = model or VariabilityModel()
        self.cost_model = cost_model or CostModel()
        self.candidates = tuple(self.cost_model.rank(list(candidates)))
        self.shape = shape

    def select_many(
        self, profiles: Sequence[SetProfile], threshold: float, *, u=None, shape=None
    ) -> "list[SelectionDecision]":
        """Each profile's cheapest candidate whose predicted variability is
        <= threshold: the first whose cut point
        (:meth:`VariabilityModel.cut_points`) its k̂ is at or below.

        ``u`` holds each item's unit roundoff (``None``: the model's), so
        fp32/fp16 inputs select at their own precision; ``shape`` overrides
        the policy's tree-shape hint.  An item no candidate qualifies for,
        NaN k̂ included, falls through to the most robust one (the paper's
        "step toward bitwise reproducibility"), flagged by predicted >
        threshold.
        """
        t = _checked(threshold)
        shape = self.shape if shape is None else shape
        us = [self.model.u] * len(profiles) if u is None else list(u)
        if len(us) != len(profiles):
            raise ValueError(f"{len(us)} unit roundoffs for {len(profiles)} profiles")
        candidates, model = self.candidates, self.model
        groups: "dict[int, list[int]]" = {}  # chosen candidate -> its items
        tick_cuts: "dict[tuple, tuple]" = {}  # (n, u) -> cut points; ~4x cheaper than the lru_cache call
        for i, (profile, ui) in enumerate(zip(profiles, us)):
            cuts = tick_cuts.get((profile.n, ui))
            if cuts is None:
                cuts = tick_cuts[profile.n, ui] = model.cut_points(candidates, profile.n, ui, shape, t)
            ci = len(candidates) - 1
            for j, cut in enumerate(cuts):
                if profile.condition <= cut:
                    ci = j
                    break
            groups.setdefault(ci, []).append(i)
        decisions: "list[SelectionDecision]" = [None] * len(profiles)  # type: ignore[list-item]
        for ci, items in groups.items():
            code, cost = candidates[ci], self.cost_model.relative.get(candidates[ci], math.nan)
            lanes = [(profiles[i], us[i]) for i in items]
            n, k = [p.n for p, _ in lanes], [p.condition for p, _ in lanes]
            predicted = model.predict_std_array(code, n, k, shape=shape, u=[ui for _, ui in lanes])
            for i, (profile, ui), std in zip(items, lanes, predicted.tolist()):
                predictions = _CandidatePredictions(model, candidates, profile, shape, ui)
                decisions[i] = SelectionDecision(code, t, std, profile, predictions, cost, u=ui)
        return decisions

    def select(
        self, profile: SetProfile, threshold: float, *, shape=None, u=None
    ) -> SelectionDecision:
        """One profile's decision: the one-item case of :meth:`select_many`."""
        us = None if u is None else [u]
        return self.select_many([profile], threshold, u=us, shape=shape)[0]
