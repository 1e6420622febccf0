"""Selection policies: pick the cheapest algorithm meeting a tolerance.

Fig. 12 shades each (k, dr) cell by "the cheapest summation algorithm that
achieves a given degree of reproducibility at that cell", for error-
variability thresholds ``t``.  A policy makes that decision at runtime from
a :class:`~repro.metrics.properties.SetProfile` (measured or estimated):

* :class:`AnalyticPolicy` — closed-form variability estimates per algorithm
  derived from classical error analysis, with empirically calibrated leading
  constants.  Zero calibration data needed; order-of-magnitude accurate,
  which is the granularity selection needs.
* :class:`EmpiricalPolicy` (in :mod:`repro.selection.classifier`) — nearest-
  cell lookup into a measured grid of variabilities, i.e. Fig. 12 itself
  turned into a decision table.

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
``inf``, so the policy falls through to the most robust candidate — matching
the paper's Sec. V.B observation that only CP/PR behave there, and being
conservative between those two.

The defaults for ``c_*`` were fitted against the measured grids of the
Fig. 9-11 reproduction (see EXPERIMENTS.md); tests assert the model stays
within two decades of measurement across the whole grid, which is what the
decision task requires (cells are decades apart).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from repro.fp.properties import UNIT_ROUNDOFF
from repro.metrics.properties import SetProfile
from repro.selection.costmodel import CostModel

__all__ = ["SelectionDecision", "VariabilityModel", "AnalyticPolicy"]


@dataclass(frozen=True)
class SelectionDecision:
    """The outcome of a policy query — everything needed to audit it.

    ``tier`` records what produced the decision: ``"profile"`` (empirical
    sketch + calibrated variability model, every
    :class:`~repro.selection.selector.AdaptiveReducer` decision) or
    ``"bound"`` (the Hallman–Ipsen certification probe,
    :meth:`repro.selection.bound_tier.BoundTier.decide_stream`).
    ``u`` is the unit roundoff the decision was made at — ``2**-53`` for
    binary64 inputs, larger for fp32/fp16 scenario inputs, so low-precision
    data is never silently upcast inside the selection decision.
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

    def predict_std(
        self,
        code: str,
        profile: SetProfile,
        *,
        shape: str = "balanced",
        u: "float | None" = None,
    ) -> float:
        """Predicted *relative* std of the error over random reduction trees.

        ``shape`` is ``"balanced"`` (default: the grid experiments'
        setting), ``"serial"``, or ``"unknown"`` (conservative: treated as
        serial).  ``u`` overrides the model's unit roundoff for one query —
        the precision axis: fp32/fp16 scenario inputs predict at their own
        roundoff instead of silently upcasting to binary64.  ``inf`` for
        non-deterministic algorithms on exact-zero sums.
        """
        n = max(profile.n, 1)
        k = profile.condition
        if code in ("PR", "EX", "SO", "AS"):
            return 0.0
        mult = self._shape_multiplier(code, shape)
        if math.isinf(k):
            return math.inf
        u = self.u if u is None else u
        if code in ("ST", "PW"):
            return mult * self.c_st * u * math.sqrt(n) * k
        if code in ("K", "KBN", "FB"):
            return mult * (self.c_k * u * k + self.c_k2 * n * u**2 * k)
        if code in ("CP", "DD", "IV"):
            return mult * self.c_cp * n * u**2 * k
        raise KeyError(f"no variability model for algorithm {code!r}")

    def predict_std_array(
        self, code: str, n, k, *, shape: str = "balanced", u=None
    ):
        """Vectorised :meth:`predict_std` over arrays of ``(n, k)``.

        ``u`` may be a scalar or a per-item array of unit roundoffs.  Each
        lane evaluates the exact scalar expression (same operation order, so
        results are bitwise-equal to per-item :meth:`predict_std` calls) —
        this is what lets the bound probe reason about the profiling
        policy's own accept/reject behaviour without running it per item.
        """
        n = np.maximum(np.asarray(n, dtype=np.float64), 1.0)
        k = np.asarray(k, dtype=np.float64)
        u = self.u if u is None else u
        u = np.asarray(u, dtype=np.float64)
        if code in ("PR", "EX", "SO", "AS"):
            return np.zeros(np.broadcast_shapes(n.shape, k.shape), dtype=np.float64)
        mult = self._shape_multiplier(code, shape)
        if code in ("ST", "PW"):
            return mult * self.c_st * u * np.sqrt(n) * k
        if code in ("K", "KBN", "FB"):
            return mult * (self.c_k * u * k + self.c_k2 * n * u**2 * k)
        if code in ("CP", "DD", "IV"):
            return mult * self.c_cp * n * u**2 * k
        raise KeyError(f"no variability model for algorithm {code!r}")


class AnalyticPolicy:
    """Cheapest-first selection driven by the closed-form model."""

    #: this policy's select() accepts the shape keyword (see AdaptiveReducer)
    supports_shape_hint = True
    #: this policy's select() accepts the u keyword (precision-aware
    #: decisions for fp32/fp16 inputs)
    supports_unit_roundoff = True

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
        self.candidates = self.cost_model.rank(list(candidates))
        self.shape = shape

    def select(
        self,
        profile: SetProfile,
        threshold: float,
        *,
        shape: "str | None" = None,
        u: "float | None" = None,
    ) -> SelectionDecision:
        """Cheapest candidate whose predicted variability is <= threshold.

        ``shape`` overrides the policy's default tree-shape hint for this
        query; ``u`` overrides the model's unit roundoff (fp32/fp16 inputs
        select at their own precision).  Falls back to the most robust
        candidate when none qualifies (the paper's "step toward bitwise
        reproducibility": tighter thresholds force costlier algorithms;
        below every algorithm's floor the best available one is still
        returned, flagged by predicted > threshold).
        """
        if threshold < 0:
            raise ValueError("threshold must be >= 0")
        shape = self.shape if shape is None else shape
        predictions = {
            code: self.model.predict_std(code, profile, shape=shape, u=u)
            for code in self.candidates
        }
        chosen = self.candidates[-1]
        for code in self.candidates:
            if predictions[code] <= threshold:
                chosen = code
                break
        return SelectionDecision(
            code=chosen,
            threshold=threshold,
            predicted_std=predictions[chosen],
            profile=profile,
            candidate_predictions=predictions,
            relative_cost=self.cost_model.relative.get(chosen, math.nan),
            u=self.model.u if u is None else u,
        )
