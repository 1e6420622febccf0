"""Streaming selection for applications whose data drifts.

The paper's conclusion singles this scenario out: "In applications where the
conditioning and dynamic range can change dramatically over the course of
the runtime, this effect is especially relevant."  A per-reduction fresh
selection would thrash between algorithms on noisy profiles and re-pay
decision latency every step; :class:`StreamingSelector` adds the two pieces
a production runtime needs:

* **smoothing** — profiles are blended over an exponential window in log-k
  space, so one spiky iteration does not flip the algorithm;
* **hysteresis** — switching *down* to a cheaper algorithm requires the
  smoothed prediction to pass the threshold with a safety margin for
  ``cooldown`` consecutive reductions; switching *up* (toward robustness)
  is immediate, because missing the tolerance is the costly direction.

The decision log records every switch with the profile that caused it, so a
simulation's reproducibility story is auditable after the fact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from repro.fp.properties import unit_roundoff_of
from repro.metrics.properties import SetProfile
from repro.selection.policy import AnalyticPolicy, SelectionDecision
from repro.selection.profile import profile_stream
from repro.selection.selector import Policy

__all__ = ["SwitchEvent", "StreamingSelector"]


@dataclass(frozen=True)
class SwitchEvent:
    """One algorithm switch in the decision log."""

    step: int
    from_code: str
    to_code: str
    smoothed_condition: float
    raw_condition: float


@dataclass
class StreamingSelector:
    """Stateful selector for a sequence of reductions over drifting data.

    Parameters
    ----------
    policy:
        Underlying stateless policy (analytic by default).
    threshold:
        Application tolerance handed to the policy each step.
    alpha:
        Exponential smoothing weight of the newest profile (in log-k space);
        1.0 disables smoothing.
    margin:
        Safety factor for down-switches: a cheaper algorithm is adopted only
        if its predicted variability is <= threshold / margin.
    cooldown:
        Number of consecutive qualifying steps required before switching
        down.
    """

    policy: Optional[Policy] = None
    threshold: float = 1e-13
    alpha: float = 0.3
    margin: float = 10.0
    cooldown: int = 3

    _current_code: Optional[str] = field(default=None, init=False)
    _smoothed_log_k: Optional[float] = field(default=None, init=False)
    _down_candidate: Optional[str] = field(default=None, init=False)
    _down_streak: int = field(default=0, init=False)
    _step: int = field(default=0, init=False)
    log: list = field(default_factory=list, init=False)

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        if self.margin < 1.0:
            raise ValueError("margin must be >= 1")
        if self.cooldown < 1:
            raise ValueError("cooldown must be >= 1")
        if self.policy is None:
            self.policy = AnalyticPolicy()

    # -- internals -----------------------------------------------------------
    def _smooth(self, profile: SetProfile) -> SetProfile:
        raw_log_k = (
            40.0 if math.isinf(profile.condition) else math.log10(max(profile.condition, 1.0))
        )
        if self._smoothed_log_k is None:
            self._smoothed_log_k = raw_log_k
        else:
            self._smoothed_log_k = (
                self.alpha * raw_log_k + (1.0 - self.alpha) * self._smoothed_log_k
            )
        k = math.inf if self._smoothed_log_k >= 39.0 else 10.0**self._smoothed_log_k
        return replace(profile, condition=k)

    @staticmethod
    def _rank(code: str) -> int:
        order = {"ST": 0, "PW": 0, "FB": 1, "K": 1, "KBN": 1, "CP": 2, "DD": 2, "IV": 2, "AS": 3, "PR": 3, "EX": 4}
        return order.get(code, 5)

    # -- API ---------------------------------------------------------------------
    def observe(self, chunks: "Sequence[np.ndarray] | np.ndarray") -> SelectionDecision:
        """Profile this step's data; select the algorithm to use now at its dtype's roundoff."""
        if isinstance(chunks, np.ndarray):
            chunks = [chunks]
        raw = profile_stream(list(chunks)).as_set_profile()
        smoothed = self._smooth(raw)
        u = [unit_roundoff_of({getattr(c, "dtype", None) for c in chunks})]
        decision = self.policy.select_many([smoothed], self.threshold, u=u)[0]
        self._step += 1

        if self._current_code is None:
            self._current_code = decision.code
            return decision

        if self._rank(decision.code) > self._rank(self._current_code):
            # escalation: adopt immediately, missing tolerance is worse
            self._switch(decision.code, smoothed, raw)
            self._down_candidate, self._down_streak = None, 0
        elif self._rank(decision.code) < self._rank(self._current_code):
            # de-escalation: demand margin + persistence
            strict = self.policy.select_many([smoothed], self.threshold / self.margin, u=u)[0]
            if self._rank(strict.code) < self._rank(self._current_code):
                if self._down_candidate == strict.code:
                    self._down_streak += 1
                else:
                    self._down_candidate, self._down_streak = strict.code, 1
                if self._down_streak >= self.cooldown:
                    self._switch(strict.code, smoothed, raw)
                    self._down_candidate, self._down_streak = None, 0
            else:
                self._down_candidate, self._down_streak = None, 0
        else:
            self._down_candidate, self._down_streak = None, 0

        predicted = decision.candidate_predictions.get(self._current_code, decision.predicted_std)
        return replace(decision, code=self._current_code, predicted_std=predicted)

    def _switch(self, to_code: str, smoothed: SetProfile, raw: SetProfile) -> None:
        self.log.append(
            SwitchEvent(
                step=self._step,
                from_code=self._current_code or "?",
                to_code=to_code,
                smoothed_condition=smoothed.condition,
                raw_condition=raw.condition,
            )
        )
        self._current_code = to_code

    @property
    def current_code(self) -> Optional[str]:
        return self._current_code

    @property
    def n_switches(self) -> int:
        return len(self.log)
