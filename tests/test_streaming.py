"""Streaming selector: smoothing, hysteresis, decision log."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.generators import generate_sum_set, zero_sum_set
from repro.selection import StreamingSelector


def benign(seed: int) -> np.ndarray:
    return generate_sum_set(1000, 1.0, 8, seed=seed).values


def hostile(seed: int) -> np.ndarray:
    return zero_sum_set(1000, 32, seed=seed)


class TestEscalation:
    def test_immediate_escalation_on_crisis(self):
        # alpha=1 disables smoothing so the crisis profile hits the policy raw
        s = StreamingSelector(threshold=1e-13, alpha=1.0)
        for i in range(3):
            s.observe(benign(i))
        assert s.current_code == "ST"
        s.observe(hostile(10))
        assert s.current_code == "PR"
        assert s.n_switches == 1
        assert s.log[0].from_code == "ST" and s.log[0].to_code == "PR"

    def test_smoothed_escalation_still_escalates(self):
        # with smoothing the blended profile may select CP instead of PR,
        # but it must leave ST on the crisis step
        s = StreamingSelector(threshold=1e-13, alpha=0.3)
        for i in range(3):
            s.observe(benign(i))
        s.observe(hostile(10))
        assert s.current_code in ("CP", "PR")

    def test_deescalation_needs_cooldown(self):
        s = StreamingSelector(threshold=1e-13, cooldown=3, alpha=1.0, margin=1.0)
        s.observe(hostile(0))
        assert s.current_code == "PR"
        codes = [s.observe(benign(i)).code for i in range(5)]
        # stays on PR through the cooldown window, then drops
        assert codes[0] == "PR" and codes[1] == "PR"
        assert s.current_code == "ST"

    def test_smoothing_delays_deescalation(self):
        fast = StreamingSelector(threshold=1e-13, alpha=1.0, cooldown=1, margin=1.0)
        slow = StreamingSelector(threshold=1e-13, alpha=0.2, cooldown=1, margin=1.0)
        for s in (fast, slow):
            s.observe(hostile(0))
        fast_steps = slow_steps = None
        for i in range(60):
            if fast.observe(benign(i)).code == "ST" and fast_steps is None:
                fast_steps = i
            if slow.observe(benign(i)).code == "ST" and slow_steps is None:
                slow_steps = i
        assert fast_steps is not None
        assert slow_steps is None or slow_steps > fast_steps


class TestStability:
    def test_no_thrash_on_noisy_boundary(self):
        """Alternating near-boundary profiles must not flip the algorithm
        every step."""
        s = StreamingSelector(threshold=1e-13, cooldown=3)
        rng = np.random.default_rng(5)
        for i in range(30):
            k = 10.0 ** float(rng.uniform(2.5, 3.5))  # straddles ST/K-ish zone
            s.observe(generate_sum_set(1000, k, 8, seed=i).values)
        assert s.n_switches <= 3

    def test_chunks_sequence_accepted(self):
        s = StreamingSelector(threshold=1e-13)
        data = benign(1)
        d1 = s.observe([data[:500], data[500:]])
        assert d1.code == s.current_code

    def test_low_precision_data_selects_at_its_own_roundoff(self):
        """fp32 steps are selected at u = 2**-24, not upcast to binary64."""
        data = benign(3)
        s64 = StreamingSelector(threshold=1e-13)
        s32 = StreamingSelector(threshold=1e-13)
        d64 = s64.observe(data)
        d32 = s32.observe(data.astype(np.float32))  # repro: allow[FP005] -- fp32 data selecting at its own roundoff is under test
        assert (d64.code, d64.u) == ("ST", 2.0**-53)
        assert d32.u == 2.0**-24
        assert d32.code == s32.policy.select(d32.profile, 1e-13, u=2.0**-24).code
        assert d32.code != "ST"

    def test_log_records_conditions(self):
        s = StreamingSelector(threshold=1e-13)
        s.observe(benign(0))
        s.observe(hostile(1))
        ev = s.log[0]
        assert math.isinf(ev.raw_condition)
        assert ev.step == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            StreamingSelector(alpha=0.0)
        with pytest.raises(ValueError):
            StreamingSelector(margin=0.5)
        with pytest.raises(ValueError):
            StreamingSelector(cooldown=0)
