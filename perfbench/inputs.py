"""Seeded benchmark inputs.

Every summand set is a pure function of an integer key, so the load
process can build a payload just before a timed window and a checker
process can rebuild the identical payload afterwards without either
holding a run's worth of data.  Keys embed the run's ``--seed``; no key
is used twice in one run, so payloads never repeat.

Condition numbers are log-uniform over [1, 1e18] and a share of sets sum
to exactly zero, which at the daemon's default threshold (1e-13) spreads
selection over all four algorithms: k <= 1e2 picks ST, ~1e4 K, 1e6-1e14
CP, and >= 1e16 or zero-sum PR.
"""

from __future__ import annotations

import numpy as np

from repro.generators import generate_sum_set, zero_sum_set

MAX_LOG10_K = 18.0
ZERO_SUM_SHARE = 0.1
MAX_DYNAMIC_RANGE = 40

#: workload tags keep the key spaces of different input streams apart
SERVE_SMALL, SERVE_BULK, ENSEMBLE, PROBE = 1, 2, 3, 4


#: the golden-ratio step of the low-discrepancy sequences below
_GOLDEN = (5**0.5 - 1) / 2


def golden(stream: "tuple[int, ...]", index: int) -> float:
    """Element ``index`` of a seeded low-discrepancy sequence over [0, 1).

    Any run of consecutive indices covers [0, 1) almost evenly, so a short
    timed run sees nearly the same mix of inputs as a long one and its
    medians do not wander with the seed.
    """
    return (np.random.default_rng(stream).random() + index * _GOLDEN) % 1.0


def regime(key: "tuple[int, ...]") -> float:
    """Where the set named by ``key`` sits in the regime distribution.

    Keys end in ``(request, row)``; the sequence is seeded by the rest of
    the key and steps along ``request + row``, so the rows of one request,
    and one window's single-row requests, each span the condition-number
    range evenly.
    """
    return golden(key[:-2], key[-2] + key[-1])


def summands(key: "tuple[int, ...]", n: int) -> np.ndarray:
    """The ``n``-value summand set named by ``key``.

    The first ``ZERO_SUM_SHARE`` of the regime range sums to exactly zero;
    the rest maps log-uniformly onto condition numbers in [1, 1e18].
    """
    rng = np.random.default_rng(key)
    dr = int(rng.integers(0, MAX_DYNAMIC_RANGE + 1))
    u = regime(key)
    if u < ZERO_SUM_SHARE:
        return zero_sum_set(n, dr, rng)
    k = 10.0 ** (MAX_LOG10_K * (u - ZERO_SUM_SHARE) / (1.0 - ZERO_SUM_SHARE))
    return generate_sum_set(n, k, dr, rng).values


def draw(key: "tuple[int, ...]", low: int, high: int) -> int:
    """A seeded integer in ``[low, high]`` (seeds, sample picks)."""
    return int(np.random.default_rng(key).integers(low, high + 1))


def spread(stream: "tuple[int, ...]", index: int, low: int, high: int) -> int:
    """Element ``index`` of a low-discrepancy sequence of integers in
    ``[low, high]`` (request sizes)."""
    return low + int(golden(stream, index) * (high - low + 1))
