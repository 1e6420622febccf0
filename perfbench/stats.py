"""Summary statistics the benchmark reports: medians, the tail rule, tallies."""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field

#: the tail is read where at least this many samples lie beyond it
TAIL_BEYOND = 10
#: a long run's tail is the median over groups of this many consecutive samples
TAIL_GROUP = 200


def median(values) -> float:
    values = list(values)
    if not values:
        raise ValueError("median of no samples")
    return float(statistics.median(values))


@dataclass(frozen=True)
class Tail:
    """The highest nearest-rank percentile with ``TAIL_BEYOND`` samples above.

    ``value`` is the sample at sorted index ``n - TAIL_BEYOND - 1``; exactly
    ``beyond`` samples sit at higher indices.  ``percentile`` is that index's
    nearest-rank level, ``100 * (n - beyond) / n``.  ``groups`` is how many
    consecutive groups the samples were split into (see :func:`grouped_tail`).
    """

    value: float
    percentile: float
    samples: int
    beyond: int
    groups: int = 1


def tail(values, beyond: int = TAIL_BEYOND) -> Tail:
    """The tail sample of ``values`` (see :class:`Tail`).

    With ``beyond`` or fewer samples no percentile has enough samples past
    it; the tail is then the largest sample, with ``beyond`` 0.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("tail of no samples")
    if n <= beyond:
        return Tail(value=float(ordered[-1]), percentile=100.0, samples=n, beyond=0)
    return Tail(
        value=float(ordered[n - beyond - 1]),
        percentile=100.0 * (n - beyond) / n,
        samples=n,
        beyond=beyond,
    )


def grouped_tail(values) -> Tail:
    """The tail of samples in time order, steadied by grouping.

    Ten samples beyond the tail of a long run sit at p99.8 or higher, where
    a single stall on a shared host moves the value by half.  A run is
    therefore split into consecutive groups of ``TAIL_GROUP`` samples (the
    last takes the remainder); the tail is the median of the groups' tails,
    each with ``TAIL_BEYOND`` samples beyond it (p95 for a full group), and
    its percentile the median of theirs.  Shorter runs form one group.
    """
    values = list(values)
    groups = max(1, len(values) // TAIL_GROUP)
    tails = [
        tail(values[g * TAIL_GROUP : (g + 1) * TAIL_GROUP if g < groups - 1 else None])
        for g in range(groups)
    ]
    return Tail(
        value=median(t.value for t in tails),
        percentile=median(t.percentile for t in tails),
        samples=len(values),
        beyond=min(t.beyond for t in tails),
        groups=groups,
    )


@dataclass
class Tally:
    """Operations attempted and failed, with the reason for each failure."""

    attempted: int = 0
    failed: int = 0
    reasons: "dict[str, int]" = field(default_factory=dict)

    def ok(self, count: int = 1) -> None:
        self.attempted += count

    def fail(self, reason: str, count: int = 1) -> None:
        """``count`` operations attempted and failed for ``reason``."""
        self.attempted += count
        self.failed += count
        self.reasons[reason] = self.reasons.get(reason, 0) + count

    def demote(self, reason: str, count: int = 1) -> None:
        """``count`` already-attempted operations turn out wrong."""
        if count > self.attempted - self.failed:
            raise ValueError("cannot fail more operations than succeeded")
        self.failed += count
        self.reasons[reason] = self.reasons.get(reason, 0) + count
