"""Fault injection over simulated reductions.

Sec. V.B: "To cope with intermittent faults and inconsistently available
resources, we expect that the reduction trees employed by an exascale system
will vary not only in terms of arrangement of data among their leaves but
also in overall shape."  This module turns that expectation into a
measurable knob: a :class:`FaultModel` draws per-run rank stalls, and
:func:`run_campaign` measures how the *shape* variability it induces shows
up in the reduced values of each summation algorithm.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.mpi.comm import ReduceResult, SimComm
from repro.mpi.ops import ReductionOp
from repro.util.rng import SeedLike

__all__ = ["FaultModel", "CampaignResult", "run_campaign"]


@dataclass(frozen=True)
class FaultModel:
    """Stall model for one class of machine weather.

    ``fault_prob`` is the per-rank, per-run probability of a stall (e.g. a
    recovered transient error or a page migration); ``fault_delay`` its mean
    duration in simulated time units; ``jitter`` the everyday OS noise.
    """

    jitter: float = 0.25
    fault_prob: float = 0.02
    fault_delay: float = 25.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.fault_prob <= 1.0:
            raise ValueError("fault_prob must be a probability")
        if self.jitter < 0 or self.fault_delay < 0:
            raise ValueError("jitter/fault_delay must be non-negative")


@dataclass(frozen=True)
class CampaignResult:
    """Values and realised tree depths over a fault campaign."""

    values: np.ndarray  # (n_runs,) reduced values
    depths: np.ndarray  # (n_runs,) realised tree depths
    times: np.ndarray  # (n_runs,) simulated completion times
    algorithm_code: str

    @property
    def n_distinct_values(self) -> int:
        return int(np.unique(self.values).size)


def run_campaign(
    comm: SimComm,
    chunks: list[np.ndarray],
    op: ReductionOp,
    model: FaultModel,
    n_runs: int,
    engine: str = "auto",
) -> CampaignResult:
    """Repeat a nondeterministic reduction ``n_runs`` times under ``model``.

    Each run draws a fresh arrival schedule from the communicator's RNG, so
    tree shapes differ run to run; the returned depths quantify the shape
    variability and the values its numerical consequence.  ``engine`` is
    passed to :meth:`SimComm.reduce_nondeterministic`; ``"object"`` walks
    every drawn tree even for PR, whose ``"auto"`` path never reads it.
    """
    if n_runs < 1:
        raise ValueError("n_runs must be >= 1")
    values = np.empty(n_runs, dtype=np.float64)
    depths = np.empty(n_runs, dtype=np.int64)
    times = np.empty(n_runs, dtype=np.float64)
    for i in range(n_runs):
        res: ReduceResult = comm.reduce_nondeterministic(
            chunks,
            op,
            jitter=model.jitter,
            fault_prob=model.fault_prob,
            fault_delay=model.fault_delay,
            engine=engine,
        )
        values[i] = res.value
        depths[i] = res.tree.depth()
        times[i] = res.simulated_time
    return CampaignResult(
        values=values, depths=depths, times=times, algorithm_code=op.code
    )
