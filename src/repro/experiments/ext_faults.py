"""Extension experiment: fault-induced shape variability vs reproducibility.

Sec. V.B predicts exascale reduction trees will change shape "to cope with
intermittent faults and inconsistently available resources" but the paper
never injects faults.  This extension does: a sweep over per-rank stall
probabilities drives the arrival-order reducer, and we record, per summation
algorithm, how many distinct values repeated runs produce and how much the
realised tree depth wanders.

Checks: ST's distinct-value count grows with fault rate; PR stays at exactly
one value at every fault rate; completion time grows with fault rate.
"""

from __future__ import annotations

import numpy as np

from repro.experiments.config import ExperimentResult, Scale, resolve_scale
from repro.generators.series import zero_sum_series
from repro.mpi.comm import SimComm
from repro.mpi.faults import FaultModel, run_campaign
from repro.mpi.ops import make_reduction_op
from repro.mpi.topology import MachineTopology
from repro.summation.registry import get_algorithm
from repro.util.rng import derive_seed
from repro.viz.tables import render_table

__all__ = ["run"]

_FAULT_PROBS = (0.0, 0.05, 0.15, 0.35)
_CODES = ("ST", "K", "CP", "PR")


def run(scale: "Scale | str | None" = None) -> ExperimentResult:
    scale = scale if isinstance(scale, Scale) else resolve_scale(scale)
    topo = MachineTopology(nodes=4, sockets_per_node=2, cores_per_socket=4)
    n_runs = 25 if scale.name != "paper" else 100
    data = zero_sum_series(topo.n_ranks * 2000, seed=derive_seed(scale.seed, "extfaults"))

    rows: list[dict] = []
    distinct = {code: [] for code in _CODES}
    mean_times: list[float] = []
    depth_spread: list[int] = []
    for fp in _FAULT_PROBS:
        comm = SimComm(topology=topo, seed=derive_seed(scale.seed, "extfaults", int(fp * 100)))
        chunks = comm.scatter_array(data)
        model = FaultModel(jitter=0.2, fault_prob=fp, fault_delay=30.0)
        for code in _CODES:
            # the object walk merges along every drawn tree, so PR's single
            # value is shown run by run rather than assumed by its exact path
            campaign = run_campaign(
                comm,
                chunks,
                make_reduction_op(get_algorithm(code)),
                model,
                n_runs,
                engine="object",
            )
            rows.append(
                {
                    "fault_prob": fp,
                    "algorithm": code,
                    "distinct_values": campaign.n_distinct_values,
                    "depth_min": int(campaign.depths.min()),
                    "depth_max": int(campaign.depths.max()),
                    "mean_time": float(campaign.times.mean()),
                }
            )
            distinct[code].append(campaign.n_distinct_values)
            if code == "ST":
                mean_times.append(float(campaign.times.mean()))
                depth_spread.append(int(campaign.depths.max() - campaign.depths.min()))

    text = render_table(
        ["fault_prob", "algorithm", "distinct_values", "depth_min", "depth_max", "mean_time"],
        [
            [r["fault_prob"], r["algorithm"], r["distinct_values"], r["depth_min"], r["depth_max"], r["mean_time"]]
            for r in rows
        ],
        title=f"fault sweep, {topo.n_ranks} ranks, {n_runs} runs per cell",
    )
    checks = {
        "ST irreproducible under nondeterminism (distinct > 1 at every rate)": all(
            d > 1 for d in distinct["ST"]
        ),
        "faults increase ST variability (max rate >= no-fault rate)": distinct["ST"][-1]
        >= distinct["ST"][0],
        "PR bitwise constant at every fault rate": all(d == 1 for d in distinct["PR"]),
        "CP constant or near-constant (<= 2 distinct values)": all(
            d <= 2 for d in distinct["CP"]
        ),
        "completion time grows with fault rate": mean_times[-1] > mean_times[0],
    }
    return ExperimentResult(
        experiment_id="extfaults",
        title="Extension: fault-injected shape variability",
        scale=scale.name,
        rows=tuple(rows),
        text=text,
        checks=checks,
    )
