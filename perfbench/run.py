"""Repository benchmark: serve_small, serve_bulk and ensemble_sweep.

Usage, from the repository root::

    python3 perfbench/run.py --workload serve_small --seed 1 --seconds 12 --trace 0

Needs only the source tree under ``src/`` (nothing is installed).  With
``--trace 0`` it times the workload against the production defaults,
checks every output, and prints the end-to-end metrics; with ``--trace 1``
it runs the same inputs untraced and then through span-traced processes
and prints the per-layer metrics.  The last stdout line is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the line before
it carries the detail (raw and normalised forms, tail percentiles and
sample counts, the host's limits).  Exits 1 when any check fails and 2
when the source tree is missing.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

WORKLOADS = ("serve_small", "serve_bulk", "ensemble_sweep")

#: cold starts per run; setup_s is their median
COLD_STARTS = 9

#: Timings are gated in reference units (see refclock.py) and printed raw
#: beside them.  Units are shared by all workloads, so one form serves all
#: three: over ten runs each on a 2-vCPU shared host, normalising cut the
#: spread of throughput and lat_p50 1.3-3x on every workload and left
#: lat_tail's about level.
REF_UNITS = {"throughput": "1/ref", "lat_p50": "ref", "lat_tail": "ref"}
RAW_UNITS = {"throughput": "1/s", "lat_p50": "ms", "lat_tail": "ms"}

#: IQR/median (max/min) of per-run medians measured on that host before
#: this benchmark existed: the case for normalising
SPREADS_MEASURED = {
    "reduce_many_in_process": {"raw": "12% (1.42)", "normalised": "3.7% (1.15)"},
    "evaluate_ensemble_in_process": {"raw": "max/min 1.41", "normalised": "max/min 1.12"},
    "served_bulk_p50": {"raw": "15% (1.63)", "normalised": "4.6% (1.09)"},
    "served_small_p50": {"raw": "2.6% (1.085)", "normalised": "5.6% (1.115)"},
}

#: per-layer metrics (``--trace 1``); a layer the workload never calls reads 0
PER_LAYER = {
    "serve.client_ms": "ms",
    "serve.request_ms": "ms",
    "serve.wire_ms": "ms",
    "serve.ingest_us": "us",
    "serve.render_us": "us",
    "serve.bytes_copied": "bytes",
    "batcher.wait_ms": "ms",
    "batcher.linger_ms": "ms",
    "batcher.items_per_tick": "items",
    "batcher.ticks": "count",
    "batcher.rejected": "count",
    "batcher.deadline_misses": "count",
    "selection.profile_us_per_item": "us",
    "selection.select_us_per_item": "us",
    "selection.bound_us_per_item": "us",
    "selection.tier_certified_share": "share",
    "selection.code_share.ST": "count",
    "selection.code_share.K": "count",
    "selection.code_share.CP": "count",
    "selection.code_share.PR": "count",
    "selection.decision_cache_hit_ratio": "ratio",
    "mpi.scatter_us_per_item": "us",
    "mpi.reduce_batch_us_per_item.ST": "us",
    "mpi.reduce_batch_us_per_item.K": "us",
    "mpi.reduce_batch_us_per_item.CP": "us",
    "mpi.reduce_us_per_item.PR": "us",
    "trees.ensemble_us_per_tree.balanced": "us",
    "trees.ensemble_us_per_tree.serial": "us",
    "trees.ensemble_us_per_tree.random": "us",
    "trees.random_shape_ms": "ms",
    "trees.schedule_hit_ratio": "ratio",
    "trees.ckernel_fallbacks": "count",
    "exact.sum_us_per_item": "us",
    "pool.tasks": "count",
    "setup.import_s": "s",
    "setup.listen_s": "s",
    "setup.first_result_s": "s",
    "ckernels.build_s": "s",
    "trace.overhead": "share",
    "mix.serve_batcher_wire_share": "share",
    "mix.frames_scatter_share": "share",
    "self_share.serve": "share",
    "self_share.batcher": "share",
    "self_share.selection": "share",
    "self_share.mpi": "share",
    "self_share.trees": "share",
    "self_share.exact": "share",
    "self_share.ensemble": "share",
}


def _parse(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def end_to_end(result: dict) -> "tuple[dict, dict]":
    """The gated metrics, and the detail printed beside them."""
    metrics = {
        "setup_s": {"value": result["setup_s"], "unit": "s"},
        "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
    }
    detail = {}
    thr_raw, thr_norm = result["throughput"]
    (p50_raw, p50_norm), (tail_raw, tail_norm) = result["lat_p50"], result["lat_tail"]
    raw = {"throughput": thr_raw, "lat_p50": 1e3 * p50_raw, "lat_tail": 1e3 * tail_raw.value}
    norm = {"throughput": thr_norm, "lat_p50": p50_norm, "lat_tail": tail_norm.value}
    for name, unit in REF_UNITS.items():
        metrics[name] = {"value": norm[name], "unit": unit}
        detail[f"{name}_raw"] = {"value": raw[name], "unit": RAW_UNITS[name]}
    detail["lat_tail_percentile"] = tail_raw.percentile
    detail["lat_tail_samples"] = tail_raw.samples
    detail["lat_tail_beyond"] = tail_raw.beyond
    detail["lat_tail_groups"] = tail_raw.groups
    detail["setup_listen_s"] = result["listen_s"]
    detail["windows"] = [
        {"items": w.items, "seconds": w.seconds, "ref_before_s": w.ref_before, "ref_after_s": w.ref_after}
        for w in result["windows"]
    ]
    if "codes" in result:
        detail["algorithm_counts"] = result["codes"]
    return metrics, detail


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no source tree at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import procs

    # the load process and the process doing the work share one CPU, so the
    # reference timed between windows runs where the work ran
    procs.pin()
    procs.adopt_orphans()
    spinner = None
    try:
        spinner = procs.start_idle_spinner()
        return _run(args)
    except procs.BenchError as exc:
        print(f"perfbench: {args.workload}: {exc}", file=sys.stderr)
        return 1
    finally:
        if spinner is not None:
            procs.kill_all([spinner])
        left = procs.reap_all()
        if left:
            print(f"perfbench: had to signal leftover processes {left}", file=sys.stderr)


def _run(args: argparse.Namespace) -> int:
    import ensemble_wl
    import procs
    import serve_wl

    serve = {"serve_small": serve_wl.SERVE_SMALL, "serve_bulk": serve_wl.SERVE_BULK}
    try:
        procs.build_ckernels(procs.CKERNEL_CACHE)
        if args.trace:
            build_s = procs.fresh_ckernel_build()
            if args.workload in serve:
                result = serve_wl.traced_run(
                    serve[args.workload], args.seed, args.seconds, COLD_STARTS, build_s
                )
            else:
                result = ensemble_wl.traced_run(args.seed, args.seconds, COLD_STARTS, build_s)
            layers = result["layers"]
            metrics = {
                name: {"value": float(layers.get(name, 0.0)), "unit": unit}
                for name, unit in PER_LAYER.items()
            }
            detail = {"layers_measured": sorted(layers)}
        else:
            if args.workload in serve:
                result = serve_wl.run(serve[args.workload], args.seed, args.seconds, COLD_STARTS)
            else:
                result = ensemble_wl.run(args.seed, args.seconds, COLD_STARTS)
            metrics, detail = end_to_end(result)
    except procs.BenchError as exc:
        print(f"perfbench: {args.workload}: {exc}", file=sys.stderr)
        return 1
    tally = result["tally"]
    detail.update(
        {
            "workload": args.workload,
            "host": procs.host_info(),
            "normalised": REF_UNITS,
            "spreads_measured": SPREADS_MEASURED,
            "failures": tally.reasons,
        }
    )
    print(json.dumps({"detail": detail}))
    correct = tally.failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
