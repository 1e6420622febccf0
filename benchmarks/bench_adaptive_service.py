"""Perf trajectory: seed-path vs vector-engine collective reductions.

The acceptance bar for the vectorized collective engine is quantitative: a
48-rank reduction of 4096-element chunks must beat the seed's object path
(one Python accumulator per rank, one Python ``op.combine`` per tree node)
by >= 10x for both Kahan and composite precision, the batched serving
path (:meth:`AdaptiveReducer.reduce_many`) must amortise its per-reduction
profile+select overhead below the per-call pipeline's, its one-pass
sketch must keep profile+select >= 5x below the same pipeline on the
frozen composite-precision ladder, and a PR group's exact batched
``reduce_batch`` must beat the per-item accumulator walk by >= 5x.  This bench times
both generations at a fixed paper-shaped workload and writes the numbers to
``BENCH_adaptive.json`` at the repo root so future PRs extend the perf
trajectory instead of re-arguing it.

Methodology
-----------
* The seed collective path is **frozen inline** below (the body
  ``SimComm.reduce`` shipped before the engine split), so the comparison is
  against what the seed actually executed, not today's object engine called
  through new plumbing.  The profiling ladder and the per-item PR walk are
  frozen the same way.
* Vector and seed paths are asserted bitwise-equal before any timing.
* Timings are best-of-N wall times (minimum = least noisy point estimate).
  The collective rows time both paths in interleaved best-of blocks and
  report each side's median block, so a slow phase of a shared host lands
  on both sides instead of skewing the ratio.

Run directly (CI does, as a smoke job that uploads the JSON artifact)::

    python benchmarks/bench_adaptive_service.py

or under pytest, where the speedup floors are asserted::

    python -m pytest benchmarks/bench_adaptive_service.py -q
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np

from repro.fp.eft import two_sum_array
from repro.generators import generate_sum_set, zero_sum_set
from repro.mpi.comm import SimComm
from repro.mpi.ops import make_reduction_op
from repro.obs import get_registry
from repro.selection import AnalyticPolicy, selector
from repro.selection.profile import StreamProfile, profile_batch, set_profiles
from repro.selection.selector import AdaptiveReducer
from repro.summation import get_algorithm
from repro.trees import _ckernels
from repro.trees.shapes import balanced
from repro.util.pool import default_workers, pool_info
from repro.util.tickblock import TickBlock

REPO_ROOT = Path(__file__).resolve().parent.parent
OUTPUT = REPO_ROOT / "BENCH_adaptive.json"

#: the acceptance-criterion workload: 48 ranks (the paper's testbed node
#: width), 4096-element chunks, balanced rank tree
N_RANKS = 48
CHUNK_LEN = 4096

#: serving-path workload: a stream of same-shape reductions
BATCH_ITEMS = 64
BATCH_CHUNK_LEN = 256

#: PR group workload: the per-rank width of a 6144-value served item
PR_CHUNK_LEN = 128


def _best_of(fn, repeats: int = 3) -> float:
    """Best-of-N wall time; the minimum is the least noisy point estimate."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _interleaved_best_of(fns, blocks: int = 7, repeats: int = 5) -> "list[float]":
    """Per-side median of ``blocks`` best-of-``repeats`` wall times, the
    sides' blocks interleaved (the drift cancelling perfbench applies to
    whole runs, at block scale)."""
    best: "list[list[float]]" = [[] for _ in fns]
    for _ in range(blocks):
        for side, fn in enumerate(fns):
            best[side].append(_best_of(fn, repeats))
    return [float(np.median(b)) for b in best]


def _seed_reduce(comm: SimComm, chunks, op, tree) -> float:
    """Frozen copy of the seed's ``SimComm.reduce`` execution body."""
    accs = [op.local(chunk) for chunk in chunks]
    slots = accs + [None] * (comm.n_ranks - 1)
    for a, b, out in tree.iter_steps():
        slots[out] = op.combine(slots[a], slots[b])
    return op.finalize(slots[tree.root_slot])


def _workload(seed: int, n_ranks: int = N_RANKS, chunk_len: int = CHUNK_LEN):
    rng = np.random.default_rng(seed)
    return [
        rng.uniform(-1.0, 1.0, chunk_len) * 10.0 ** rng.integers(-6, 7, size=chunk_len)
        for _ in range(n_ranks)
    ]


def bench_collective(code: str = "K", repeats: int = 5) -> dict:
    """One 48-rank collective: seed object walk vs compiled vector engine."""
    chunks = _workload(seed=1234)
    comm = SimComm(N_RANKS)
    op = make_reduction_op(get_algorithm(code))
    tree = balanced(N_RANKS)

    ref = _seed_reduce(comm, chunks, op, tree)
    out = comm.reduce(chunks, op, tree, engine="vector").value
    assert np.float64(ref).tobytes() == np.float64(out).tobytes(), (
        f"vector engine diverged from seed path for {code}: {ref!r} vs {out!r}"
    )

    t_seed, t_vector = _interleaved_best_of(
        [
            lambda: _seed_reduce(comm, chunks, op, tree),
            lambda: comm.reduce(chunks, op, tree, engine="vector"),
        ],
        repeats=repeats,
    )
    return {
        "case": "collective_reduce",
        "algorithm": code,
        "n_ranks": N_RANKS,
        "chunk_len": CHUNK_LEN,
        "seed_path_s": t_seed,
        "vector_path_s": t_vector,
        "speedup": t_seed / t_vector,
        "reductions_per_s_vector": 1.0 / t_vector,
    }


def bench_serving(repeats: int = 3) -> dict:
    """Serving path: reduce_many stream vs a loop of standalone reduce calls."""
    rng = np.random.default_rng(99)
    batches = [
        [rng.random(BATCH_CHUNK_LEN) for _ in range(N_RANKS)]
        for _ in range(BATCH_ITEMS)
    ]
    comm = SimComm(N_RANKS)

    reducer = AdaptiveReducer(comm, threshold=1e-13)
    many = reducer.reduce_many(batches, tree="balanced")
    solo = [reducer.reduce(b, tree="balanced") for b in batches]
    for m, s in zip(many, solo):
        assert m.decision.code == s.decision.code
        assert np.float64(m.value).tobytes() == np.float64(s.value).tobytes(), (
            "serving path diverged from the per-call pipeline"
        )

    def run_many():
        r = AdaptiveReducer(comm, threshold=1e-13)
        return r.reduce_many(batches, tree="balanced")

    def run_loop():
        r = AdaptiveReducer(comm, threshold=1e-13)
        return [r.reduce(b, tree="balanced") for b in batches]

    t_many = _best_of(run_many, repeats)
    t_loop = _best_of(run_loop, repeats)
    results = run_many()
    solo_one = AdaptiveReducer(comm, threshold=1e-13).reduce(
        batches[0], tree="balanced"
    )
    return {
        "case": "adaptive_serving",
        "items": BATCH_ITEMS,
        "n_ranks": N_RANKS,
        "chunk_len": BATCH_CHUNK_LEN,
        "loop_s": t_loop,
        "reduce_many_s": t_many,
        "speedup": t_loop / t_many,
        # amortised per-reduction overhead of the profile+select stage,
        # vs what one standalone call pays for the same stage
        "profile_select_s_per_item_many": results[0].profile_seconds,
        "profile_select_s_per_item_loop": solo_one.profile_seconds,
        "reduce_s_per_item_many": results[0].reduce_seconds,
        "reduce_s_per_item_loop": solo_one.reduce_seconds,
    }


def _seed_cp_sum_rows(matrix: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
    """Frozen copy of the composite-precision pairwise ladder the profiling
    sketch ran before the fused sketch kernel: ``(hi, lo)`` per row."""
    s = matrix.copy()
    n_rows = matrix.shape[0]
    lo = np.zeros(n_rows, dtype=np.float64)
    while s.shape[1] > 1:
        if s.shape[1] % 2:
            tail = s[:, -1:]
            s = s[:, :-1]
        else:
            tail = None
        t, err = two_sum_array(s[:, 0::2], s[:, 1::2])
        lo += np.sum(err, axis=1)  # repro: allow[FP002,FP003] -- frozen reference ladder, timed only
        s = t if tail is None else np.concatenate([t, tail], axis=1)
    hi = s[:, 0].copy() if s.shape[1] else np.zeros(n_rows, dtype=np.float64)
    return hi, lo


def _seed_profile_batch(block) -> "list[StreamProfile]":
    """Frozen copy of ``profile_batch`` as it ran on the composite-precision
    ladder (uniform-width streams only), reading a tick block's rows: five
    full-matrix NumPy passes for the magnitude statistics, ~50 for the
    ladder, then the rank-merge chain vectorised over items."""
    n_items, n_ranks = len(block), int(block.ranks[0])
    matrix = np.concatenate(block.rows).reshape(n_items * n_ranks, -1)
    width = matrix.shape[1]
    a = np.abs(matrix)
    row_max = a.max(axis=1)
    row_min = np.min(a, axis=1, initial=np.inf, where=(a > 0.0))
    row_abs = np.sum(a, axis=1)  # repro: allow[FP002] -- frozen reference sketch, timed only
    cp_hi, cp_lo = _seed_cp_sum_rows(matrix)
    chunk_sh, err0 = two_sum_array(0.0, cp_hi)
    chunk_sl = 0.0 + (err0 + cp_lo)

    def col(v: np.ndarray, r: int) -> np.ndarray:
        return v.reshape(n_items, n_ranks)[:, r]

    max_tot = np.zeros(n_items, dtype=np.float64)
    min_tot = np.full(n_items, np.inf)
    ah = np.zeros(n_items, dtype=np.float64)
    al = np.zeros(n_items, dtype=np.float64)
    sh = np.zeros(n_items, dtype=np.float64)
    sl = np.zeros(n_items, dtype=np.float64)
    for r in range(n_ranks):
        max_tot = np.maximum(max_tot, col(row_max, r))
        min_tot = np.minimum(min_tot, col(row_min, r))
        ah, err = two_sum_array(ah, col(row_abs, r))
        al = (al + err) + 0.0
        sh, err = two_sum_array(sh, col(chunk_sh, r))
        sl = sl + (err + col(chunk_sl, r))
    return [
        StreamProfile(
            n=n_ranks * width,
            max_abs=float(max_tot[i]),
            min_abs_nonzero=float(min_tot[i]),
            abs_sum_hi=float(ah[i]),
            abs_sum_lo=float(al[i]),
            sum_hi=float(sh[i]),
            sum_lo=float(sl[i]),
        )
        for i in range(n_items)
    ]


def bench_selection_stage(repeats: int = 3) -> dict:
    """Selection cost on one serving stream, two ways: the profiled path
    (one fused sketch-kernel pass + policy) and the same pipeline with the
    frozen composite-precision ladder as its profiler.  The acceptance
    bar: the profiled path's per-item profile+select is >= 5x below the
    ladder's, with every value bitwise-equal to a standalone ``reduce``."""
    rng = np.random.default_rng(99)
    batches = [
        [rng.random(BATCH_CHUNK_LEN) for _ in range(N_RANKS)]
        for _ in range(BATCH_ITEMS)
    ]
    comm = SimComm(N_RANKS)

    def run_profiled():
        r = AdaptiveReducer(comm, threshold=1e-13)
        return r.reduce_many(batches, tree="balanced", workers=1)

    def run_ladder():
        with mock.patch.object(selector, "profile_batch", _seed_profile_batch):
            return run_profiled()

    solo = AdaptiveReducer(comm, threshold=1e-13)
    for got, chunks in zip(run_profiled(), batches):
        ref = solo.reduce(chunks, tree="balanced")
        assert got.decision.code == ref.decision.code
        assert np.float64(got.value).tobytes() == np.float64(ref.value).tobytes(), (
            "batched selection changed a reduction value"
        )

    t_profiled = _best_of(run_profiled, repeats)
    # per-item selection-stage costs (profile_seconds amortises sketch +
    # policy query); best-of-N, same methodology as the wall times
    profile_select = min(
        run_profiled()[0].profile_seconds for _ in range(repeats)
    )
    ladder_select = min(run_ladder()[0].profile_seconds for _ in range(repeats))
    return {
        "case": "selection_stage",
        "items": BATCH_ITEMS,
        "n_ranks": N_RANKS,
        "chunk_len": BATCH_CHUNK_LEN,
        "ladder_select_s_per_item": ladder_select,
        "profile_select_s_per_item": profile_select,
        "profile_speedup_vs_ladder": ladder_select / profile_select,
        "reduce_many_s_profiled": t_profiled,
    }


def bench_sketch_stream(repeats: int = 25) -> dict:
    """The serving item shape (64 items x 48 ranks x 128 values): per-item
    cost of the fused sketch (``profile_batch``, against the frozen ladder)
    and of ST/K/CP ``reduce_batch`` over packed row pointers.  The sketch
    is asserted equal to per-item profiling before timing.  Each timed call
    takes ~1 ms, so best-of-25 costs little and is what keeps the minimum
    stable on a shared host (best-of-5 spread 17-35 us/item there)."""
    rng = np.random.default_rng(5)
    batches = [
        [
            rng.uniform(-1.0, 1.0, PR_CHUNK_LEN)
            * 10.0 ** rng.integers(-8, 9, size=PR_CHUNK_LEN)
            for _ in range(N_RANKS)
        ]
        for _ in range(BATCH_ITEMS)
    ]
    comm = SimComm(N_RANKS)
    reducer = AdaptiveReducer(comm)
    for sketch, chunks in zip(profile_batch(batches), batches):
        assert sketch == reducer.profile(chunks), "profile_batch diverged"
    per_item = 1e6 / BATCH_ITEMS
    row = {
        "case": "sketch_stream",
        "items": BATCH_ITEMS,
        "n_ranks": N_RANKS,
        "chunk_len": PR_CHUNK_LEN,
        "ladder_profile_us_per_item": per_item
        * _best_of(lambda: _seed_profile_batch(TickBlock.of(batches)), repeats),
        "profile_batch_us_per_item": per_item
        * _best_of(lambda: profile_batch(batches), repeats),
    }
    for code in ("ST", "K", "CP"):
        op = make_reduction_op(get_algorithm(code))
        row[f"reduce_batch_us_per_item_{code}"] = per_item * _best_of(
            lambda: comm.reduce_batch(batches, op, "balanced"), repeats
        )
    return row


def bench_select_stage(repeats: int = 25) -> dict:
    """The select stage alone — ``set_profiles`` plus one policy query —
    per item on a 64-item stream of the serving item shape (48 ranks x 128
    values; condition numbers log-uniform in [1, 1e18], every fourth item
    an exact-zero sum, so every candidate is chosen) and per 1-item tick,
    at t = 1e-13.  Recorded, not gated."""
    rng = np.random.default_rng(9)
    comm = SimComm(N_RANKS)
    n = N_RANKS * PR_CHUNK_LEN
    items = [
        comm.scatter_array(
            zero_sum_set(n, 8, rng)
            if i % 4 == 0
            else generate_sum_set(n, 10.0 ** rng.uniform(0, 18), 8, rng).values
        )
        for i in range(BATCH_ITEMS)
    ]
    block = TickBlock.of(items)
    sketches = profile_batch(block)
    policy = AnalyticPolicy()

    def select(count: int):
        return policy.select_many(
            set_profiles(sketches[:count]), 1e-13, u=block.us[:count]
        )

    codes = Counter(d.code for d in select(BATCH_ITEMS))
    return {
        "case": "select_stage",
        "items": BATCH_ITEMS,
        "n_ranks": N_RANKS,
        "chunk_len": PR_CHUNK_LEN,
        "codes": dict(sorted(codes.items())),
        "stream_us_per_item": 1e6 * _best_of(lambda: select(BATCH_ITEMS), repeats) / BATCH_ITEMS,
        "tick_us": 1e6 * _best_of(lambda: select(1), repeats),
    }


def _seed_pr_reduce(comm: SimComm, chunks, op, tree) -> float:
    """The per-item PR walk: the max-allreduce pre-pass binds the context,
    then the frozen seed body folds and merges one accumulator per rank."""
    local_max = [float(np.max(np.abs(c))) if c.size else 0.0 for c in chunks]
    op = op.with_context_for(comm.max_allreduce(local_max))
    return _seed_reduce(comm, chunks, op, tree)


_has_kernel = _ckernels.has_kernel


def _numpy_pr_fold(vops, family: str = "sweep") -> bool:
    """``has_kernel`` with only PR's compiled fold switched off."""
    return family != "pr_fold" and _has_kernel(vops, family)


def bench_pr_stream(repeats: int = 3) -> dict:
    """A PR serving group: one exact batched ``reduce_batch`` pass against
    the per-item accumulator walk the serving path used to run, and against
    the same batched pass on the NumPy fold (the path before the compiled
    ``pr_fold`` kernel, and the one without a compiler).  Values are
    asserted bitwise-equal before timing; ``speedup_vs_numpy`` is 1 when
    the kernels are unavailable."""
    rng = np.random.default_rng(7)
    batches = [
        [
            rng.uniform(-1.0, 1.0, PR_CHUNK_LEN)
            * 10.0 ** rng.integers(-12, 13, size=PR_CHUNK_LEN)
            for _ in range(N_RANKS)
        ]
        for _ in range(BATCH_ITEMS)
    ]
    comm = SimComm(N_RANKS)
    op = make_reduction_op(get_algorithm("PR"))
    tree = balanced(N_RANKS)

    batched = comm.reduce_batch(batches, op, tree)
    for chunks, rr in zip(batches, batched):
        ref = _seed_pr_reduce(comm, chunks, op, tree)
        assert np.float64(ref).tobytes() == np.float64(rr.value).tobytes(), (
            f"exact batched PR diverged from the per-item walk: {ref!r} vs {rr.value!r}"
        )

    t_walk = _best_of(
        lambda: [_seed_pr_reduce(comm, chunks, op, tree) for chunks in batches],
        repeats,
    )
    with mock.patch.object(_ckernels, "has_kernel", _numpy_pr_fold):
        numpy_values = [rr.value for rr in comm.reduce_batch(batches, op, tree)]
        assert np.array(numpy_values).tobytes() == np.array(
            [rr.value for rr in batched]
        ).tobytes(), "the NumPy PR fold diverged from the compiled one"
        t_numpy = _best_of(lambda: comm.reduce_batch(batches, op, tree), repeats)
    t_batch = _best_of(lambda: comm.reduce_batch(batches, op, tree), repeats)
    return {
        "case": "pr_stream",
        "algorithm": "PR",
        "items": BATCH_ITEMS,
        "n_ranks": N_RANKS,
        "chunk_len": PR_CHUNK_LEN,
        "walk_s": t_walk,
        "numpy_batch_s": t_numpy,
        "reduce_batch_s": t_batch,
        "walk_us_per_item": 1e6 * t_walk / BATCH_ITEMS,
        "numpy_batch_us_per_item": 1e6 * t_numpy / BATCH_ITEMS,
        "reduce_batch_us_per_item": 1e6 * t_batch / BATCH_ITEMS,
        "speedup": t_walk / t_batch,
        "speedup_vs_numpy": t_numpy / t_batch,
    }


def run_all(repeats: int = 5) -> dict:
    cases = [
        bench_collective("K", repeats),
        bench_collective("CP", repeats),
        bench_serving(max(2, repeats - 2)),
        bench_selection_stage(max(2, repeats - 2)),
        bench_pr_stream(max(2, repeats - 2)),
        bench_sketch_stream(),
        bench_select_stage(),
    ]
    return {
        "bench": "adaptive_service",
        "schema": 1,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "ckernels": _ckernels.kernels_available(),
        # serving-engine context: the worker count auto-parallel paths would
        # use, and the persistent pool's reuse counters (starts vs dispatches)
        "workers": default_workers(),
        "pool_reuse": pool_info(),
        "cases": cases,
    }


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        description="Adaptive-service bench (collective + serving path)."
    )
    parser.add_argument(
        "--metrics-out",
        default=None,
        metavar="PATH",
        help="enable repro.obs metrics for the run and write the registry "
        "snapshot (JSON) here; inspect with repro-metrics",
    )
    args = parser.parse_args(argv)
    registry = get_registry()
    if args.metrics_out:
        registry.enable()
    payload = run_all()
    payload["metrics_enabled"] = registry.enabled
    OUTPUT.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {OUTPUT}")
    if args.metrics_out:
        metrics_path = Path(args.metrics_out)
        metrics_path.parent.mkdir(parents=True, exist_ok=True)
        metrics_path.write_text(registry.to_json() + "\n")
        print(f"metrics snapshot written to {metrics_path}")
    for c in payload["cases"]:
        if c["case"] == "collective_reduce":
            print(
                f"{c['case']:>18} {c['algorithm']:>3}  R={c['n_ranks']} "
                f"m={c['chunk_len']}  seed={c['seed_path_s'] * 1e3:.2f}ms  "
                f"vector={c['vector_path_s'] * 1e3:.2f}ms  "
                f"speedup={c['speedup']:.1f}x"
            )
        elif c["case"] == "adaptive_serving":
            print(
                f"{c['case']:>18}      B={c['items']}  loop={c['loop_s'] * 1e3:.1f}ms  "
                f"reduce_many={c['reduce_many_s'] * 1e3:.1f}ms  "
                f"speedup={c['speedup']:.1f}x"
            )
        elif c["case"] == "pr_stream":
            print(
                f"{c['case']:>18} {c['algorithm']:>3}  B={c['items']}  "
                f"walk={c['walk_us_per_item']:.0f}us/item  "
                f"numpy_batch={c['numpy_batch_us_per_item']:.0f}us/item  "
                f"reduce_batch={c['reduce_batch_us_per_item']:.0f}us/item  "
                f"speedup={c['speedup']:.1f}x vs_numpy={c['speedup_vs_numpy']:.1f}x"
            )
        elif c["case"] == "sketch_stream":
            print(
                f"{c['case']:>18}      B={c['items']}  "
                f"ladder={c['ladder_profile_us_per_item']:.0f}us/item  "
                f"profile_batch={c['profile_batch_us_per_item']:.0f}us/item  "
                + "  ".join(
                    f"{code}={c[f'reduce_batch_us_per_item_{code}']:.0f}us/item"
                    for code in ("ST", "K", "CP")
                )
            )
        elif c["case"] == "select_stage":
            print(
                f"{c['case']:>18}      B={c['items']}  "
                f"stream={c['stream_us_per_item']:.1f}us/item  "
                f"1-item tick={c['tick_us']:.1f}us  codes={c['codes']}"
            )
        else:
            print(
                f"{c['case']:>18}      B={c['items']}  "
                f"ladder_select={c['ladder_select_s_per_item'] * 1e6:.1f}us/item  "
                f"profile_select={c['profile_select_s_per_item'] * 1e6:.1f}us/item  "
                f"vs_ladder={c['profile_speedup_vs_ladder']:.1f}x"
            )
    return 0


# -- pytest entry points: assert the acceptance floors -------------------------


def _collective_floor() -> float:
    """>= 10x needs the compiled fold kernels; the NumPy fold still has to
    beat the per-rank accumulator loop, but only by a bandwidth-bound
    margin, so the no-compiler floor drops to parity."""
    return 10.0 if _ckernels.kernels_available() else 1.0


def _assert_collective_floor(code: str) -> None:
    """The structural margin is ~13x; a loaded CI box can still starve one
    side's best-of-N, so take more repeats and allow a single re-measure
    (same policy as fig4's timing-ranking check)."""
    row = bench_collective(code, repeats=5)
    if row["speedup"] < _collective_floor():
        row = bench_collective(code, repeats=5)
    assert row["speedup"] >= _collective_floor(), row


def test_collective_vector_speedup_floor_kahan():
    """Acceptance: >= 10x over the seed object walk (R=48, m=4096, K)."""
    _assert_collective_floor("K")


def test_collective_vector_speedup_floor_cp():
    """Acceptance: >= 10x over the seed object walk (R=48, m=4096, CP)."""
    _assert_collective_floor("CP")


def test_serving_path_amortises_overhead():
    row = bench_serving(repeats=2)
    assert row["speedup"] > 1.0, row


def test_one_pass_profiling_kills_ladder_tax():
    """Acceptance: the profiled path's per-item profile+select is >= 5x
    below the same pipeline on the frozen composite-precision ladder (one
    re-measure allowed, same policy as the collective floors)."""
    row = bench_selection_stage(repeats=3)
    if row["profile_speedup_vs_ladder"] < 5.0:
        row = bench_selection_stage(repeats=3)
    assert row["profile_speedup_vs_ladder"] >= 5.0, row


def test_pr_stream_batched_speedup_floor():
    """Acceptance: the exact batched PR path is >= 5x faster per item than
    the per-item accumulator walk (one re-measure allowed, same policy as
    the collective floors)."""
    row = bench_pr_stream(repeats=3)
    if row["speedup"] < 5.0:
        row = bench_pr_stream(repeats=3)
    assert row["speedup"] >= 5.0, row


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
