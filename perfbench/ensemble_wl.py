"""ensemble_sweep: the paper's permuted-leaf spread experiment, no daemon.

The load process generates each dataset and hands it to a child process
running ``ensemble_child.py``; one dataset sweep is one request in a
closed loop.  Checks run afterwards, off the clock: PR ensembles must
have exactly one distinct value, a seeded sample of trees must equal
``evaluate_tree_generic`` on the explicit tree, and the exact sum must
equal ``math.fsum``.
"""

from __future__ import annotations

import base64
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import inputs
import procs
import refclock
import spans
import stats
from serve_wl import sample_sum
from repro.summation.base import SumContext
from repro.summation.registry import get_algorithm
from repro.trees.evaluate import evaluate_tree_generic
from repro.trees.shapes import balanced, random_shape, serial
from repro.util.rng import permutation_stream

LEAVES = 4096
N_TREES = 256
CODES = ("ST", "K", "CP", "PR")
SHAPES = ("balanced", "serial", "random")
TREES_PER_SWEEP = len(CODES) * len(SHAPES) * N_TREES
#: trees per sweep checked against the literal node-walk
SAMPLES_PER_SWEEP = 2
#: timed window length: about one sweep, so the reference brackets it closely
WINDOW_S = 0.5
#: the set-up probe is a small sweep, so set-up time is start-up, not work
PROBE_LEAVES, PROBE_TREES = 256, 8


@dataclass
class Sweep:
    key: "tuple[int, ...]"
    leaves: int
    n_trees: int
    shape_seed: int
    perm_seed: int

    def data(self) -> np.ndarray:
        return inputs.summands(self.key, self.leaves)

    def request(self) -> str:
        return json.dumps(
            {
                "op": "sweep",
                "rid": ".".join(map(str, self.key)),
                "data": base64.b64encode(self.data().tobytes()).decode(),
                "shape_seed": self.shape_seed,
                "perm_seed": self.perm_seed,
                "n_trees": self.n_trees,
            }
        )


def make_sweep(key, leaves: int = LEAVES, n_trees: int = N_TREES) -> Sweep:
    return Sweep(
        key,
        leaves,
        n_trees,
        inputs.draw(key + (1,), 0, 2**62),
        inputs.draw(key + (2,), 0, 2**62),
    )


@dataclass
class Answer:
    sweep: Sweep
    window: int
    latency: float
    reply: dict


def check_answer(ans: Answer) -> "list[str]":
    """Every failed check of one sweep's answer, by name."""
    sw = ans.sweep
    sample_key = sw.key + (3,)
    data = sw.data()
    failures = []
    if ans.reply.get("exact") != math.fsum(data).hex():
        failures.append("exact_sum")
    values = np.frombuffer(base64.b64decode(ans.reply["values"]), dtype="<f8")
    values = values.reshape(len(CODES), len(SHAPES), sw.n_trees)
    if any(np.unique(values[CODES.index("PR"), s]).size != 1 for s in range(len(SHAPES))):
        failures.append("pr_not_reproducible")
    for j in range(SAMPLES_PER_SWEEP):
        a = inputs.draw(sample_key + (j, 0), 0, len(CODES) - 1)
        s = inputs.draw(sample_key + (j, 1), 0, len(SHAPES) - 1)
        t = inputs.draw(sample_key + (j, 2), 0, sw.n_trees - 1)
        tree = {
            "balanced": lambda: balanced(sw.leaves),
            "serial": lambda: serial(sw.leaves),
            "random": lambda: random_shape(sw.leaves, sw.shape_seed),
        }[SHAPES[s]]()
        perm = None
        for perm in permutation_stream(sw.leaves, t + 1, sw.perm_seed):
            pass
        alg = get_algorithm(CODES[a])
        context = SumContext.for_data(data) if alg.needs_context else None
        want = evaluate_tree_generic(tree, data[perm], alg, context)
        if float(want).hex() != float(values[a, s, t]).hex():
            failures.append("tree_mismatch")
    return failures


class Child:
    """One ensemble worker process, timed to its first correct result."""

    def __init__(self, probe: Sweep, spans_out: "Path | None" = None) -> None:
        args = [str(Path(__file__).with_name("ensemble_child.py"))]
        if spans_out is not None:
            args.append(str(spans_out))
        t0 = time.perf_counter()
        self.proc = procs.spawn(args, stdin=True)
        try:
            self._send(probe.request())
            json.loads(procs.read_line(self.proc))  # the ready line
            self.listen_s = time.perf_counter() - t0
            answer = Answer(probe, 0, 0.0, json.loads(procs.read_line(self.proc)))
            if check_answer(answer):
                raise procs.BenchError("ensemble child: first result wrong")
            self.first_result_s = time.perf_counter() - t0
        except BaseException:
            procs.kill_all([self.proc])
            raise

    def _send(self, line: str) -> None:
        assert self.proc.stdin is not None
        self.proc.stdin.write(line.encode() + b"\n")
        self.proc.stdin.flush()

    def call(self, sweep: Sweep) -> "tuple[dict, float]":
        return self.call_line(sweep.request())

    def call_line(self, line: str) -> "tuple[dict, float]":
        """Send one encoded request; its reply and the latency seen here."""
        t0 = time.perf_counter()
        self._send(line)
        reply = json.loads(procs.read_line(self.proc))
        return reply, time.perf_counter() - t0

    def close(self) -> "tuple[float, dict]":
        """Peak RSS (MB) and the exit report; waits for the process."""
        rss = procs.peak_rss_mb(self.proc.pid)
        self._send(json.dumps({"op": "exit"}))
        report = json.loads(procs.read_line(self.proc))
        self.proc.stdin.close()
        self.proc.wait(timeout=procs.CHILD_TIMEOUT_S)
        if self.proc.returncode != 0:
            raise procs.BenchError(f"ensemble child exited {self.proc.returncode}")
        return rss, report


def cold_starts(seed: int, count: int) -> "tuple[Child, list[Child]]":
    started = []
    for i in range(count):
        child = Child(make_sweep((seed, inputs.PROBE, inputs.ENSEMBLE, i), PROBE_LEAVES, PROBE_TREES))
        started.append(child)
        if i < count - 1:
            child.close()
    return started[-1], started


def timed_run(child: Child, seed: int, windows, seconds: float, clock) -> "tuple[list, list]":
    """Closed loop of sweeps; each window's datasets are encoded before it starts."""
    out: "list[refclock.Window]" = []
    answers: "list[Answer]" = []
    _, per_sweep = child.call(make_sweep((seed, inputs.ENSEMBLE, 0, 0)))  # warm-up
    for w in windows:
        count = int(seconds / per_sweep * 1.5) + 2
        batch = [make_sweep((seed, inputs.ENSEMBLE, w, i)) for i in range(count)]
        lines = [sw.request() for sw in batch]
        before = clock.measure()
        start = time.perf_counter()
        done = 0
        for sweep, line in zip(batch, lines):
            reply, latency = child.call_line(line)
            answers.append(Answer(sweep, w, latency, reply))
            done += 1
            if time.perf_counter() - start >= seconds:
                break
        took = time.perf_counter() - start
        after = clock.measure()
        out.append(refclock.Window(done * TREES_PER_SWEEP, took, before, after))
        per_sweep = took / done
    return out, answers


def check_answers(answers: "list[Answer]", tally: stats.Tally) -> None:
    for ans in answers:
        failures = check_answer(ans)
        if failures:
            tally.fail(failures[0])
        else:
            tally.ok()


def run(seed: int, seconds: float, cold: int) -> dict:
    tally = stats.Tally()
    clock = refclock.ReferenceClock()
    live, started = cold_starts(seed, cold)
    try:
        n, length = refclock.plan(seconds, WINDOW_S)
        windows, answers = timed_run(live, seed, range(1, n + 1), length, clock)
        rss, _ = live.close()
    except BaseException:
        procs.kill_all([live.proc])
        raise
    check_answers(answers, tally)
    by_window = {i + 1: w for i, w in enumerate(windows)}
    raw = [a.latency for a in answers]
    norm = [refclock.normalise(a.latency, by_window[a.window]) for a in answers]
    return {
        "tally": tally,
        "setup_s": stats.median(c.first_result_s for c in started),
        "listen_s": stats.median(c.listen_s for c in started),
        "throughput": refclock.throughput(windows),
        "lat_p50": (stats.median(raw), stats.median(norm)),
        "lat_tail": (stats.grouped_tail(raw), stats.grouped_tail(norm)),
        "peak_rss_mb": rss,
        "windows": windows,
    }


def traced_run(seed: int, seconds: float, cold: int, build_s: float) -> dict:
    """The same sweeps untraced, then replayed through a traced child."""
    tally = stats.Tally()
    clock = refclock.ReferenceClock()
    import_s = procs.import_seconds("repro.trees.evaluate")
    live, started = cold_starts(seed, cold)
    n, length = refclock.plan(seconds / 2, WINDOW_S)
    try:
        plain_windows, plain = timed_run(live, seed, range(1, n + 1), length, clock)
        live.close()
    except BaseException:
        procs.kill_all([live.proc])
        raise
    spans_out = procs.WORK / f"spans-ensemble-{seed}.json"
    traced_child = Child(make_sweep((seed, inputs.PROBE, inputs.ENSEMBLE, cold), PROBE_LEAVES, PROBE_TREES), spans_out)
    try:
        traced_windows, traced = timed_run(traced_child, seed, range(1, n + 1), length, clock)
        _, report = traced_child.close()
    except BaseException:
        procs.kill_all([traced_child.proc])
        raise
    recorded = spans.load(str(spans_out))
    spans_out.unlink()
    check_answers(plain + traced, tally)
    layers = ensemble_layers(recorded, report)
    layers["setup.import_s"] = import_s
    layers["setup.listen_s"] = stats.median(c.listen_s for c in started)
    layers["setup.first_result_s"] = stats.median(c.first_result_s for c in started)
    layers["ckernels.build_s"] = build_s
    plain_thr = refclock.throughput(plain_windows)[1]
    traced_thr = refclock.throughput(traced_windows)[1]
    layers["trace.overhead"] = (traced_thr - plain_thr) / plain_thr
    return {"tally": tally, "layers": layers}


def ensemble_layers(recorded: "list[spans.Span]", report: dict) -> dict:
    """Per-layer figures from the traced child's spans and exit report."""
    totals: "dict[str, float]" = {}
    counts: "dict[str, int]" = {}
    for sp in recorded:
        for key in [sp.name] + ([f"{sp.name}.{sp.tag}"] if sp.tag else []):
            totals[key] = totals.get(key, 0.0) + sp.duration
            counts[key] = counts.get(key, 0) + sp.n
    sweeps = [sp for sp in recorded if sp.name == "ensemble.sweep"]
    if not sweeps:
        raise procs.BenchError("ensemble_sweep: the traced child recorded no sweep")
    shape_ms = [1e3 * sp.duration for sp in recorded if sp.name == "trees.random_shape"]
    cache = report["schedule_cache"]
    metrics = report["metrics"]
    out = {
        f"trees.ensemble_us_per_tree.{shape}": 1e6
        * totals.get(f"trees.ensemble.{shape}", 0.0)
        / max(counts.get(f"trees.ensemble.{shape}", 0), 1)
        for shape in SHAPES
    }
    out.update(
        {
            "trees.random_shape_ms": stats.median(shape_ms),
            "trees.schedule_hit_ratio": cache["hits"] / max(cache["hits"] + cache["misses"], 1),
            "trees.ckernel_fallbacks": sample_sum(metrics, "repro_ckernels_fallback_total"),
            "exact.sum_us_per_item": 1e6 * totals.get("exact.sum", 0.0) / max(counts.get("exact.sum", 0), 1),
            "pool.tasks": sample_sum(metrics, "repro_pool_tasks_total"),
        }
    )
    for layer, share in spans.self_share_by_layer(recorded).items():
        out[f"self_share.{layer}"] = share
    return out
