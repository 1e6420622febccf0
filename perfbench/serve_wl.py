"""serve_small and serve_bulk: closed-loop traffic against ``repro-serve``.

The daemon runs as ``python -m repro.serve.cli --port 0`` in a child
process, exactly as deployed; the port comes from its banner.  The load
process drives it over keep-alive connections with binary frames, times
every request, and checks every served value and algorithm afterwards
against a serial ``AdaptiveReducer.reduce`` of the same payload, off the
clock and in a small process pool.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import http.client
import math
import multiprocessing
import os
import re
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import inputs
import procs
import refclock
import spans
import stats
from repro.mpi.comm import SimComm
from repro.obs.registry import parse_prometheus_text
from repro.selection.bound_tier import (
    BoundTier,
    bound_stats_stream,
    item_unit_roundoff,
)
from repro.selection.selector import AdaptiveReducer
from repro.serve.frames import (
    FRAME_CONTENT_TYPE,
    KIND_RESPONSE,
    encode_frame,
    parse_frame,
    payload_array,
)
from repro.serve.protocol import KeepAliveClient

CODES = ("ST", "K", "CP", "PR")

#: the daemon's default max_batch: the bound probe groups items the same way
MAX_BATCH = 64


@dataclass(frozen=True)
class ServeWorkload:
    name: str
    tag: int
    ranks: int
    cli_args: "tuple[str, ...]"
    connections: int
    values: int
    #: rows per reduce_many request, or None for one /v1/reduce item
    rows: "tuple[int, int] | None"
    #: timed window length: a few requests, so the reference brackets them closely
    window_s: float

    @property
    def path(self) -> str:
        return "/v1/reduce" if self.rows is None else "/v1/reduce_many"


SERVE_SMALL = ServeWorkload("serve_small", inputs.SERVE_SMALL, 8, (), 2, 2048, None, 1.0)
SERVE_BULK = ServeWorkload(
    "serve_bulk", inputs.SERVE_BULK, 48, ("--ranks", "48"), 1, 6144, (16, 128), 0.25
)


@dataclass
class Request:
    rid: str
    keys: "list[tuple[int, ...]]"
    body: bytes


def build_request(wl: ServeWorkload, base: "tuple[int, ...]") -> Request:
    """The request named by ``base``: one frame of seeded summand sets."""
    if wl.rows is None:
        keys = [base + (0,)]
        arr = inputs.summands(keys[0], wl.values)
    else:
        seed, tag, window, index = base[0], base[1], base[-2], base[-1]
        rows = inputs.spread((seed, tag), 1000 * window + index, *wl.rows)
        keys = [base + (j,) for j in range(rows)]
        arr = np.stack([inputs.summands(k, wl.values) for k in keys])
    rid = ".".join(str(k) for k in base)
    header = {"dtype": "<f8", "shape": list(arr.shape), "rid": rid}
    return Request(rid, keys, encode_frame(header, arr))


def decode_response(body) -> "tuple[list[str], list[str]]":
    """Served values (as ``float.hex``) and algorithm codes, in row order."""
    header, payload = parse_frame(body, kind=KIND_RESPONSE, what="response")
    values = [float(v).hex() for v in payload_array(header, payload).ravel()]
    if "results" in header:
        codes = [str(r["algorithm"]) for r in header["results"]]
    else:
        codes = [str(header["algorithm"])]
    return values, codes


@dataclass
class Served:
    """One completed request."""

    request: Request
    window: int
    status: int
    latency: float
    values: "list[str]" = field(default_factory=list)
    codes: "list[str]" = field(default_factory=list)


# -- the daemon process -------------------------------------------------------

_BANNER = re.compile(r"listening on http://([0-9.]+):(\d+)")


@dataclass
class Daemon:
    proc: object
    port: int
    listen_s: float
    first_result_s: float
    shm_before: "set[str]"


def serial_results(wl: ServeWorkload, keys) -> "tuple[list[str], list[str]]":
    """Values (``float.hex``) and codes of a serial ``reduce`` per payload,
    in the shape :func:`decode_response` returns."""
    reducer = AdaptiveReducer(SimComm(wl.ranks))
    results = [
        reducer.reduce(reducer.comm.scatter_array(inputs.summands(k, wl.values)))
        for k in keys
    ]
    return [float(r.value).hex() for r in results], [r.decision.code for r in results]


def start_daemon(
    wl: ServeWorkload,
    probe: Request,
    expected: "tuple[list[str], list[str]]",
    spans_out: "Path | None" = None,
) -> Daemon:
    """Spawn a daemon and time it to its banner and to its first correct result."""
    if spans_out is None:
        args = ["-m", "repro.serve.cli"]
    else:
        args = [str(Path(__file__).with_name("traced_serve.py")), str(spans_out)]
    args += ["--port", "0", *wl.cli_args]
    shm_before = procs.shm_segments()
    t0 = time.perf_counter()
    proc = procs.spawn(args)
    try:
        match = _BANNER.search(procs.read_line(proc))
        if match is None:
            raise procs.BenchError("daemon banner carries no port")
        listen_s = time.perf_counter() - t0
        port = int(match.group(2))
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=procs.CHILD_TIMEOUT_S)
        try:
            conn.request(
                "POST", wl.path, body=probe.body,
                headers={"Content-Type": FRAME_CONTENT_TYPE},
            )
            resp = conn.getresponse()
            body = resp.read()
        finally:
            conn.close()
        if resp.status != 200 or decode_response(body) != expected:
            raise procs.BenchError(f"{wl.name}: first result wrong (HTTP {resp.status})")
        first_s = time.perf_counter() - t0
    except BaseException:
        procs.kill_all([proc])
        raise
    return Daemon(proc, port, listen_s, first_s, shm_before)


def stop_daemon(daemon: Daemon) -> float:
    """Read the daemon's peak RSS, drain it with SIGTERM, check it left no
    shared memory behind.  Returns the peak RSS in MB."""
    rss = procs.peak_rss_mb(daemon.proc.pid)
    out = procs.terminate(daemon.proc)
    if "shutdown complete" not in out:
        raise procs.BenchError("daemon did not report a complete shutdown")
    leaked = procs.shm_segments() - daemon.shm_before
    if leaked:
        raise procs.BenchError(f"daemon left shared memory behind: {sorted(leaked)}")
    return rss


def cold_starts(wl: ServeWorkload, seed: int, count: int) -> "tuple[Daemon, list[Daemon]]":
    """``count`` cold starts, each to a checked first result; every daemon
    but the last is stopped.  Returns the live last one and all of them."""
    probes = [build_request(wl, (seed, inputs.PROBE, wl.tag, i)) for i in range(count)]
    expected = [serial_results(wl, p.keys) for p in probes]
    started: "list[Daemon]" = []
    for i, (probe, want) in enumerate(zip(probes, expected)):
        daemon = start_daemon(wl, probe, want)
        started.append(daemon)
        if i < count - 1:
            stop_daemon(daemon)
    return started[-1], started


# -- timed windows ------------------------------------------------------------


async def run_window(clients, wl: ServeWorkload, requests, window: int, seconds: float):
    """Closed loop: each client sends its next request when the last returns."""
    served: "list[Served]" = []
    pending = iter(requests)
    deadline = time.perf_counter() + seconds

    async def caller(client: KeepAliveClient) -> None:
        for req in pending:
            t0 = time.perf_counter()
            resp = await client.request(
                "POST", wl.path, req.body, content_type=FRAME_CONTENT_TYPE
            )
            latency = time.perf_counter() - t0
            done = Served(req, window, resp.status, latency)
            if resp.status == 200:
                done.values, done.codes = decode_response(resp.body)
            served.append(done)
            if time.perf_counter() >= deadline:
                return

    start = time.perf_counter()
    await asyncio.gather(*(caller(c) for c in clients))
    return served, time.perf_counter() - start


@dataclass
class Timed:
    windows: "list[refclock.Window]"
    served: "list[Served]"
    metrics: dict


async def timed_run(
    wl: ServeWorkload,
    port: int,
    seed: int,
    windows: "list[int]",
    seconds: float,
    clock: refclock.ReferenceClock,
) -> Timed:
    """Warm up, then run each numbered window, timing the reference around it."""
    clients = [KeepAliveClient("127.0.0.1", port) for _ in range(wl.connections)]
    out: "list[refclock.Window]" = []
    served_all: "list[Served]" = []
    try:
        warm = [build_request(wl, (seed, wl.tag, 0, i)) for i in range(8 * wl.connections)]
        served, took = await run_window(clients, wl, warm, 0, 0.5)
        rate = len(served) / took
        for w in windows:
            count = int(rate * seconds * 1.5) + 4 * wl.connections
            reqs = [build_request(wl, (seed, wl.tag, w, i)) for i in range(count)]
            before = clock.measure()
            served, took = await run_window(clients, wl, reqs, w, seconds)
            after = clock.measure()
            del reqs
            items = sum(len(s.request.keys) for s in served if s.status == 200)
            out.append(refclock.Window(items, took, before, after))
            served_all.extend(served)
            rate = len(served) / took
        resp = await clients[0].request("GET", "/metrics")
        metrics = parse_prometheus_text(bytes(resp.body).decode())
    finally:
        for c in clients:
            await c.close()
    for s in served_all:
        s.request.body = b""  # payloads are rebuilt from keys when checked
    return Timed(out, served_all, metrics)


# -- checks -------------------------------------------------------------------


def check_chunk(ranks: int, n_values: int, rows) -> "list[tuple[int, str]]":
    """Serial ``AdaptiveReducer.reduce`` of each row's payload: returns
    ``(row index, code)`` for every row whose served bits or code differ.
    Runs in a checker process."""
    reducer = AdaptiveReducer(SimComm(ranks))
    bad = []
    for index, key, value_hex, code in rows:
        result = reducer.reduce(reducer.comm.scatter_array(inputs.summands(tuple(key), n_values)))
        if float(result.value).hex() != value_hex or result.decision.code != code:
            bad.append((index, result.decision.code))
    return bad


def check_served(wl: ServeWorkload, served: "list[Served]", tally: stats.Tally) -> "dict[str, int]":
    """Tally every request and check every 200 result bitwise; returns the
    served algorithm counts."""
    rows = []
    codes = {c: 0 for c in CODES}
    for s in served:
        n = len(s.request.keys)
        if s.status != 200:
            tally.fail(f"http_{s.status}", n)
            continue
        if len(s.values) != n or len(s.codes) != n:
            tally.fail("wrong_result_count", n)
            continue
        tally.ok(n)
        for key, value, code in zip(s.request.keys, s.values, s.codes):
            rows.append((len(rows), key, value, code))
            codes[code] = codes.get(code, 0) + 1
    chunk = max(1, math.ceil(len(rows) / 16))
    # fork, not spawn: spawn would also start multiprocessing's resource
    # tracker, a helper process that outlives the pool
    ctx = multiprocessing.get_context("fork")
    with concurrent.futures.ProcessPoolExecutor(
        max_workers=len(procs.CPUS),
        mp_context=ctx,
        initializer=os.sched_setaffinity,  # off the clock: use every CPU
        initargs=(0, procs.CPUS),
    ) as pool:
        futures = [
            pool.submit(check_chunk, wl.ranks, wl.values, rows[i : i + chunk])
            for i in range(0, len(rows), chunk)
        ]
        bad = [b for f in futures for b in f.result()]
    if bad:
        tally.demote("wrong_bits_or_algorithm", len(bad))
    return codes


def require_code_mix(wl: ServeWorkload, codes: "dict[str, int]") -> None:
    missing = [c for c in CODES if codes.get(c, 0) == 0]
    if missing:
        raise procs.BenchError(
            f"{wl.name}: no item selected {missing}; the inputs left their regime"
        )


# -- the runs -----------------------------------------------------------------


def _latencies(timed: Timed) -> "tuple[list[float], list[float]]":
    by_window = {i + 1: w for i, w in enumerate(timed.windows)}
    ok = [s for s in timed.served if s.status == 200]
    raw = [s.latency for s in ok]
    norm = [refclock.normalise(s.latency, by_window[s.window]) for s in ok]
    return raw, norm


def run(wl: ServeWorkload, seed: int, seconds: float, cold: int) -> dict:
    """The untraced run: set-up timings, timed windows, every check."""
    tally = stats.Tally()
    clock = refclock.ReferenceClock()
    live, started = cold_starts(wl, seed, cold)
    try:
        n, length = refclock.plan(seconds, wl.window_s)
        timed = asyncio.run(timed_run(wl, live.port, seed, list(range(1, n + 1)), length, clock))
        rss = stop_daemon(live)
    except BaseException:
        procs.kill_all([live.proc])
        raise
    codes = check_served(wl, timed.served, tally)
    require_code_mix(wl, codes)
    raw_lat, norm_lat = _latencies(timed)
    thr_raw, thr_norm = refclock.throughput(timed.windows)
    return {
        "tally": tally,
        "setup_s": stats.median(d.first_result_s for d in started),
        "listen_s": stats.median(d.listen_s for d in started),
        "throughput": (thr_raw, thr_norm),
        "lat_p50": (stats.median(raw_lat), stats.median(norm_lat)),
        "lat_tail": (stats.grouped_tail(raw_lat), stats.grouped_tail(norm_lat)),
        "peak_rss_mb": rss,
        "codes": codes,
        "windows": timed.windows,
    }


def traced_run(wl: ServeWorkload, seed: int, seconds: float, cold: int, build_s: float) -> dict:
    """Per-layer numbers: the same windows run untraced on the production
    daemon and then replayed through a span-traced daemon."""
    tally = stats.Tally()
    clock = refclock.ReferenceClock()
    import_s = procs.import_seconds("repro.serve.cli")
    live, started = cold_starts(wl, seed, cold)
    n, length = refclock.plan(seconds / 2, wl.window_s)
    windows = list(range(1, n + 1))
    try:
        plain = asyncio.run(timed_run(wl, live.port, seed, windows, length, clock))
        stop_daemon(live)
    except BaseException:
        procs.kill_all([live.proc])
        raise
    spans_out = procs.WORK / f"spans-{wl.name}-{seed}.json"
    probe = build_request(wl, (seed, inputs.PROBE, wl.tag, cold))
    traced_daemon = start_daemon(wl, probe, serial_results(wl, probe.keys), spans_out)
    try:
        traced = asyncio.run(timed_run(wl, traced_daemon.port, seed, windows, length, clock))
        stop_daemon(traced_daemon)
    except BaseException:
        procs.kill_all([traced_daemon.proc])
        raise
    recorded = spans.load(str(spans_out))
    spans_out.unlink()
    codes = check_served(wl, plain.served + traced.served, tally)
    require_code_mix(wl, codes)
    layers = serve_layers(recorded, traced, wl)
    layers.update(metric_layers(traced.metrics))
    layers.update(bound_probe(wl, traced.served))
    for code in CODES:
        layers[f"selection.code_share.{code}"] = codes.get(code, 0)
    layers["setup.import_s"] = import_s
    layers["setup.listen_s"] = stats.median(d.listen_s for d in started)
    layers["setup.first_result_s"] = stats.median(d.first_result_s for d in started)
    layers["ckernels.build_s"] = build_s
    plain_thr = refclock.throughput(plain.windows)[1]
    traced_thr = refclock.throughput(traced.windows)[1]
    layers["trace.overhead"] = (traced_thr - plain_thr) / plain_thr
    return {"tally": tally, "layers": layers}


# -- per-layer analysis -------------------------------------------------------


def serve_layers(recorded: "list[spans.Span]", traced: Timed, wl: ServeWorkload) -> dict:
    """Per-layer figures from the traced daemon's spans and the client's
    own timings of the same requests."""
    client = {s.request.rid: s.latency for s in traced.served if s.status == 200}
    per_request: "dict[str, dict[str, float]]" = {}
    totals: "dict[str, float]" = {}
    items: "dict[str, int]" = {}
    compute_waited: "dict[str, float]" = {}
    for sp in recorded:
        keys = [sp.name]
        if sp.tag and sp.name != "batcher.execute":
            keys.append(f"{sp.name}.{sp.tag}")
        for key in keys:
            totals[key] = totals.get(key, 0.0) + sp.duration
            items[key] = items.get(key, 0) + sp.n
        if sp.rid in client:
            slot = per_request.setdefault(sp.rid, {})
            slot[sp.name] = slot.get(sp.name, 0.0) + sp.duration
            if sp.name == "batcher.wait":
                first, last = slot.get("wait_start", sp.start), slot.get("wait_end", sp.end)
                slot["wait_start"], slot["wait_end"] = min(first, sp.start), max(last, sp.end)
        if sp.name == "batcher.execute":
            for rid in set(sp.tag.split(",")):
                if rid in client:
                    compute_waited[rid] = compute_waited.get(rid, 0.0) + sp.duration
    matched = [rid for rid in client if "serve.dispatch" in per_request.get(rid, {})]
    if not matched:
        raise procs.BenchError(f"{wl.name}: no traced request matched a client request")

    def p50(fn) -> float:
        return stats.median(fn(per_request[rid]) for rid in matched)

    def per_item(name: str) -> float:
        return totals.get(name, 0.0) / max(items.get(name, 0), 1)

    frames = sum(
        totals.get(n, 0.0)
        for n in ("serve.parse_frame", "serve.payload_array", "serve.append_frame", "serve.render", "mpi.scatter")
    )
    compute = totals.get("batcher.execute", 0.0) + frames
    client_total = sum(client[rid] for rid in matched)
    out = {
        "serve.client_ms": 1e3 * stats.median(client[rid] for rid in matched),
        "serve.request_ms": 1e3 * p50(lambda r: r["serve.dispatch"]),
        "serve.wire_ms": 1e3 * stats.median(client[rid] - per_request[rid]["serve.dispatch"] for rid in matched),
        "serve.ingest_us": 1e6 * p50(lambda r: r.get("serve.parse_frame", 0.0) + r.get("serve.payload_array", 0.0)),
        "serve.render_us": 1e6 * p50(lambda r: r.get("serve.append_frame", 0.0) + r.get("serve.render", 0.0)),
        "batcher.wait_ms": 1e3 * p50(lambda r: r.get("wait_end", 0.0) - r.get("wait_start", 0.0)),
        "selection.profile_us_per_item": 1e6 * per_item("selection.profile_batch"),
        "selection.select_us_per_item": 1e6 * per_item("selection.select"),
        "mpi.scatter_us_per_item": 1e6 * per_item("mpi.scatter"),
        "mix.serve_batcher_wire_share": 1.0 - sum(compute_waited.get(rid, 0.0) for rid in matched) / client_total,
        "mix.frames_scatter_share": frames / compute,
    }
    for layer, share in spans.self_share_by_layer(recorded, skip=("batcher.wait",)).items():
        out[f"self_share.{layer}"] = share
    for code in ("ST", "K", "CP"):
        out[f"mpi.reduce_batch_us_per_item.{code}"] = 1e6 * per_item(f"mpi.reduce_batch.{code}")
    out["mpi.reduce_us_per_item.PR"] = 1e6 * per_item("mpi.reduce.PR")
    return out


def sample_sum(metrics: "dict | str", name: str) -> float:
    """Sum of every sample of ``name`` in a Prometheus scrape (text or parsed)."""
    if isinstance(metrics, str):
        metrics = parse_prometheus_text(metrics)
    return sum(s["value"] for s in metrics["samples"] if s["name"] == name)


def metric_layers(metrics: dict) -> dict:
    """Per-layer figures from one ``/metrics`` scrape after the traced run."""
    ticks = sample_sum(metrics, "repro_serve_batch_items_count")
    linger_n = sample_sum(metrics, "repro_serve_linger_seconds_count")
    hits = sample_sum(metrics, "repro_selector_decision_cache_hits_total")
    misses = sample_sum(metrics, "repro_selector_decision_cache_misses_total")
    return {
        "serve.bytes_copied": sample_sum(metrics, "repro_serve_bytes_copied"),
        "batcher.linger_ms": 1e3 * sample_sum(metrics, "repro_serve_linger_seconds_sum") / max(linger_n, 1),
        "batcher.items_per_tick": sample_sum(metrics, "repro_serve_batch_items_sum") / max(ticks, 1),
        "batcher.ticks": sample_sum(metrics, "repro_serve_batches_total"),
        "batcher.rejected": sample_sum(metrics, "repro_serve_rejected_total"),
        "batcher.deadline_misses": sample_sum(metrics, "repro_serve_deadline_misses_total"),
        "selection.decision_cache_hit_ratio": hits / max(hits + misses, 1),
        "trees.ckernel_fallbacks": sample_sum(metrics, "repro_ckernels_fallback_total"),
        "pool.tasks": sample_sum(metrics, "repro_pool_tasks_total"),
    }


def bound_probe(wl: ServeWorkload, served: "list[Served]") -> dict:
    """What the bound tier (off in production) would cost and certify on
    the traced items: the statistics pass plus the tier's decision, in
    ``max_batch`` groups, against the codes the daemon actually served."""
    comm = SimComm(wl.ranks)
    tier = BoundTier(confidence=1.0)
    policy = AdaptiveReducer(comm).policy
    rows = [
        (key, code)
        for s in served
        if s.status == 200
        for key, code in zip(s.request.keys, s.codes)
    ]
    elapsed = 0.0
    useful = 0
    for i in range(0, len(rows), MAX_BATCH):
        group = rows[i : i + MAX_BATCH]
        batches = [comm.scatter_array(inputs.summands(k, wl.values)) for k, _ in group]
        t0 = time.perf_counter()
        us = [item_unit_roundoff(chunks) for chunks in batches]
        decisions = tier.decide_stream(bound_stats_stream(batches, us), 1e-13, policy)
        elapsed += time.perf_counter() - t0
        useful += sum(
            1 for d, (_, code) in zip(decisions, group) if d is not None and d.code == code
        )
    return {
        "selection.bound_us_per_item": 1e6 * elapsed / max(len(rows), 1),
        "selection.tier_certified_share": useful / max(len(rows), 1),
    }
