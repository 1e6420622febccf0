"""Serving-daemon bench: micro-batched throughput vs request-at-a-time.

The acceptance bar for ``repro.serve`` is quantitative: at client
concurrency >= 16, the dynamic micro-batcher must deliver >= 3x the
throughput of the same daemon in its request-at-a-time reference
configuration (``batching=False``: no coalescing, one full
:meth:`AdaptiveReducer.reduce` pipeline per request), with **every**
response bitwise-identical to a standalone serial ``reduce`` of the same
payload.  This bench boots both configurations in-process, fires the
same async burst at each through keep-alive connections, and writes the
trajectory to ``BENCH_serve.json`` at the repo root.

Why the speedup is structural, not a timer artifact: at the workload
below (48 ranks x 128 elements) one solo ``reduce`` costs ~3ms while the
batched ``reduce_many`` serving path is ~0.35ms/item — the vectorised
profile sweep and the amortised per-dispatch tax are an ~8.5x pipeline
asymmetry that the micro-batcher re-creates from concurrent network
arrivals, so the win survives a single-core CI runner (observed ~4.5x
end-to-end with HTTP framing included).

A second case compares the wire codecs on the same daemon and vectors:
JSON number arrays vs base64 float64 vs the zero-copy binary frame
(``application/x-repro-frame``), reporting throughput and p50/p99
per-request latency per codec.  The binary path must sustain >= 2x the
JSON number-array path — the JSON codec spends more CPU parsing the
request than the reduction it carries, and the frame ingest removes that
cost (payload bytes reach NumPy as a view of the receive buffer).

Run directly (CI does, as a smoke job that uploads the JSON artifact)::

    python benchmarks/bench_serve.py --metrics-out metrics-serve.json

or under pytest, where the throughput floors are asserted::

    python -m pytest benchmarks/bench_serve.py -q
"""

from __future__ import annotations

import argparse
import asyncio
import json
import platform
import sys
import time
from pathlib import Path

import numpy as np

from repro.mpi.comm import SimComm
from repro.obs import get_registry
from repro.obs.registry import parse_prometheus_text
from repro.selection.selector import AdaptiveReducer
from repro.serve.daemon import ReproServeDaemon
from repro.serve.frames import (
    FRAME_CONTENT_TYPE,
    KIND_RESPONSE,
    encode_frame,
    parse_frame,
    payload_array,
)
from repro.serve.protocol import KeepAliveClient, encode_values, http_request

REPO_ROOT = Path(__file__).resolve().parent.parent
OUTPUT = REPO_ROOT / "BENCH_serve.json"

#: paper-shaped serving workload: 48 ranks, 128-element chunks.  The chunk
#: width is picked where the pipeline asymmetry is widest on a small CI
#: runner: one solo ``reduce`` costs ~3ms here while the batched
#: ``reduce_many`` path is ~0.35ms/item (~8.5x), and the JSON/base64
#: framing stays cheap enough not to drown the compute in transport.
N_RANKS = 48
CHUNK_LEN = 128

#: acceptance-criterion client shape: >= 16 concurrent keep-alive clients
CONCURRENCY = 16
REQUESTS_PER_CLIENT = 4

#: batched-mode knobs (the baseline runs ``batching=False``).  max_batch
#: equals the client concurrency: a tick fires the moment every
#: outstanding request is queued instead of lingering for a batch that
#: cannot arrive (each client keeps exactly one request in flight).
MAX_BATCH = 16
LINGER_US = 2000.0


def _burst_payloads(seed: int = 4242) -> "list[tuple[bytes, str]]":
    """(request body, expected value_hex) per request — the expectation is
    a fresh serial ``AdaptiveReducer.reduce``, recomputed independently of
    anything the daemon does."""
    rng = np.random.default_rng(seed)
    comm = SimComm(N_RANKS)
    reducer = AdaptiveReducer(comm, threshold=1e-13)
    out = []
    for _ in range(CONCURRENCY * REQUESTS_PER_CLIENT):
        values = rng.uniform(-1.0, 1.0, N_RANKS * CHUNK_LEN) * 10.0 ** (
            rng.integers(-6, 7, size=N_RANKS * CHUNK_LEN)
        )
        body = json.dumps({"values_b64": encode_values(values)}).encode()
        expected = float(
            reducer.reduce(comm.scatter_array(values)).value
        ).hex()
        out.append((body, expected))
    return out


async def _fire_burst(
    host: str, port: int, payloads: "list[tuple[bytes, str]]"
) -> "list[str]":
    """CONCURRENCY keep-alive clients round-robin the request list; returns
    the response value_hex per request (order preserved)."""
    results: "list[str | None]" = [None] * len(payloads)

    async def client(offset: int) -> None:
        reader, writer = await asyncio.open_connection(host, port)
        try:
            for i in range(offset, len(payloads), CONCURRENCY):
                resp = await http_request(
                    host, port, "POST", "/v1/reduce", payloads[i][0],
                    reader=reader, writer=writer,
                )
                assert resp.status == 200, (resp.status, resp.body)
                results[i] = resp.json()["value_hex"]
        finally:
            writer.close()

    await asyncio.gather(*(client(c) for c in range(CONCURRENCY)))
    assert all(r is not None for r in results)
    return results  # type: ignore[return-value]


async def _mixed_extras(host: str, port: int) -> None:
    """Non-reduce traffic in the burst: exercises every endpoint so the
    /metrics scrape covers the full route table (untimed)."""
    rng = np.random.default_rng(7)
    values = rng.normal(size=512)
    items = [
        {"values_b64": encode_values(rng.normal(size=256))} for _ in range(4)
    ]
    resp = await http_request(
        host, port, "POST", "/v1/reduce_many",
        json.dumps({"items": items}).encode(),
    )
    assert resp.status == 200, resp.body
    resp = await http_request(
        host, port, "POST", "/v1/ensemble",
        json.dumps(
            {
                "values_b64": encode_values(values),
                "algorithm": "K",
                "n_trees": 8,
                "seed": 3,
            }
        ).encode(),
    )
    assert resp.status == 200, resp.body
    resp = await http_request(host, port, "GET", "/healthz")
    assert resp.status == 200


async def _run_mode(
    *,
    max_batch: int,
    linger_us: float,
    payloads: "list[tuple[bytes, str]]",
    repeats: int,
    mixed: bool,
    batching: bool = True,
) -> dict:
    async with ReproServeDaemon(
        ranks=N_RANKS,
        max_batch=max_batch,
        max_linger_us=linger_us,
        workers=1,
        batching=batching,
    ) as daemon:
        host, port = daemon.host, daemon.port
        # warmup: one request first so both modes time steady state
        await http_request(host, port, "POST", "/v1/reduce", payloads[0][0])
        best = float("inf")
        hexes: "list[str]" = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            hexes = await _fire_burst(host, port, payloads)
            best = min(best, time.perf_counter() - t0)
        if mixed:
            await _mixed_extras(host, port)
        scrape = await http_request(host, port, "GET", "/metrics")
        assert scrape.status == 200
        return {
            "burst_s": best,
            "hexes": hexes,
            "metrics_text": scrape.body.decode(),
            "batches_processed": daemon.batcher.batches_processed,
            "requests_accepted": daemon.batcher.requests_accepted,
        }


def bench_serve(repeats: int = 3) -> dict:
    payloads = _burst_payloads()
    expected = [hx for _, hx in payloads]
    n = len(payloads)

    baseline = asyncio.run(
        _run_mode(
            max_batch=1, linger_us=0.0, payloads=payloads, repeats=repeats,
            mixed=False, batching=False,
        )
    )
    batched = asyncio.run(
        _run_mode(
            max_batch=MAX_BATCH, linger_us=LINGER_US, payloads=payloads,
            repeats=repeats, mixed=True,
        )
    )

    for mode in (baseline, batched):
        assert mode["hexes"] == expected, (
            "a served response diverged bitwise from serial recomputation"
        )

    # the /metrics exposition must survive its own parser, and record the
    # batching the daemon claims happened
    parsed = parse_prometheus_text(batched["metrics_text"])
    batch_hist = [
        {"le": s["labels"]["le"], "count": s["value"]}
        for s in parsed["samples"]
        if s["name"] == "repro_serve_batch_items_bucket"
    ]
    batches_total = sum(
        s["value"]
        for s in parsed["samples"]
        if s["name"] == "repro_serve_batches_total"
    )
    assert batches_total > 0, "repro_serve_batches_total never incremented"
    assert batch_hist, "batch-size histogram missing from /metrics"

    baseline_rps = n / baseline["burst_s"]
    batched_rps = n / batched["burst_s"]
    return {
        "case": "serve_micro_batching",
        "n_ranks": N_RANKS,
        "chunk_len": CHUNK_LEN,
        "concurrency": CONCURRENCY,
        "requests": n,
        "max_batch": MAX_BATCH,
        "max_linger_us": LINGER_US,
        "baseline_burst_s": baseline["burst_s"],
        "batched_burst_s": batched["burst_s"],
        "baseline_rps": baseline_rps,
        "batched_rps": batched_rps,
        "speedup": batched_rps / baseline_rps,
        "bitwise_identical": True,  # asserted above, for the record
        "baseline_batches": baseline["batches_processed"],
        "batched_batches": batched["batches_processed"],
        "mean_batch_items": (
            batched["requests_accepted"] / batched["batches_processed"]
        ),
        "batch_items_histogram": batch_hist,
        "serve_batches_total": batches_total,
    }


# -- codec comparison: JSON numbers vs base64 vs binary frames -----------------


def _codec_workload(
    seed: int = 20266,
) -> "tuple[list[np.ndarray], list[int]]":
    """(request vector, expected float64 result bits) per request; the
    expectation is a fresh serial reduce, independent of the daemon."""
    rng = np.random.default_rng(seed)
    comm = SimComm(N_RANKS)
    reducer = AdaptiveReducer(comm, threshold=1e-13)
    vectors: "list[np.ndarray]" = []
    expected: "list[int]" = []
    for _ in range(CONCURRENCY * REQUESTS_PER_CLIENT):
        values = rng.uniform(-1.0, 1.0, N_RANKS * CHUNK_LEN) * 10.0 ** (
            rng.integers(-6, 7, size=N_RANKS * CHUNK_LEN)
        )
        vectors.append(np.ascontiguousarray(values, dtype="<f8"))
        result = reducer.reduce(comm.scatter_array(values)).value
        expected.append(int(np.float64(result).view(np.uint64)))
    return vectors, expected


def _codec_bodies(vectors: "list[np.ndarray]", codec: str) -> "list[bytes]":
    if codec == "binary":
        return [
            encode_frame({"dtype": "<f8", "shape": [v.size]}, v)
            for v in vectors
        ]
    if codec == "json_b64":
        return [
            json.dumps({"values_b64": encode_values(v)}).encode()
            for v in vectors
        ]
    return [json.dumps({"values": v.tolist()}).encode() for v in vectors]


def _decode_binary_bits(resp) -> int:
    # copy the body out of the client's recycled receive buffer first
    header, payload = parse_frame(bytes(resp.body), kind=KIND_RESPONSE)
    return int(payload_array(header, payload).view(np.uint64)[0])


def _decode_json_bits(resp) -> int:
    return int(
        np.float64(float.fromhex(resp.json()["value_hex"])).view(np.uint64)
    )


async def _fire_codec_burst(
    host: str,
    port: int,
    bodies: "list[bytes]",
    content_type: str,
    decode,
) -> "tuple[list[float], list[int]]":
    """CONCURRENCY keep-alive clients; per-request latency + result bits."""
    latencies = [0.0] * len(bodies)
    bits = [0] * len(bodies)

    async def client(offset: int) -> None:
        async with KeepAliveClient(host, port) as c:
            for i in range(offset, len(bodies), CONCURRENCY):
                t0 = time.perf_counter()
                resp = await c.request(
                    "POST", "/v1/reduce", bodies[i],
                    content_type=content_type,
                )
                latencies[i] = time.perf_counter() - t0
                assert resp.status == 200, (resp.status, bytes(resp.body))
                bits[i] = decode(resp)  # consumes the recycled body view

    await asyncio.gather(*(client(c) for c in range(CONCURRENCY)))
    return latencies, bits


def bench_codecs(repeats: int = 3) -> dict:
    """One daemon, three wire codecs, same vectors: throughput and p50/p99
    per-request latency for JSON number arrays, base64 JSON, and binary
    frames — every response checked bitwise against serial recomputation."""
    vectors, expected = _codec_workload()
    n = len(vectors)
    codecs = {
        codec: _codec_bodies(vectors, codec)
        for codec in ("json", "json_b64", "binary")
    }

    async def run() -> "tuple[dict, str]":
        async with ReproServeDaemon(
            ranks=N_RANKS,
            max_batch=MAX_BATCH,
            max_linger_us=LINGER_US,
            workers=1,
        ) as daemon:
            host, port = daemon.host, daemon.port
            modes: "dict[str, dict]" = {}
            for codec, bodies in codecs.items():
                binary = codec == "binary"
                content_type = (
                    FRAME_CONTENT_TYPE if binary else "application/json"
                )
                decode = _decode_binary_bits if binary else _decode_json_bits
                # warmup: scaffold/buffer growth
                _, warm_bits = await _fire_codec_burst(
                    host, port, bodies[:CONCURRENCY], content_type, decode
                )
                assert warm_bits == expected[:CONCURRENCY]
                best, best_lat = float("inf"), [0.0]
                for _ in range(repeats):
                    t0 = time.perf_counter()
                    lat, bits = await _fire_codec_burst(
                        host, port, bodies, content_type, decode
                    )
                    elapsed = time.perf_counter() - t0
                    assert bits == expected, (
                        f"{codec} response diverged bitwise from serial "
                        "recomputation"
                    )
                    if elapsed < best:
                        best, best_lat = elapsed, lat
                modes[codec] = {"burst_s": best, "latencies": best_lat}
            scrape = await http_request(host, port, "GET", "/metrics")
            assert scrape.status == 200
            return modes, scrape.body.decode()

    modes, metrics_text = asyncio.run(run())
    parsed = parse_prometheus_text(metrics_text)
    codec_counts = {
        s["labels"]["codec"]: s["value"]
        for s in parsed["samples"]
        if s["name"] == "repro_serve_codec_total"
    }
    assert codec_counts.get("binary", 0) > 0, codec_counts
    assert codec_counts.get("json", 0) > 0, codec_counts

    row: dict = {
        "case": "serve_codec_comparison",
        "n_ranks": N_RANKS,
        "chunk_len": CHUNK_LEN,
        "concurrency": CONCURRENCY,
        "requests": n,
        "max_batch": MAX_BATCH,
        "max_linger_us": LINGER_US,
        "bitwise_identical": True,  # asserted above, for the record
        "codec_requests_total": codec_counts,
    }
    for codec, mode in modes.items():
        lat = np.asarray(mode["latencies"])
        row[codec] = {
            "burst_s": mode["burst_s"],
            "rps": n / mode["burst_s"],
            "p50_ms": float(np.percentile(lat, 50) * 1e3),
            "p99_ms": float(np.percentile(lat, 99) * 1e3),
        }
    row["binary_vs_json_speedup"] = (
        row["binary"]["rps"] / row["json"]["rps"]
    )
    row["binary_vs_json_b64_speedup"] = (
        row["binary"]["rps"] / row["json_b64"]["rps"]
    )
    return row


def run_all(repeats: int = 3) -> dict:
    return {
        "bench": "serve",
        "schema": 2,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "cases": [bench_serve(repeats), bench_codecs(repeats)],
    }


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        description="Serving-daemon bench (micro-batched vs per-request)."
    )
    parser.add_argument(
        "--metrics-out",
        default=None,
        metavar="PATH",
        help="enable repro.obs metrics for the run and write the registry "
        "snapshot (JSON) here; inspect with repro-metrics",
    )
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args(argv)
    registry = get_registry()
    registry.enable()  # the bench asserts on repro_serve_* either way
    payload = run_all(repeats=args.repeats)
    payload["metrics_enabled"] = True
    OUTPUT.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {OUTPUT}")
    if args.metrics_out:
        metrics_path = Path(args.metrics_out)
        metrics_path.parent.mkdir(parents=True, exist_ok=True)
        metrics_path.write_text(registry.to_json() + "\n")
        print(f"metrics snapshot written to {metrics_path}")
    batch_case, codec_case = payload["cases"]
    print(
        f"{batch_case['case']:>22}  C={batch_case['concurrency']} "
        f"N={batch_case['requests']}  "
        f"baseline={batch_case['baseline_rps']:.0f} req/s  "
        f"batched={batch_case['batched_rps']:.0f} req/s  "
        f"speedup={batch_case['speedup']:.1f}x  "
        f"mean_batch={batch_case['mean_batch_items']:.1f}"
    )
    for codec in ("json", "json_b64", "binary"):
        c = codec_case[codec]
        print(
            f"{codec_case['case']:>22}  {codec:>8}: {c['rps']:.0f} req/s  "
            f"p50={c['p50_ms']:.2f}ms  p99={c['p99_ms']:.2f}ms"
        )
    print(
        f"{'':>22}  binary vs json: "
        f"{codec_case['binary_vs_json_speedup']:.1f}x  "
        f"(vs b64: {codec_case['binary_vs_json_b64_speedup']:.1f}x)"
    )
    return 0


# -- pytest entry points: assert the acceptance floors -------------------------


def test_micro_batching_throughput_floor():
    """Acceptance: >= 3x request-at-a-time throughput at concurrency >= 16,
    bitwise-identical responses (one re-measure allowed, same policy as the
    other bench floors)."""
    get_registry().enable()
    try:
        row = bench_serve(repeats=2)
        if row["speedup"] < 3.0:
            row = bench_serve(repeats=2)
        assert row["speedup"] >= 3.0, row
        assert row["bitwise_identical"], row
        assert row["serve_batches_total"] > 0, row
        # micro-batching actually batched: fewer ticks than requests
        assert row["batched_batches"] < row["requests"], row
    finally:
        get_registry().disable()
        get_registry().reset()


def test_binary_codec_throughput_floor():
    """Acceptance: the binary frame path sustains >= 2x the JSON
    number-array path's throughput, bitwise-identical responses, and the
    codec counter proves binary traffic actually flowed (one re-measure
    allowed, same policy as the other bench floors).  The base64 ratio is
    recorded but not gated — base64 is already the cheap JSON form."""
    get_registry().enable()
    try:
        row = bench_codecs(repeats=2)
        if row["binary_vs_json_speedup"] < 2.0:
            row = bench_codecs(repeats=2)
        assert row["binary_vs_json_speedup"] >= 2.0, row
        assert row["bitwise_identical"], row
        assert row["codec_requests_total"].get("binary", 0) > 0, row
        assert row["codec_requests_total"].get("json", 0) > 0, row
    finally:
        get_registry().disable()
        get_registry().reset()


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
