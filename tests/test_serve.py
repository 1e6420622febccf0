"""repro.serve under test: protocol parsing, the micro-batcher's queue
semantics (backpressure, deadlines, drain), every daemon endpoint against
bitwise serial recomputation, threaded-client concurrency with metric and
decision-cache reconciliation, and the SIGTERM lifecycle (exit 0, zero
leaked ``/dev/shm`` segments) in a real subprocess.
"""

from __future__ import annotations

import asyncio
import base64
import json
import os
import signal
import subprocess
import sys
import threading
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.mpi import SimComm
from repro.obs import get_registry
from repro.obs.registry import parse_prometheus_text
from repro.selection import AdaptiveReducer
from repro.serve import (
    BatcherClosing,
    BatcherFull,
    DeadlineExceeded,
    MicroBatcher,
    ReproServeDaemon,
)
from repro.serve.protocol import (
    HttpError,
    HttpRequest,
    KeepAliveClient,
    decode_values,
    encode_values,
    header_scaffold,
    http_request,
    read_request,
    render_response,
    render_response_into,
)
from repro.trees.evaluate import evaluate_ensemble
from repro.summation.registry import get_algorithm


@pytest.fixture
def global_obs():
    """The process-global registry, enabled and clean for one test."""
    reg = get_registry()
    reg.reset()
    reg.enable()
    yield reg
    reg.disable()
    reg.reset()


def _counter_sum(reg, name: str, **labels) -> int:
    """Sum a counter over all label sets matching the given subset."""
    total = 0
    for sample in reg.snapshot()["counters"].get(name, []):
        if all(sample["labels"].get(k) == v for k, v in labels.items()):
            total += sample["value"]
    return total


# ---------------------------------------------------------------------------
# protocol layer
# ---------------------------------------------------------------------------


def _feed_reader(raw: bytes) -> asyncio.StreamReader:
    reader = asyncio.StreamReader()
    reader.feed_data(raw)
    reader.feed_eof()
    return reader


def _parse(raw: bytes, **kw) -> "HttpRequest | None":
    async def run():
        return await read_request(_feed_reader(raw), **kw)

    return asyncio.run(run())


class TestProtocol:
    def test_parses_post_with_body(self):
        req = _parse(
            b"POST /v1/reduce HTTP/1.1\r\nHost: x\r\n"
            b"Content-Length: 4\r\n\r\nabcd"
        )
        assert req.method == "POST"
        assert req.path == "/v1/reduce"
        assert req.body == b"abcd"
        assert req.keep_alive  # HTTP/1.1 default

    def test_clean_eof_returns_none(self):
        assert _parse(b"") is None

    def test_connection_close_and_http10(self):
        req = _parse(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n")
        assert not req.keep_alive
        req = _parse(b"GET / HTTP/1.0\r\n\r\n")
        assert not req.keep_alive
        req = _parse(b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n")
        assert req.keep_alive

    def test_chunked_body_411(self):
        with pytest.raises(HttpError) as exc:
            _parse(
                b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
            )
        assert exc.value.status == 411

    def test_post_without_length_411(self):
        with pytest.raises(HttpError) as exc:
            _parse(b"POST / HTTP/1.1\r\n\r\n")
        assert exc.value.status == 411

    def test_body_cap_413(self):
        with pytest.raises(HttpError) as exc:
            _parse(
                b"POST / HTTP/1.1\r\nContent-Length: 100\r\n\r\n" + b"x" * 100,
                max_body=10,
            )
        assert exc.value.status == 413

    def test_malformed_request_line_400(self):
        with pytest.raises(HttpError) as exc:
            _parse(b"NONSENSE\r\n\r\n")
        assert exc.value.status == 400

    def test_truncated_body_400(self):
        with pytest.raises(HttpError) as exc:
            _parse(b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc")
        assert exc.value.status == 400

    def test_json_method_rejects_junk(self):
        req = _parse(
            b"POST / HTTP/1.1\r\nContent-Length: 3\r\n\r\nnot"
        )
        with pytest.raises(HttpError) as exc:
            req.json()
        assert exc.value.status == 400

    def test_values_b64_round_trip_is_bitwise(self, rng):
        vals = rng.normal(size=257) * 10.0 ** rng.integers(-30, 30, size=257)
        out = decode_values({"values_b64": encode_values(vals)})
        assert out.dtype == np.float64
        assert np.array_equal(
            out.view(np.uint64), vals.view(np.uint64)
        )  # bitwise, not approx

    def test_values_json_form(self):
        out = decode_values({"values": [1.5, -2.25, 3.0]})
        assert out.tolist() == [1.5, -2.25, 3.0]

    def test_decode_rejects_bad_payloads(self):
        for obj in (
            [],
            {},
            {"values": "nope"},
            {"values_b64": "!!!not-base64!!!"},
            {"values_b64": base64.b64encode(b"12345").decode()},  # not %8
        ):
            with pytest.raises(HttpError) as exc:
                decode_values(obj)
            assert exc.value.status == 400

    def test_decode_values_b64_is_no_copy(self, rng):
        # regression: decode_values used an unconditional .astype that
        # copied every b64 payload; the fast path must hand back a view
        # over the decoded bytes
        vals = rng.normal(size=513)
        out = decode_values({"values_b64": encode_values(vals)})
        assert out.base is not None  # a view, not an owning copy
        assert not out.flags.writeable  # read-only over the bytes object
        assert np.shares_memory(out, np.frombuffer(out.base, dtype="<f8"))
        assert np.array_equal(out.view(np.uint64), vals.view(np.uint64))


# ---------------------------------------------------------------------------
# zero-copy protocol plumbing (reusable buffers, scaffolds, keep-alive client)
# ---------------------------------------------------------------------------


def _parse_raw_response(raw) -> "tuple[str, dict, bytes]":
    head, _, body = bytes(raw).partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    headers: "dict[str, str]" = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    return lines[0], headers, body


class TestZeroCopyProtocol:
    def test_read_request_into_buffer_is_view(self):
        async def run():
            buf = bytearray()
            req = await read_request(
                _feed_reader(
                    b"POST / HTTP/1.1\r\nContent-Length: 4\r\n\r\nabcd"
                ),
                buffer=buf,
            )
            assert isinstance(req.body, memoryview)
            assert bytes(req.body) == b"abcd"
            assert np.shares_memory(
                np.frombuffer(req.body, dtype=np.uint8),
                np.frombuffer(buf, dtype=np.uint8),
            )
            req.release()
            # after release the same buffer serves (and grows for) the
            # next request
            req2 = await read_request(
                _feed_reader(
                    b"POST / HTTP/1.1\r\nContent-Length: 8\r\n\r\nabcdefgh"
                ),
                buffer=buf,
            )
            assert bytes(req2.body) == b"abcdefgh"
            req2.release()
            assert len(buf) == 8  # grown once, monotonically

        asyncio.run(run())

    def test_unreleased_body_blocks_buffer_growth(self):
        async def run():
            buf = bytearray()
            req = await read_request(
                _feed_reader(
                    b"POST / HTTP/1.1\r\nContent-Length: 4\r\n\r\nabcd"
                ),
                buffer=buf,
            )
            # the loud invariant: growing under a live export must fail
            # rather than silently copying
            with pytest.raises(BufferError):
                await read_request(
                    _feed_reader(
                        b"POST / HTTP/1.1\r\nContent-Length: 64\r\n\r\n"
                        + b"x" * 64
                    ),
                    buffer=buf,
                )
            req.release()

        asyncio.run(run())

    def test_header_scaffold_is_cached(self):
        a = header_scaffold(200, "application/json", True)
        b = header_scaffold(200, "application/json", True)
        assert a is b
        assert a.startswith(b"HTTP/1.1 200 OK\r\n")
        assert a.endswith(b"Content-Length: ")

    def test_render_into_matches_render(self):
        scratch = bytearray()
        cases = [
            (200, b'{"x":1}', "application/json", True, None),
            (429, b'{"error":"busy"}', "application/json", True,
             {"Retry-After": "1"}),
            (400, b"", "application/json", False, None),
            (200, b"\x00\x01\x02payload", "application/x-repro-frame",
             True, None),
        ]
        for status, body, ct, keep, extra in cases:
            out = render_response_into(
                scratch, status, body, content_type=ct, keep_alive=keep,
                extra_headers=extra,
            )
            ref = render_response(
                status, body, content_type=ct, keep_alive=keep,
                extra_headers=extra,
            )
            # header order differs between the two renderers; compare
            # status line, header set, and body
            assert _parse_raw_response(out) == _parse_raw_response(ref)
            out.release()  # reuse the same scratch for the next case

    def test_render_into_requires_release(self):
        scratch = bytearray()
        out = render_response_into(scratch, 200, b"{}")
        with pytest.raises(BufferError):
            render_response_into(scratch, 200, b"{}")
        out.release()
        out2 = render_response_into(scratch, 200, b'{"ok":1}')
        assert bytes(out2).endswith(b'{"ok":1}')
        out2.release()


class TestKeepAliveClient:
    def test_buffer_reuse_across_requests(self):
        async def run():
            async def handler(reader, writer):
                conn_buf = bytearray()
                while True:
                    req = await read_request(reader, buffer=conn_buf)
                    if req is None:
                        break
                    body = bytes(req.body) if len(req.body) else b"{}"
                    req.release()
                    writer.write(render_response(200, body))
                    await writer.drain()
                writer.close()

            server = await asyncio.start_server(handler, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            try:
                async with KeepAliveClient("127.0.0.1", port) as client:
                    r1 = await client.request("POST", "/echo", b'{"a":1}')
                    assert isinstance(r1.body, memoryview)
                    assert r1.json() == {"a": 1}
                    buf = client._buf
                    r2 = await client.request("POST", "/echo", b'{"b":2}')
                    assert client._buf is buf  # same reusable buffer
                    assert r2.json() == {"b": 2}
                    # the previous response's view was recycled by the
                    # second request — that is the documented contract
                    with pytest.raises(ValueError):
                        bytes(r1.body)
            finally:
                server.close()
                await server.wait_closed()

        asyncio.run(run())

    def test_server_close_raises_connection_error(self):
        async def run():
            async def handler(reader, writer):
                await reader.read(64)
                writer.close()

            server = await asyncio.start_server(handler, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            try:
                client = KeepAliveClient("127.0.0.1", port)
                with pytest.raises((ConnectionError, OSError)):
                    await client.request("GET", "/")
                await client.close()
            finally:
                server.close()
                await server.wait_closed()

        asyncio.run(run())


# ---------------------------------------------------------------------------
# micro-batcher
# ---------------------------------------------------------------------------


class TestMicroBatcher:
    def test_validates_knobs(self):
        fn = lambda items, t: items  # noqa: E731
        with pytest.raises(ValueError):
            MicroBatcher(fn, max_batch=0)
        with pytest.raises(ValueError):
            MicroBatcher(fn, max_linger_s=-1)
        with pytest.raises(ValueError):
            MicroBatcher(fn, queue_size=0)

    def test_coalesces_concurrent_submits_into_one_call(self):
        calls = []

        def reduce_fn(items, threshold):
            calls.append(list(items))
            return [x * 10 for x in items]

        async def run():
            b = MicroBatcher(reduce_fn, max_batch=64, max_linger_s=0.05)
            b.start()
            futs = [b.submit(i) for i in range(8)]
            results = await asyncio.gather(*futs)
            await b.drain()
            return results

        results = asyncio.run(run())
        assert results == [i * 10 for i in range(8)]
        assert len(calls) == 1  # one tick, one reduce_many call
        assert calls[0] == list(range(8))

    def test_max_batch_splits_ticks(self):
        calls = []

        def reduce_fn(items, threshold):
            calls.append(len(items))
            return items

        async def run():
            b = MicroBatcher(reduce_fn, max_batch=3, max_linger_s=0.05)
            b.start()
            futs = [b.submit(i) for i in range(7)]
            await asyncio.gather(*futs)
            await b.drain()

        asyncio.run(run())
        assert sum(calls) == 7
        assert max(calls) <= 3

    def test_threshold_groups_within_a_tick(self):
        calls = []

        def reduce_fn(items, threshold):
            calls.append((threshold, list(items)))
            return items

        async def run():
            b = MicroBatcher(reduce_fn, max_batch=64, max_linger_s=0.05)
            b.start()
            futs = [
                b.submit("a", threshold=1e-10),
                b.submit("b", threshold=1e-2),
                b.submit("c", threshold=1e-10),
            ]
            await asyncio.gather(*futs)
            await b.drain()

        asyncio.run(run())
        assert sorted(t for t, _ in calls) == [1e-10, 1e-2]
        groups = {t: items for t, items in calls}
        assert groups[1e-10] == ["a", "c"]
        assert groups[1e-2] == ["b"]

    def test_queue_full_raises_and_nothing_dropped(self):
        release = threading.Event()

        def reduce_fn(items, threshold):
            release.wait(10)
            return items

        async def run():
            b = MicroBatcher(reduce_fn, max_batch=1, max_linger_s=0.0,
                             queue_size=2)
            b.start()
            first = b.submit("in-flight")
            await asyncio.sleep(0.05)  # batcher now blocked in the executor
            second = b.submit("q1")
            third = b.submit("q2")
            with pytest.raises(BatcherFull):
                b.submit("overflow")
            with pytest.raises(BatcherFull):
                b.submit_many(["x", "y", "z"])
            release.set()
            results = await asyncio.gather(first, second, third)
            await b.drain()
            return results

        assert asyncio.run(run()) == ["in-flight", "q1", "q2"]

    def test_submit_after_drain_raises_closing(self):
        async def run():
            b = MicroBatcher(lambda items, t: items, max_linger_s=0.0)
            b.start()
            await b.drain()  # zero-request drain is legal
            with pytest.raises(BatcherClosing):
                b.submit("late")

        asyncio.run(run())

    def test_drain_flushes_accepted_work(self):
        def reduce_fn(items, threshold):
            return [x + 1 for x in items]

        async def run():
            b = MicroBatcher(reduce_fn, max_batch=2, max_linger_s=5.0)
            b.start()
            futs = [b.submit(i) for i in range(5)]
            drainer = asyncio.ensure_future(b.drain())
            results = await asyncio.gather(*futs)
            await drainer
            return results

        # the 5s linger never elapses: drain forces the flush immediately
        assert asyncio.run(run()) == [1, 2, 3, 4, 5]

    def test_deadline_expired_in_queue_is_504_not_computed(self, global_obs):
        computed = []
        release = threading.Event()

        def reduce_fn(items, threshold):
            computed.extend(items)
            release.wait(10)
            return items

        async def run():
            b = MicroBatcher(reduce_fn, max_batch=1, max_linger_s=0.0)
            b.start()
            blocker = b.submit("blocker")
            await asyncio.sleep(0.05)
            doomed = b.submit("doomed", deadline_s=0.01)
            await asyncio.sleep(0.1)  # deadline passes while queued
            release.set()
            with pytest.raises(DeadlineExceeded):
                await doomed
            assert await blocker == "blocker"
            await b.drain()

        asyncio.run(run())
        assert "doomed" not in computed  # shed, not computed
        assert _counter_sum(
            global_obs, "repro_serve_deadline_misses_total"
        ) == 1

    def test_all_expired_tick_runs_empty(self):
        """A tick whose every request expired must not call reduce_fn with
        garbage nor wedge the drain task (the empty-batch path)."""
        calls = []

        def reduce_fn(items, threshold):
            calls.append(list(items))
            return items

        async def run():
            b = MicroBatcher(reduce_fn, max_batch=4, max_linger_s=0.05)
            b.start()
            doomed = b.submit("x", deadline_s=0.001)
            await asyncio.sleep(0.0)
            with pytest.raises(DeadlineExceeded):
                await doomed
            # the batcher stays healthy for the next request
            ok = await b.submit("y")
            await b.drain()
            return ok

        assert asyncio.run(run()) == "y"
        assert ["y"] in calls and ["x"] not in calls

    def test_reduce_fn_exception_delivered_per_future(self):
        def reduce_fn(items, threshold):
            raise RuntimeError("kernel exploded")

        async def run():
            b = MicroBatcher(reduce_fn, max_batch=4, max_linger_s=0.01)
            b.start()
            futs = [b.submit(i) for i in range(3)]
            outcomes = await asyncio.gather(*futs, return_exceptions=True)
            await b.drain()  # the task survived the exception
            return outcomes

        outcomes = asyncio.run(run())
        assert all(isinstance(o, RuntimeError) for o in outcomes)

    def test_metrics_reconcile(self, global_obs):
        def reduce_fn(items, threshold):
            return items

        async def run():
            b = MicroBatcher(reduce_fn, max_batch=4, max_linger_s=0.01)
            b.start()
            await asyncio.gather(*[b.submit(i) for i in range(10)])
            await b.drain()
            return b

        b = asyncio.run(run())
        snap = global_obs.snapshot()
        batches = _counter_sum(global_obs, "repro_serve_batches_total")
        assert batches == b.batches_processed >= 3  # 10 items, max_batch 4
        hist = snap["histograms"]["repro_serve_batch_items"][0]
        assert hist["count"] == batches
        assert hist["sum"] == 10 == b.requests_accepted


# ---------------------------------------------------------------------------
# daemon endpoints (in-process, asyncio client)
# ---------------------------------------------------------------------------


RANKS = 8


def _payload(values: np.ndarray, **extra) -> bytes:
    return json.dumps(
        {"values_b64": encode_values(values), **extra}
    ).encode()


def _serial_hex(values: np.ndarray, *, threshold=None) -> str:
    comm = SimComm(RANKS)
    reducer = AdaptiveReducer(comm)
    result = reducer.reduce(comm.scatter_array(values), threshold=threshold)
    return float(result.value).hex()


class TestDaemonEndpoints:
    def _run(self, coro_fn, **daemon_kw):
        kw = dict(ranks=RANKS, max_batch=8, max_linger_us=500.0, workers=1)
        kw.update(daemon_kw)

        async def main():
            async with ReproServeDaemon(**kw) as daemon:
                return await coro_fn(daemon)

        return asyncio.run(main())

    def test_healthz(self):
        async def go(d):
            return await http_request(d.host, d.port, "GET", "/healthz")

        resp = self._run(go)
        assert resp.status == 200
        body = resp.json()
        assert body["status"] == "ok"
        assert body["ranks"] == RANKS

    def test_reduce_bitwise_equals_serial(self, rng):
        values = rng.normal(size=1024) * 10.0 ** rng.integers(
            -20, 20, size=1024
        )

        async def go(d):
            return await http_request(
                d.host, d.port, "POST", "/v1/reduce", _payload(values)
            )

        resp = self._run(go)
        assert resp.status == 200
        body = resp.json()
        assert body["value_hex"] == _serial_hex(values)
        # the JSON float round-trips to the same bits as the hex form
        assert float(body["value"]).hex() == body["value_hex"]
        assert body["algorithm"]
        assert body["tier"] in ("profile", "bound")

    def test_unbatched_reference_mode_bitwise(self, rng):
        # batching=False is the request-at-a-time baseline the serve bench
        # measures against: no coalescing, one solo reduce() per request —
        # and bitwise-identical answers to the batched path
        values = rng.normal(size=1024) * 10.0 ** rng.integers(
            -20, 20, size=1024
        )

        async def go(d):
            assert d.batcher.max_batch == 1
            resp = await http_request(
                d.host, d.port, "POST", "/v1/reduce", _payload(values)
            )
            return resp, d.batcher.batches_processed

        resp, batches = self._run(go, batching=False)
        assert resp.status == 200
        assert resp.json()["value_hex"] == _serial_hex(values)
        assert batches == 1

    def test_reduce_accepts_plain_values_and_chunks(self, rng):
        values = rng.normal(size=64)
        comm = SimComm(RANKS)
        chunk_body = json.dumps(
            {"chunks": [c.tolist() for c in comm.scatter_array(values)]}
        ).encode()
        plain_body = json.dumps({"values": values.tolist()}).encode()

        async def go(d):
            a = await http_request(
                d.host, d.port, "POST", "/v1/reduce", plain_body
            )
            b = await http_request(
                d.host, d.port, "POST", "/v1/reduce", chunk_body
            )
            return a, b

        a, b = self._run(go)
        assert a.status == b.status == 200
        expected = _serial_hex(values)
        assert a.json()["value_hex"] == expected
        assert b.json()["value_hex"] == expected

    def test_reduce_threshold_is_honored(self, rng):
        values = rng.normal(size=512)

        async def go(d):
            return await http_request(
                d.host, d.port, "POST", "/v1/reduce",
                _payload(values, threshold=1e-2),
            )

        resp = self._run(go)
        body = resp.json()
        assert body["threshold"] == 1e-2  # repro: allow[FP007] -- exact JSON round-trip of the request's double is the property under test
        assert body["value_hex"] == _serial_hex(values, threshold=1e-2)

    def test_reduce_many_bitwise_per_item(self, rng):
        streams = [
            rng.normal(size=n) * 10.0 ** rng.integers(-15, 15, size=n)
            for n in (256, 256, 512, 64)
        ]
        body = json.dumps(
            {"items": [{"values_b64": encode_values(v)} for v in streams]}
        ).encode()

        async def go(d):
            return await http_request(
                d.host, d.port, "POST", "/v1/reduce_many", body
            )

        resp = self._run(go)
        assert resp.status == 200
        results = resp.json()["results"]
        assert [r["value_hex"] for r in results] == [
            _serial_hex(v) for v in streams
        ]

    def test_reduce_many_empty_items(self):
        async def go(d):
            return await http_request(
                d.host, d.port, "POST", "/v1/reduce_many", b'{"items":[]}'
            )

        resp = self._run(go)
        assert resp.status == 200
        assert resp.json() == {"results": []}

    def test_reduce_many_shared_threshold(self, rng):
        values = rng.normal(size=128)
        body = json.dumps(
            {
                "threshold": 1e-3,
                "items": [{"values_b64": encode_values(values)}],
            }
        ).encode()

        async def go(d):
            return await http_request(
                d.host, d.port, "POST", "/v1/reduce_many", body
            )

        resp = self._run(go)
        assert resp.json()["results"][0]["threshold"] == 1e-3  # repro: allow[FP007] -- exact JSON round-trip of the shared threshold is the property under test

    def test_ensemble_matches_direct_evaluation(self, rng):
        values = rng.normal(size=300)
        body = _payload(values, algorithm="FB", n_trees=16, seed=42,
                        shape="balanced")

        async def go(d):
            return await http_request(
                d.host, d.port, "POST", "/v1/ensemble", body
            )

        resp = self._run(go)
        assert resp.status == 200
        payload = resp.json()
        direct = evaluate_ensemble(
            values, "balanced", get_algorithm("FB"), 16, seed=42, workers=1
        )
        assert payload["values_hex"] == [float(v).hex() for v in direct]
        assert payload["spread"] == float(direct.max() - direct.min())

    def test_error_statuses(self, rng):
        values = rng.normal(size=64)

        async def go(d):
            out = {}
            out["bad_json"] = await http_request(
                d.host, d.port, "POST", "/v1/reduce", b"junk"
            )
            out["not_found"] = await http_request(
                d.host, d.port, "GET", "/nope"
            )
            out["bad_method"] = await http_request(
                d.host, d.port, "GET", "/v1/reduce"
            )
            out["bad_threshold"] = await http_request(
                d.host, d.port, "POST", "/v1/reduce",
                _payload(values, threshold=-1),
            )
            out["nan_threshold"] = await http_request(
                d.host, d.port, "POST", "/v1/reduce",
                _payload(values, threshold="nan"),
            )
            out["bad_chunks"] = await http_request(
                d.host, d.port, "POST", "/v1/reduce",
                json.dumps({"chunks": [[1.0]]}).encode(),  # wrong rank count
            )
            out["bad_algorithm"] = await http_request(
                d.host, d.port, "POST", "/v1/ensemble",
                _payload(values, algorithm="NOPE", n_trees=4),
            )
            out["rank_mismatch"] = await http_request(
                d.host, d.port, "POST", "/v1/reduce",
                json.dumps({"values": []}).encode(),
            )
            return out

        out = self._run(go)
        assert out["bad_json"].status == 400
        assert out["not_found"].status == 404
        assert out["bad_method"].status == 405
        assert out["bad_threshold"].status == 400
        assert out["nan_threshold"].status == 400
        assert out["bad_chunks"].status == 400
        assert out["bad_algorithm"].status == 400
        # empty global vector scatters to empty chunks: served, not a crash
        assert out["rank_mismatch"].status == 200
        assert float.fromhex(out["rank_mismatch"].json()["value_hex"]) == 0.0

    def test_backpressure_maps_to_429_with_retry_after(self, rng):
        values = rng.normal(size=64)

        async def go(d):
            def full(*a, **k):
                raise BatcherFull("queue at 4/4")

            d.batcher.submit = full
            return await http_request(
                d.host, d.port, "POST", "/v1/reduce", _payload(values)
            )

        resp = self._run(go)
        assert resp.status == 429
        assert resp.headers.get("retry-after") == "1"

    def test_draining_daemon_answers_503(self, rng):
        values = rng.normal(size=64)

        async def go(d):
            await d.batcher.drain()
            return await http_request(
                d.host, d.port, "POST", "/v1/reduce", _payload(values)
            )

        resp = self._run(go)
        assert resp.status == 503

    def test_expired_deadline_answers_504(self, rng):
        values = rng.normal(size=64)
        # linger 100ms >> 10us deadline: the request expires in the queue
        body = _payload(values, deadline_ms=0.01)

        async def go(d):
            return await http_request(
                d.host, d.port, "POST", "/v1/reduce", body
            )

        resp = self._run(go, max_batch=64, max_linger_us=100_000.0)
        assert resp.status == 504

    def test_metrics_endpoint_parses_and_counts(self, rng, global_obs):
        values = rng.normal(size=256)

        async def go(d):
            for _ in range(3):
                r = await http_request(
                    d.host, d.port, "POST", "/v1/reduce", _payload(values)
                )
                assert r.status == 200
            return await http_request(d.host, d.port, "GET", "/metrics")

        resp = self._run(go)
        assert resp.status == 200
        assert resp.headers["content-type"].startswith("text/plain")
        parsed = parse_prometheus_text(resp.body.decode())
        by_name: dict = {}
        for s in parsed["samples"]:
            key = (s["name"], tuple(sorted(s["labels"].items())))
            by_name[key] = s["value"]
        ok_reduces = by_name[
            (
                "repro_serve_requests_total",
                (("endpoint", "/v1/reduce"), ("status", "200")),
            )
        ]
        assert ok_reduces == 3
        assert parsed["types"]["repro_serve_requests_total"] == "counter"
        assert parsed["types"]["repro_serve_request_seconds"] == "histogram"
        batches = sum(
            s["value"]
            for s in parsed["samples"]
            if s["name"] == "repro_serve_batches_total"
        )
        assert batches >= 1

    def test_keep_alive_connection_serves_multiple_requests(self, rng):
        values = rng.normal(size=64)

        async def go(d):
            reader, writer = await asyncio.open_connection(d.host, d.port)
            try:
                hexes = []
                for _ in range(3):
                    r = await http_request(
                        d.host, d.port, "POST", "/v1/reduce",
                        _payload(values), reader=reader, writer=writer,
                    )
                    assert r.status == 200
                    hexes.append(r.json()["value_hex"])
                return hexes
            finally:
                writer.close()

        hexes = self._run(go)
        assert len(set(hexes)) == 1 == len(set(hexes) & {_serial_hex(values)})


# ---------------------------------------------------------------------------
# threaded-client concurrency: bitwise identity + metric reconciliation
# ---------------------------------------------------------------------------


class _DaemonThread:
    """Run a daemon on a private event loop in a background thread so
    plain blocking clients (threads with urllib) can drive it."""

    def __init__(self, **daemon_kw):
        self.daemon_kw = daemon_kw
        self.daemon: "ReproServeDaemon | None" = None

    def __enter__(self) -> "_DaemonThread":
        self._ready = threading.Event()
        self._thread = threading.Thread(target=self._thread_main, daemon=True)
        self._thread.start()
        assert self._ready.wait(30), "daemon failed to start"
        return self

    def _thread_main(self) -> None:
        asyncio.run(self._amain())

    async def _amain(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        async with ReproServeDaemon(**self.daemon_kw) as daemon:
            self.daemon = daemon
            self._ready.set()
            await self._stop.wait()

    def __exit__(self, *exc_info) -> None:
        self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout=30)

    @property
    def port(self) -> int:
        assert self.daemon is not None
        return self.daemon.port


def _post(port: int, path: str, payload: dict, timeout: float = 60.0):
    req = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}",
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(req, timeout=timeout) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read() or b"{}")


class TestConcurrentServing:
    N_THREADS = 4
    PER_THREAD = 8

    def test_concurrent_clients_bitwise_and_reconciled(self, global_obs):
        rng = np.random.default_rng(777)
        streams = [
            rng.normal(size=256) * 10.0 ** rng.integers(-10, 10, size=256)
            for _ in range(self.N_THREADS * self.PER_THREAD)
        ]
        expected = [_serial_hex(v) for v in streams]
        serial_selections = _counter_sum(
            global_obs, "repro_selector_selections_total"
        )
        results: "list[str | None]" = [None] * len(streams)
        errors: list = []

        def client(tid: int) -> None:
            for j in range(self.PER_THREAD):
                idx = tid * self.PER_THREAD + j
                try:
                    status, body = _post(
                        port,
                        "/v1/reduce",
                        {"values_b64": encode_values(streams[idx])},
                    )
                    assert status == 200, body
                    results[idx] = body["value_hex"]
                except Exception as exc:  # noqa: BLE001 - surfaced below
                    errors.append((idx, exc))

        with _DaemonThread(
            ranks=RANKS, max_batch=16, max_linger_us=2000.0, workers=1
        ) as handle:
            port = handle.port
            threads = [
                threading.Thread(target=client, args=(t,))
                for t in range(self.N_THREADS)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            assert not errors, errors
            # every concurrent response equals its serial recomputation
            assert results == expected

            batcher = handle.daemon.batcher
            accepted = batcher.requests_accepted

        n = len(streams)
        assert accepted == n
        # serve-layer metrics reconcile with the request count ...
        assert (
            _counter_sum(
                global_obs,
                "repro_serve_requests_total",
                endpoint="/v1/reduce",
                status="200",
            )
            == n
        )
        snap = global_obs.snapshot()
        hist = snap["histograms"]["repro_serve_batch_items"][0]
        assert hist["sum"] == n  # every accepted request rode exactly one tick
        assert hist["count"] == _counter_sum(
            global_obs, "repro_serve_batches_total"
        )
        assert _counter_sum(global_obs, "repro_serve_rejected_total") == 0
        assert (
            _counter_sum(global_obs, "repro_serve_deadline_misses_total") == 0
        )
        # ... and the selector made exactly one selection per served item
        # (on top of the serial recomputation's)
        selections = _counter_sum(global_obs, "repro_selector_selections_total")
        assert selections == serial_selections + n
        assert (
            snap["histograms"]["repro_selector_select_seconds"][0]["count"]
            == selections
        )


# ---------------------------------------------------------------------------
# SIGTERM lifecycle (real subprocess)
# ---------------------------------------------------------------------------


_REPO_SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")


class TestSigterm:
    def _spawn(self, *extra_args: str) -> "tuple[subprocess.Popen, int]":
        env = {
            **os.environ,
            "PYTHONPATH": _REPO_SRC,
            # force the pool + shm arenas to materialise on small traffic
            "REPRO_WORKERS": "2",
            "REPRO_PARALLEL_MIN_ITEMS": "1",
            "REPRO_PARALLEL_MIN_BYTES": "1",
        }
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.serve.cli",
                "--port", "0", "--ranks", "8", "--workers", "2",
                "--max-batch", "16", "--max-linger-us", "200",
                *extra_args,
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        banner = proc.stdout.readline()
        try:
            port = int(banner.rsplit(":", 1)[1].split()[0].split("(")[0])
        except (IndexError, ValueError):
            proc.kill()
            raise AssertionError(f"no listen banner, got {banner!r}") from None
        return proc, port

    @pytest.mark.skipif(
        not os.path.isdir("/dev/shm"), reason="needs POSIX shared memory"
    )
    def test_sigterm_drains_and_unlinks_shm(self):
        rng = np.random.default_rng(5)
        before = set(os.listdir("/dev/shm"))
        proc, port = self._spawn()
        try:
            items = [
                {"values_b64": encode_values(rng.normal(size=2048))}
                for _ in range(8)
            ]
            status, body = _post(port, "/v1/reduce_many", {"items": items})
            assert status == 200
            assert len(body["results"]) == 8
            during = {
                n for n in set(os.listdir("/dev/shm")) - before
                if n.startswith("psm_")
            }
            assert during, "worker-pool arenas never materialised"
            proc.send_signal(signal.SIGTERM)
            rc = proc.wait(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30)
        tail = proc.stdout.read()
        assert rc == 0, f"exit {rc}: {tail}"
        assert "shutdown complete" in tail
        leaked = set(os.listdir("/dev/shm")) - before
        assert not leaked, f"leaked shm segments: {sorted(leaked)}"

    def test_sigint_also_exits_cleanly(self):
        proc, port = self._spawn("--no-metrics")
        try:
            with urllib.request.urlopen(
                f"http://127.0.0.1:{port}/healthz", timeout=30
            ) as resp:
                assert resp.status == 200
        finally:
            proc.send_signal(signal.SIGINT)
            try:
                rc = proc.wait(timeout=60)
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait(timeout=30)
        assert rc == 0


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------


class TestCli:
    def test_parser_defaults(self):
        from repro.serve.cli import build_parser

        args = build_parser().parse_args([])
        assert args.port == 8077
        assert args.ranks == 8
        assert args.max_batch == 64
        assert args.max_linger_us == 1000.0
        assert args.queue_size == 1024
        assert args.deadline_ms is None
        assert not args.no_metrics
        assert not args.no_batching

    def test_parser_knobs(self):
        from repro.serve.cli import build_parser

        args = build_parser().parse_args(
            [
                "--workers", "4", "--max-batch", "64", "--ranks", "48",
                "--deadline-ms", "250",
                "--no-metrics",
            ]
        )
        assert args.workers == 4
        assert args.ranks == 48
        assert args.deadline_ms == 250.0
        assert args.no_metrics
