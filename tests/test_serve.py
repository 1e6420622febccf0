"""repro.serve under test: protocol parsing, the micro-batcher's queue
semantics (backpressure, deadlines, drain), every daemon endpoint against
bitwise serial recomputation, threaded-client concurrency with metric and
decision-cache reconciliation, and the SIGTERM lifecycle (exit 0, zero
leaked ``/dev/shm`` segments) in a real subprocess.
"""

from __future__ import annotations

import asyncio
import base64
import contextlib
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
from repro.serve.frames import (
    FRAME_CONTENT_TYPE,
    KIND_REQUEST,
    KIND_RESPONSE,
    encode_frame,
    parse_frame,
)
from repro.serve.protocol import (
    HttpError,
    HttpRequest,
    HttpResponse,
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


def _flush_reasons(reg) -> "dict[str, float]":
    """``repro_serve_tick_flush_total`` per reason."""
    return {
        sample["labels"]["reason"]: sample["value"]
        for sample in reg.snapshot()["counters"].get(
            "repro_serve_tick_flush_total", []
        )
    }


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
            # an open intake could still add to the tick, so it lingers
            # past the deadline
            with b.reading():
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

    def test_every_tick_counts_one_flush_reason(self, global_obs):
        def reduce_fn(items, threshold):
            return items

        async def run():
            b = MicroBatcher(reduce_fn, max_batch=2, max_linger_s=0.01)
            b.start()
            # full, then the leftover fires at once: nobody reads for it
            await asyncio.gather(*[b.submit(i) for i in range(3)])
            with b.reading():  # a reader keeps the tick open until expiry
                await b.submit("lone")
                held = b.submit("held")
                await b.drain()  # closing flushes it
            assert await held == "held"
            return b

        b = asyncio.run(run())
        assert _flush_reasons(global_obs) == {
            "full": 1, "no_sender": 1, "expired": 1, "drain": 1
        }
        assert b.batches_processed == 4 == _counter_sum(
            global_obs, "repro_serve_batches_total"
        )

    def test_no_intake_never_lingers(self):
        async def run():
            b = MicroBatcher(lambda items, t: items, max_linger_s=30.0)
            b.start()
            out = await asyncio.wait_for(b.submit("x"), 2.0)
            await b.drain()
            return out

        assert asyncio.run(run()) == "x"

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


def _run_daemon(coro_fn, **daemon_kw):
    """Run ``coro_fn(daemon)`` against an in-process daemon."""
    kw = dict(ranks=RANKS, max_batch=8, max_linger_us=500.0, workers=1)
    kw.update(daemon_kw)

    async def main():
        async with ReproServeDaemon(**kw) as daemon:
            return await coro_fn(daemon)

    return asyncio.run(main())


async def _until(cond, timeout: float = 5.0) -> None:
    """Poll ``cond()`` every millisecond; fail after ``timeout`` seconds."""

    async def poll() -> None:
        while not cond():
            await asyncio.sleep(0.001)

    await asyncio.wait_for(poll(), timeout)


def _detached(resp: HttpResponse) -> HttpResponse:
    """A :class:`KeepAliveClient` response that outlives its client."""
    return HttpResponse(resp.status, resp.headers, bytes(resp.body))


class TestDaemonEndpoints:
    def _run(self, coro_fn, **daemon_kw):
        return _run_daemon(coro_fn, **daemon_kw)

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
        # max_batch=1, max_linger_us=0 is the request-at-a-time baseline the
        # serve bench measures against: no coalescing, one reduce_many of
        # one item per request — and bitwise-identical answers to the
        # batched path
        values = rng.normal(size=1024) * 10.0 ** rng.integers(
            -20, 20, size=1024
        )

        async def go(d):
            assert d.batcher.max_batch == 1
            resp = await http_request(
                d.host, d.port, "POST", "/v1/reduce", _payload(values)
            )
            return resp, d.batcher.batches_processed

        resp, batches = self._run(go, max_batch=1, max_linger_us=0.0)
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

    def test_reduce_many_copies_no_operand_of_an_f8_frame(self, global_obs):
        """The tick block reads a binary f8 frame's rows in place: the copy
        counter stays at 0 for ST, K, CP and PR items alike.  Inputs that
        cannot be read in place (JSON chunk lists, fp32 frames) are copied
        exactly once per operand."""
        from repro.generators import generate_sum_set
        from repro.generators.conditioned import zero_sum_set
        from repro.serve.frames import (
            FRAME_CONTENT_TYPE,
            KIND_REQUEST,
            KIND_RESPONSE,
            encode_frame,
            parse_frame,
        )

        mat = np.stack(
            [generate_sum_set(512, k, 8, seed=1).values for k in (1e2, 1e4, 1e6)]
            + [zero_sum_set(512, 8, seed=2)]
        )
        comm = SimComm(RANKS)
        json_body = json.dumps(
            {"items": [{"chunks": [c.tolist() for c in comm.scatter_array(v)]} for v in mat]}
        ).encode()

        def frame(arr):
            header = {"dtype": arr.dtype.str, "shape": list(arr.shape)}
            return encode_frame(header, arr, kind=KIND_REQUEST)

        def copied() -> int:
            return _counter_sum(global_obs, "repro_tick_copied_bytes_total")

        async def go(d):
            async with KeepAliveClient(d.host, d.port) as client:
                r = await client.request(
                    "POST", "/v1/reduce_many", frame(mat),
                    content_type=FRAME_CONTENT_TYPE,
                )
                assert r.status == 200
                header, _ = parse_frame(bytes(r.body), kind=KIND_RESPONSE)
                after_f8 = copied()
                r = await client.request("POST", "/v1/reduce_many", json_body)
                assert r.status == 200
                after_json = copied()
                r = await client.request(
                    "POST", "/v1/reduce_many",
                    frame(mat.astype("<f4")),  # repro: allow[FP005] -- an fp32 frame is the copy-path input under test
                    content_type=FRAME_CONTENT_TYPE,
                )
                assert r.status == 200
                return header, after_f8, after_json, copied()

        header, after_f8, after_json, after_f4 = self._run(go)
        assert {res["algorithm"] for res in header["results"]} == {"ST", "K", "CP", "PR"}
        assert after_f8 == 0
        assert after_json == 8 * mat.size
        assert after_f4 - after_json == 8 * mat.size

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

    def test_backpressure_maps_to_429_with_retry_after(self, rng, global_obs):
        values = rng.normal(size=64)
        two = json.dumps(
            {"items": [{"values_b64": encode_values(values)}] * 2}
        ).encode()

        async def go(d):
            # the second client is connected (and so could still add to the
            # tick) before the first request, which therefore lingers in the
            # queue and fills it
            async with KeepAliveClient(d.host, d.port) as other:
                await _until(lambda: d.batcher.intakes >= 1)
                first = asyncio.ensure_future(
                    http_request(d.host, d.port, "POST", "/v1/reduce_many", two)
                )
                while d.batcher.depth < 2:
                    await asyncio.sleep(0.001)
                second = _detached(
                    await other.request("POST", "/v1/reduce", _payload(values))
                )
                return await first, second

        first, second = self._run(
            go, queue_size=2, max_batch=64, max_linger_us=1_000_000.0
        )
        assert first.status == 200
        assert second.status == 429
        assert second.headers.get("retry-after") == "1"
        assert second.json() == {
            "error": "queue at 2/2 cannot take 1 more request(s)"
        }
        assert _counter_sum(
            global_obs, "repro_serve_rejected_total", reason="queue_full"
        ) == 1

    def test_every_json_reduce_many_429_is_counted(self, rng, global_obs):
        """A JSON reduce_many wider than the queue is rejected whole — and
        every rejected item counts, like the binary codec's."""
        items = [{"values_b64": encode_values(rng.normal(size=32))}] * 3
        body = json.dumps({"items": items}).encode()

        async def go(d):
            return await http_request(
                d.host, d.port, "POST", "/v1/reduce_many", body
            )

        resp = self._run(go, queue_size=2)
        assert resp.status == 429
        assert resp.json() == {
            "error": "queue at 0/2 cannot take 3 more request(s)"
        }
        assert _counter_sum(
            global_obs, "repro_serve_rejected_total", reason="queue_full"
        ) == 3

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
            # a second connected client could still add to the tick, so the
            # request lingers
            async with KeepAliveClient(d.host, d.port):
                await _until(lambda: d.batcher.intakes >= 1)
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


class TestTickFiring:
    """A tick lingers only while a connection could still add to it: one
    reading its next request.  The linger bound is 30 s here, so every
    answer that comes back within the test's 2 s wait fired early."""

    LINGER = dict(max_batch=64, max_linger_us=30_000_000.0)

    def test_lone_keep_alive_request_fires_at_once(self, rng, global_obs):
        values = rng.normal(size=256)

        async def go(d):
            async with KeepAliveClient(d.host, d.port) as client:
                r = await asyncio.wait_for(
                    client.request("POST", "/v1/reduce", _payload(values)), 2.0
                )
                return _detached(r)

        resp = _run_daemon(go, **self.LINGER)
        assert resp.status == 200
        assert resp.json()["value_hex"] == _serial_hex(values)
        assert _flush_reasons(global_obs) == {"no_sender": 1}

    @staticmethod
    async def _lingering(d, client, body) -> asyncio.Task:
        """Send ``body`` on ``client``; return once its tick is lingering."""
        task = asyncio.ensure_future(client.request("POST", "/v1/reduce", body))
        await _until(lambda: d.batcher.depth >= 1)
        await asyncio.sleep(0.05)
        assert not task.done() and d.batcher.batches_processed == 0
        return task

    def test_idle_connection_holds_the_tick_until_it_sends(self, rng, global_obs):
        a_values, b_values = rng.normal(size=256), rng.normal(size=320)

        async def go(d):
            async with KeepAliveClient(d.host, d.port) as a, KeepAliveClient(
                d.host, d.port
            ) as b:
                await _until(lambda: d.batcher.intakes >= 2)
                first = await self._lingering(d, a, _payload(a_values))
                second = _detached(
                    await asyncio.wait_for(
                        b.request("POST", "/v1/reduce", _payload(b_values)), 2.0
                    )
                )
                return _detached(await asyncio.wait_for(first, 2.0)), second

        first, second = _run_daemon(go, **self.LINGER)
        assert [first.status, second.status] == [200, 200]
        assert first.json()["value_hex"] == _serial_hex(a_values)
        assert second.json()["value_hex"] == _serial_hex(b_values)
        hist = global_obs.snapshot()["histograms"]["repro_serve_batch_items"][0]
        assert (hist["count"], hist["sum"]) == (1, 2)  # one tick of 2 items
        assert _flush_reasons(global_obs) == {"no_sender": 1}

    @pytest.mark.parametrize("idle_sends", ["close", "healthz"])
    def test_idle_connection_leaving_ends_the_linger(
        self, rng, global_obs, idle_sends
    ):
        values = rng.normal(size=256)

        async def go(d):
            async with KeepAliveClient(d.host, d.port) as a, KeepAliveClient(
                d.host, d.port
            ) as idle:
                await _until(lambda: d.batcher.intakes >= 2)
                first = await self._lingering(d, a, _payload(values))
                if idle_sends == "close":
                    await idle.close()
                else:
                    health = await idle.request("GET", "/healthz")
                    assert health.status == 200
                return _detached(await asyncio.wait_for(first, 2.0))

        resp = _run_daemon(go, **self.LINGER)
        assert resp.status == 200
        assert resp.json()["value_hex"] == _serial_hex(values)
        assert _flush_reasons(global_obs) == {"no_sender": 1}

    def test_nothing_awaits_between_read_and_submit(self, rng):
        """Once a request is read, its connection submits it before the
        event loop runs anything else, on both codecs and both reduce
        routes: a callback scheduled as the read returns has not run by
        the submit."""
        values = rng.normal(size=96)
        rows = np.stack([values, values[::-1]])
        json_many = json.dumps(
            {"items": [{"values": r.tolist()} for r in rows]}
        ).encode()
        requests = [
            ("/v1/reduce", _payload(values), "application/json"),
            ("/v1/reduce_many", json_many, "application/json"),
            ("/v1/reduce", _frame(values), FRAME_CONTENT_TYPE),
            ("/v1/reduce_many", _frame(rows), FRAME_CONTENT_TYPE),
        ]

        async def go(d):
            loop = asyncio.get_running_loop()
            batcher = d.batcher
            reading, submit_many = batcher.reading, batcher.submit_many
            reads: "list[list[bool]]" = []  # per read: has the loop run since?
            loop_ran: "list[bool]" = []

            @contextlib.contextmanager
            def traced_reading():
                with reading():
                    yield
                read = [False]
                reads.append(read)
                loop.call_soon(read.__setitem__, 0, True)

            def traced_submit_many(items, **kwargs):
                loop_ran.append(reads[-1][0])
                return submit_many(items, **kwargs)

            batcher.reading = traced_reading
            batcher.submit_many = traced_submit_many
            async with KeepAliveClient(d.host, d.port) as client:
                for path, body, content_type in requests:
                    r = await client.request(
                        "POST", path, body, content_type=content_type
                    )
                    assert r.status == 200
            return loop_ran

        assert _run_daemon(go) == [False] * 4


def _frame(arr: np.ndarray, **header) -> bytes:
    head = {"dtype": arr.dtype.str, "shape": list(arr.shape), **header}
    return encode_frame(head, arr.ravel(), kind=KIND_REQUEST)


def _unframe(body) -> "tuple[list, bytes]":
    """A response frame's header items (in wire order) and payload bytes."""
    header, payload = parse_frame(bytes(body), kind=KIND_RESPONSE)
    return list(header.items()), bytes(payload)


class TestOneReduceRoute:
    """``/v1/reduce`` is ``/v1/reduce_many`` of one item on both codecs:
    the four envelopes, per-request failure of non-finite payloads, and
    PR's +-inf on overflow."""

    V = np.arange(1.0, 65.0)  # sums to 2080 exactly
    W = np.linspace(-1.0, 2.0, 48)
    META_V = [
        ("algorithm", "ST"),
        ("tier", "profile"),
        ("threshold", 1e-13),
        ("predicted_std", 1.7763568394002505e-17),
        ("n", 64),
    ]

    async def _post_all(self, d, requests):
        """POST ``(path, body, binary)`` requests concurrently, one
        connection each; answers ``(status, body bytes)`` in order."""

        async def one(path, body, binary):
            async with KeepAliveClient(d.host, d.port) as client:
                kw = {"content_type": FRAME_CONTENT_TYPE} if binary else {}
                r = await client.request("POST", path, body, **kw)
                return r.status, bytes(r.body)

        return await asyncio.gather(*(one(*req) for req in requests))

    def test_four_envelopes_pinned(self):
        v, w = self.V, self.W
        f4 = np.stack([w, w[::-1]]).astype("<f4")  # repro: allow[FP005] -- an fp32 frame's envelope is under test
        requests = [
            ("/v1/reduce", json.dumps({"values": v.tolist()}).encode(), False),
            (
                "/v1/reduce_many",
                json.dumps(
                    {
                        "threshold": 1e-3,
                        "items": [
                            {"values": v.tolist()},
                            {"values": w.tolist(), "threshold": 1e-9},
                        ],
                    }
                ).encode(),
                False,
            ),
            ("/v1/reduce", _frame(v), True),
            ("/v1/reduce_many", _frame(f4, threshold=1e-2), True),
            ("/v1/reduce_many", _frame(np.empty((0, 5))), True),
            ("/v1/reduce_many", b'{"items":[]}', False),
        ]

        async def go(d):
            return [await self._post_all(d, [req]) for req in requests]

        outs = [out[0] for out in _run_daemon(go)]
        assert all(status == 200 for status, _ in outs)
        assert outs[0][1] == (
            b'{"value":2080.0,"value_hex":"0x1.0400000000000p+11",'
            b'"algorithm":"ST","tier":"profile","threshold":1e-13,'
            b'"predicted_std":1.7763568394002505e-17,"n":64}'
        )
        assert outs[1][1] == (
            b'{"results":[{"value":2080.0,"value_hex":"0x1.0400000000000p+11",'
            b'"algorithm":"ST","tier":"profile","threshold":0.001,'
            b'"predicted_std":1.7763568394002505e-17,"n":64},'
            b'{"value":23.999999999999993,"value_hex":"0x1.7fffffffffffep+4",'
            b'"algorithm":"ST","tier":"profile","threshold":1e-09,'
            b'"predicted_std":2.6075919548690603e-17,"n":48}]}'
        )
        assert _unframe(outs[2][1]) == (
            [("status", 200), ("dtype", "<f8"), ("shape", [1]), *self.META_V],
            np.float64(2080.0).tobytes(),
        )
        meta_f4 = {
            "algorithm": "ST",
            "tier": "profile",
            "threshold": 0.01,
            "predicted_std": 1.3999402686204953e-08,
            "n": 48,
        }
        assert _unframe(outs[3][1]) == (
            [
                ("status", 200),
                ("dtype", "<f8"),
                ("shape", [2]),
                ("results", [meta_f4, meta_f4]),
            ],
            np.array([23.999999990686774] * 2, dtype="<f8").tobytes(),
        )
        assert _unframe(outs[4][1]) == (
            [("status", 200), ("dtype", "<f8"), ("shape", [0]), ("results", [])],
            b"",
        )
        assert outs[5][1] == b'{"results":[]}'

    @pytest.mark.parametrize("binary", [False, True])
    def test_nonfinite_payload_fails_only_its_own_request(self, rng, binary):
        finite = rng.normal(size=300) * 10.0 ** rng.integers(-8, 8, size=300)
        with_inf, with_nan = finite.copy(), finite.copy()
        with_inf[17] = np.inf
        with_nan[4] = np.nan
        if binary:
            requests = [
                ("/v1/reduce", _frame(finite), True),
                ("/v1/reduce", _frame(with_inf), True),
                ("/v1/reduce_many", _frame(np.stack([finite, with_nan])), True),
            ]
        else:
            requests = [
                ("/v1/reduce", _payload(finite), False),
                ("/v1/reduce", _payload(with_inf), False),
                (
                    "/v1/reduce_many",
                    json.dumps(
                        {
                            "items": [
                                {"values_b64": encode_values(finite)},
                                {"values_b64": encode_values(with_nan)},
                            ]
                        }
                    ).encode(),
                    False,
                ),
            ]

        async def go(d):
            # all four items queue before the tick fires: one tick
            outs = await self._post_all(d, requests)
            return outs, d.batcher.batches_processed

        outs, ticks = _run_daemon(go, max_batch=4, max_linger_us=5_000_000.0)
        assert ticks == 1
        assert [status for status, _ in outs] == [200, 400, 400]
        if binary:
            value = np.frombuffer(_unframe(outs[0][1])[1], dtype="<f8")[0]
            assert float(value).hex() == _serial_hex(finite)
        else:
            assert json.loads(outs[0][1])["value_hex"] == _serial_hex(finite)
        for _, body in outs[1:]:
            assert json.loads(body) == {
                "error": "payload holds a non-finite value (NaN or inf)"
            }

    def test_pr_overflow_is_plus_inf_on_every_route(self):
        top = np.finfo(np.float64).max
        x = np.full(1000, top) * np.resize([1.0, -1.0, 0.5], 1000)
        requests = [
            ("/v1/reduce", _payload(x), False),
            (
                "/v1/reduce_many",
                json.dumps({"items": [{"values_b64": encode_values(x)}]}).encode(),
                False,
            ),
            ("/v1/reduce", _frame(x), True),
            ("/v1/reduce_many", _frame(np.stack([x, x])), True),
        ]

        async def go(d):
            return await self._post_all(d, requests)

        outs = _run_daemon(go)
        assert [status for status, _ in outs] == [200] * 4
        single, many = json.loads(outs[0][1]), json.loads(outs[1][1])
        assert single["value_hex"] == many["results"][0]["value_hex"] == "inf"
        assert single["algorithm"] == "PR"
        for _, body in outs[2:]:
            values = np.frombuffer(_unframe(body)[1], dtype="<f8")
            assert values.tolist() == [np.inf] * values.size

    def test_json_bodies_are_strict(self):
        """No bare ``Infinity``/``NaN`` token in any JSON body: an
        overflowed value is ``null`` next to its ``value_hex``, and a
        non-finite ensemble operand answers the reduce routes' 400."""
        top = np.finfo(np.float64).max
        x = np.full(1000, top) * np.resize([1.0, -1.0, 0.5], 1000)
        ones = np.ones(64)
        ensembles = [
            _payload(np.where(np.arange(64) == 5, bad, ones), algorithm=code,
                     n_trees=4, seed=1)
            for code in ("ST", "K")
            for bad in (np.inf, -np.inf, np.nan)
        ]
        requests = [
            ("/v1/reduce", _payload(x), False),
            (
                "/v1/reduce_many",
                json.dumps({"items": [{"values_b64": encode_values(x)}]}).encode(),
                False,
            ),
            ("/v1/ensemble", _payload(np.full(8, top), algorithm="ST", n_trees=4,
                                      seed=1), False),
            *(("/v1/ensemble", body, False) for body in ensembles),
        ]

        async def go(d):
            return await self._post_all(d, requests)

        def strict(token):
            raise ValueError(f"non-standard JSON constant {token}")

        outs = _run_daemon(go)
        bodies = [json.loads(body, parse_constant=strict) for _, body in outs]
        assert [status for status, _ in outs] == [200] * 3 + [400] * len(ensembles)
        single, many, overflow = bodies[:3]
        assert single["value"] is None and single["value_hex"] == "inf"
        assert many["results"][0]["value"] is None
        assert many["results"][0]["value_hex"] == "inf"
        # finite operands whose ST sums overflow: +inf trees, spread inf - inf
        assert set(overflow["values_hex"]) == {"inf"}
        assert overflow["spread"] is None
        for body in bodies[3:]:
            assert body == {"error": "payload holds a non-finite value (NaN or inf)"}

    def test_infinite_threshold_is_rejected_on_both_codecs(self):
        """A threshold that parses to inf (``1e999``) answers 400 on every
        route that takes one -- JSON item, JSON shared and the frame
        header -- instead of a 200 that would echo a bare ``Infinity``."""
        v = self.V.tolist()
        requests = [
            ("/v1/reduce", b'{"values":%s,"threshold":1e999}' % json.dumps(v).encode(),
             False),
            ("/v1/reduce_many",
             b'{"threshold":1e999,"items":[{"values":%s}]}' % json.dumps(v).encode(),
             False),
            ("/v1/reduce_many",
             b'{"items":[{"values":%s,"threshold":-1e999}]}' % json.dumps(v).encode(),
             False),
            ("/v1/reduce", _frame(self.V, threshold=np.inf), True),
            ("/v1/reduce_many", _frame(np.stack([self.V, self.V]), threshold=np.inf),
             True),
        ]

        async def go(d):
            return await self._post_all(d, requests)

        def strict(token):
            raise ValueError(f"non-standard JSON constant {token}")

        outs = _run_daemon(go)
        assert [status for status, _ in outs] == [400] * len(requests)
        messages = [json.loads(body, parse_constant=strict)["error"] for _, body in outs]
        assert messages == [
            "body.threshold must be finite",
            "items[0].threshold must be finite",
            "items[0].threshold must be >= 0",
            "body.threshold must be finite",
            "body.threshold must be finite",
        ]


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
        # every tick fired for exactly one reason
        assert sum(_flush_reasons(global_obs).values()) == hist["count"]
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
            "REPRO_WORKERS": "2",
        }
        # an explicit --workers 2 parallelises every multi-item batch, so
        # the pool + shm arenas materialise on small traffic
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
            proc.communicate()
            raise AssertionError(f"no listen banner, got {banner!r}") from None
        return proc, port

    @pytest.mark.skipif(
        not os.path.isdir("/dev/shm"), reason="needs POSIX shared memory"
    )
    def test_sigterm_drains_and_unlinks_shm(self):
        rng = np.random.default_rng(5)
        before = set(os.listdir("/dev/shm"))
        proc, port = self._spawn()
        # leaving the Popen context closes the stdout pipe on every path
        with proc:
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
                tail, _ = proc.communicate(timeout=60)
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait(timeout=30)
        rc = proc.returncode
        assert rc == 0, f"exit {rc}: {tail}"
        assert "shutdown complete" in tail
        leaked = set(os.listdir("/dev/shm")) - before
        assert not leaked, f"leaked shm segments: {sorted(leaked)}"

    def test_sigint_also_exits_cleanly(self):
        proc, port = self._spawn("--no-metrics")
        with proc:
            try:
                with urllib.request.urlopen(
                    f"http://127.0.0.1:{port}/healthz", timeout=30
                ) as resp:
                    assert resp.status == 200
            finally:
                proc.send_signal(signal.SIGINT)
                try:
                    proc.communicate(timeout=60)
                finally:
                    if proc.poll() is None:
                        proc.kill()
                        proc.wait(timeout=30)
        rc = proc.returncode
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
