"""The repro-serve asyncio daemon: HTTP routes over the micro-batcher.

One daemon owns one :class:`AdaptiveReducer` (one simulated communicator,
one worker-pool handle) and one
:class:`~repro.serve.batcher.MicroBatcher`.  The event loop only parses
sockets and JSON; every reduction executes through the batcher's single
drain task (micro-batched ``reduce_many`` in a worker thread), so client
concurrency never translates into concurrent reducer calls.  Ensemble
evaluations are already batch-shaped and run straight in the executor.

The data plane is zero-copy end to end for the binary codec
(``Content-Type: application/x-repro-frame``, :mod:`repro.serve.frames`):
request bodies accumulate into a reusable per-connection buffer, frame
payloads reach NumPy as ``memoryview``-backed arrays (no intermediate
``bytes``, no forced ``astype``), per-rank chunks are zero-copy slices of
that buffer which the selector concatenates *directly* into the worker
pool's shared-memory arena, and responses render from cached header
scaffolds into a reusable scratch buffer.  The JSON codec stays for
compatibility; codec traffic is split on
``repro_serve_codec_total{codec}`` with per-codec ingest latency.

Endpoints (JSON bodies use ``values`` or base64 ``values_b64``; the
reduce endpoints also speak the binary frame codec, see
:mod:`repro.serve.protocol` / :mod:`repro.serve.frames`):

* ``POST /v1/reduce`` — one adaptive reduction.  The global vector is
  block-scattered over the daemon's ranks (or pass explicit per-rank
  ``chunks``).  Optional ``threshold`` and ``deadline_ms``.
* ``POST /v1/reduce_many`` — a list of such items in one wire request;
  items join the same micro-batch queue individually, so they coalesce
  with other clients' traffic.
* ``POST /v1/ensemble`` — the paper's spread experiment as a service:
  ``n_trees`` permuted-leaf evaluations of one algorithm over one vector.
* ``GET /metrics`` — Prometheus text exposition of the process registry
  (``repro_*`` pipeline metrics plus the ``repro_serve_*`` family).
* ``GET /healthz`` — liveness plus queue depth.

Error mapping: queue full → 429 (with ``Retry-After``), draining → 503,
queued past deadline → 504, malformed request → 400, reducer fault → 500.

Responses carry ``value_hex`` (``float.hex``) next to ``value`` so clients
can check bitwise equality without trusting JSON float formatting —
shortest-repr round-trips exactly, but the hex form makes the contract
auditable on the wire.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
from typing import Optional, Sequence

import numpy as np

from repro.mpi.comm import SimComm
from repro.obs import get_registry
from repro.selection.selector import AdaptiveReducer, AdaptiveResult
from repro.serve.batcher import (
    BatcherClosing,
    BatcherFull,
    DeadlineExceeded,
    MicroBatcher,
)
from repro.serve.frames import (
    FRAME_CONTENT_TYPE,
    KIND_REQUEST,
    KIND_RESPONSE,
    append_frame,
    parse_frame,
    payload_array,
)
from repro.serve.protocol import (
    DEFAULT_MAX_BODY_BYTES,
    HttpError,
    decode_values,
    json_response,
    read_request,
    render_response,
    render_response_into,
)
from repro.summation.registry import get_algorithm
from repro.trees.evaluate import evaluate_ensemble
from repro.util.chunking import split_indices
from repro.util.pool import shutdown_pool

__all__ = ["ReproServeDaemon"]

_OBS = get_registry()

#: request latency histogram bounds (seconds)
_LATENCY_BUCKETS = (
    1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 1e-1, 3e-1, 1.0, 3.0, 10.0,
)

_ROUTES = {
    "/v1/reduce": "POST",
    "/v1/reduce_many": "POST",
    "/v1/ensemble": "POST",
    "/metrics": "GET",
    "/healthz": "GET",
}


class ReproServeDaemon:
    """Asyncio HTTP front end for one :class:`AdaptiveReducer`.

    ``port=0`` binds an ephemeral port (``self.port`` holds the real one
    after :meth:`start`) — the tests and the bench rely on that.  Use as an
    async context manager, or pair :meth:`start`/:meth:`stop` manually.
    ``workers`` is forwarded to ``reduce_many``/``evaluate_ensemble`` for
    multicore sharding; ``default_deadline_ms`` applies to requests that
    do not set their own ``deadline_ms``.
    """

    def __init__(
        self,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        ranks: int = 8,
        workers: "int | None" = None,
        threshold: float = 1e-13,
        max_batch: int = 64,
        max_linger_us: float = 1000.0,
        queue_size: int = 1024,
        default_deadline_ms: "float | None" = None,
        max_body_bytes: int = DEFAULT_MAX_BODY_BYTES,
        reducer: "AdaptiveReducer | None" = None,
        batching: bool = True,
    ) -> None:
        self.host = host
        self.port = int(port)
        self.workers = workers
        self.batching = bool(batching)
        if not self.batching:
            # request-at-a-time reference configuration: no coalescing, and
            # each request walks the full adaptive pipeline solo through
            # ``AdaptiveReducer.reduce`` — this is exactly the daemon one
            # would write without the micro-batching subsystem, and it is
            # the baseline the serving bench measures speedup against.
            max_batch = 1
            max_linger_us = 0.0
        self.default_deadline_ms = default_deadline_ms
        self.max_body_bytes = int(max_body_bytes)
        if reducer is not None:
            self.reducer = reducer
        else:
            self.reducer = AdaptiveReducer(SimComm(int(ranks)), threshold=threshold)
        self.batcher = MicroBatcher(
            self._reduce_batch,
            max_batch=max_batch,
            max_linger_s=max_linger_us / 1e6,
            queue_size=queue_size,
        )
        self._server: "asyncio.base_events.Server | None" = None

    # -- lifecycle ----------------------------------------------------------
    async def start(self) -> None:
        self.batcher.start()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self, *, release_pool: bool = True) -> None:
        """Stop intake, drain accepted requests, release shared resources.

        Idempotent — the SIGTERM path and the async-context exit may both
        get here.  ``release_pool`` runs :func:`repro.util.pool.shutdown_pool`
        (itself idempotent), unlinking the dispatch arenas' shared-memory
        segments so a signalled daemon leaves nothing in ``/dev/shm``.
        """
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.batcher.drain()
        if release_pool:
            shutdown_pool()

    async def __aenter__(self) -> "ReproServeDaemon":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    # -- the blocking batch executor (runs in a worker thread) --------------
    def _reduce_batch(
        self,
        items: "list[Sequence[np.ndarray]]",
        threshold: Optional[float],
    ) -> "list[AdaptiveResult]":
        try:
            if not self.batching:
                return [
                    self.reducer.reduce(chunks, threshold=threshold)
                    for chunks in items
                ]
            return self.reducer.reduce_many(
                items, threshold=threshold, workers=self.workers
            )
        finally:
            # Drop operand references *inside* the executor call, before the
            # result future resolves: chunks may be zero-copy views of a
            # connection's receive buffer, and the worker thread's own
            # work-item teardown (which would free them) races the event
            # loop reading that connection's next request.  Clearing here is
            # sequenced strictly before set_result, so by the time the
            # response goes out no thread still pins the buffer.
            items.clear()

    # -- connection handling ------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        if _OBS.enabled:
            _OBS.counter("repro_serve_connections_total").inc()
        # the connection's whole allocation story: bodies accumulate into
        # body_buf, binary response frames assemble in frame_buf, and the
        # full HTTP response renders into scratch — all three grow to the
        # connection's high-water mark once and are then reused per request
        body_buf = bytearray()
        frame_buf = bytearray()
        scratch = bytearray()
        try:
            while True:
                try:
                    request = await read_request(
                        reader, max_body=self.max_body_bytes, buffer=body_buf
                    )
                except HttpError as exc:
                    writer.write(
                        json_response(
                            {"error": exc.message}, exc.status, keep_alive=False
                        )
                    )
                    await writer.drain()
                    break
                if request is None:
                    break
                response = await self._dispatch(request, scratch, frame_buf)
                try:
                    writer.write(response)
                    await writer.drain()
                finally:
                    # asyncio socket transports copy in write(), so the
                    # scratch view can be released as soon as drain returns;
                    # both releases must happen before the next request or
                    # the buffers cannot grow (BufferError by design)
                    if isinstance(response, memoryview):
                        response.release()
                    request.release()
                if not request.keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client vanished mid-exchange; nothing to answer
        finally:
            writer.close()
            with contextlib.suppress(ConnectionError, OSError):
                await writer.wait_closed()

    async def _dispatch(
        self, request, scratch: bytearray, frame_buf: bytearray
    ) -> "bytes | memoryview":
        """Route one request; the response is a ``memoryview`` of
        ``scratch`` (released by the connection loop after the write) or
        plain ``bytes`` on the cold ``/metrics`` path."""
        loop = asyncio.get_running_loop()
        started = loop.time()
        endpoint = request.path if request.path in _ROUTES else "unknown"
        keep = request.keep_alive
        frame = None  # (header, payload array) for binary-codec 200s
        try:
            if endpoint == "unknown":
                raise HttpError(404, f"no route for {request.path!r}")
            if request.method != _ROUTES[endpoint]:
                raise HttpError(
                    405, f"{endpoint} expects {_ROUTES[endpoint]}"
                )
            binary = request.content_type == FRAME_CONTENT_TYPE
            if endpoint == "/healthz":
                status, body = self._handle_healthz()
            elif endpoint == "/metrics":
                status, body = 200, None  # rendered below (not JSON)
            elif endpoint == "/v1/reduce":
                if binary:
                    status, frame = await self._handle_reduce_binary(request)
                    body = None
                else:
                    status, body = await self._handle_reduce(request)
            elif endpoint == "/v1/reduce_many":
                if binary:
                    status, frame = await self._handle_reduce_many_binary(
                        request
                    )
                    body = None
                else:
                    status, body = await self._handle_reduce_many(request)
            else:
                if binary:
                    raise HttpError(
                        400,
                        "/v1/ensemble is JSON-only (binary frames carry "
                        "reduction payloads)",
                    )
                status, body = await self._handle_ensemble(request)
        except HttpError as exc:
            status, body, frame = exc.status, {"error": exc.message}, None
        except BatcherFull as exc:
            status, body, frame = 429, {"error": str(exc)}, None
        except BatcherClosing as exc:
            status, body, frame = 503, {"error": str(exc)}, None
        except DeadlineExceeded as exc:
            status, body, frame = 504, {"error": str(exc)}, None
        except Exception as exc:  # noqa: BLE001 - 500, never a dropped conn
            status, body, frame = 500, {"error": f"{type(exc).__name__}: {exc}"}, None
        if _OBS.enabled:
            _OBS.counter(
                "repro_serve_requests_total",
                endpoint=endpoint,
                status=str(status),
            ).inc()
            _OBS.histogram(
                "repro_serve_request_seconds",
                buckets=_LATENCY_BUCKETS,
                endpoint=endpoint,
            ).observe(loop.time() - started)
        if endpoint == "/metrics" and status == 200:
            # rendered after the request metrics above so a scrape sees itself
            text = _OBS.render_prometheus()
            return render_response(
                200,
                text.encode(),
                content_type="text/plain; version=0.0.4; charset=utf-8",
                keep_alive=keep,
            )
        render_started = loop.time()
        if frame is not None:
            header, payload = frame
            frame_buf.clear()
            append_frame(frame_buf, header, payload, kind=KIND_RESPONSE)
            out = render_response_into(
                scratch,
                status,
                frame_buf,
                content_type=FRAME_CONTENT_TYPE,
                keep_alive=keep,
            )
        else:
            extra = {"Retry-After": "1"} if status == 429 else None
            out = render_response_into(
                scratch,
                status,
                json.dumps(body, separators=(",", ":")).encode(),
                keep_alive=keep,
                extra_headers=extra,
            )
        if _OBS.enabled:
            _OBS.histogram(
                "repro_serve_render_seconds", buckets=_LATENCY_BUCKETS
            ).observe(loop.time() - render_started)
        return out

    # -- endpoint handlers ---------------------------------------------------
    def _handle_healthz(self):
        return 200, {
            "status": "draining" if self.batcher.closing else "ok",
            "ranks": self.reducer.comm.n_ranks,
            "queue_depth": self.batcher.depth,
            "batches_processed": self.batcher.batches_processed,
        }

    def _coerce_threshold(self, threshold, *, what: str) -> "float | None":
        if threshold is None:
            return None
        try:
            threshold = float(threshold)
        except (TypeError, ValueError):
            raise HttpError(400, f"{what}.threshold must be a number") from None
        if not threshold >= 0:  # also rejects NaN
            raise HttpError(400, f"{what}.threshold must be >= 0")
        return threshold

    def _coerce_deadline(self, deadline_ms, *, what: str) -> "float | None":
        """``deadline_ms`` (or the daemon default) -> seconds, or None."""
        if deadline_ms is None:
            deadline_ms = self.default_deadline_ms
        if deadline_ms is None:
            return None
        try:
            deadline_ms = float(deadline_ms)
        except (TypeError, ValueError):
            raise HttpError(400, f"{what}.deadline_ms must be a number") from None
        if not deadline_ms > 0:
            raise HttpError(400, f"{what}.deadline_ms must be > 0")
        return deadline_ms / 1e3

    def _obs_ingest(self, codec: str, seconds: float) -> None:
        """One decoded payload: codec split + wire-to-ndarray latency."""
        if _OBS.enabled:
            _OBS.counter("repro_serve_codec_total", codec=codec).inc()
            _OBS.histogram(
                "repro_serve_ingest_seconds",
                buckets=_LATENCY_BUCKETS,
                codec=codec,
            ).observe(seconds)

    def _scatter_view(self, arr: np.ndarray) -> "list[np.ndarray]":
        """Block-scatter without ``SimComm.scatter_array``'s f8 coercion.

        Frame payload slices stay zero-copy views in their wire dtype, so
        precision-aware selection sees fp16/fp32 inputs at their own unit
        roundoff instead of silently upcast copies.
        """
        return [
            arr[s] for s in split_indices(arr.size, self.reducer.comm.n_ranks)
        ]

    def _parse_item(self, obj, *, what: str):
        """One reduction item -> (chunks, threshold, deadline_s)."""
        if not isinstance(obj, dict):
            raise HttpError(400, f"{what} must be a JSON object")
        if "chunks" in obj:
            raw = obj["chunks"]
            if not isinstance(raw, list):
                raise HttpError(400, f"{what}.chunks must be a list of arrays")
            if len(raw) != self.reducer.comm.n_ranks:
                raise HttpError(
                    400,
                    f"{what}.chunks has {len(raw)} chunks for a "
                    f"{self.reducer.comm.n_ranks}-rank communicator",
                )
            chunks = []
            for i, c in enumerate(raw):
                try:
                    chunks.append(np.asarray(c, dtype=np.float64).ravel())
                except (TypeError, ValueError):
                    raise HttpError(
                        400, f"{what}.chunks[{i}] is not a flat numeric array"
                    ) from None
        else:
            values = decode_values(obj, what=what)
            chunks = self.reducer.comm.scatter_array(values)
        threshold = self._coerce_threshold(obj.get("threshold"), what=what)
        deadline_s = self._coerce_deadline(obj.get("deadline_ms"), what=what)
        return chunks, threshold, deadline_s

    @staticmethod
    def _result_meta(result: AdaptiveResult) -> dict:
        d = result.decision
        return {
            "algorithm": d.code,
            "tier": d.tier,
            "threshold": d.threshold,
            "predicted_std": float(d.predicted_std),
            "n": int(d.profile.n),
        }

    @staticmethod
    def _result_payload(result: AdaptiveResult) -> dict:
        value = float(result.value)
        return {
            "value": value,
            "value_hex": value.hex(),
            **ReproServeDaemon._result_meta(result),
        }

    async def _handle_reduce(self, request):
        loop = asyncio.get_running_loop()
        started = loop.time()
        chunks, threshold, deadline_s = self._parse_item(
            request.json(), what="body"
        )
        self._obs_ingest("json", loop.time() - started)
        future = self.batcher.submit(
            chunks, threshold=threshold, deadline_s=deadline_s
        )
        result = await future
        return 200, self._result_payload(result)

    async def _handle_reduce_binary(self, request):
        """``/v1/reduce`` over the binary frame codec (zero-copy ingest).

        The 1-D payload is sliced into per-rank views of the connection's
        receive buffer; the buffer stays pinned until this handler's future
        resolves (the connection is strictly sequential), so the views are
        valid through the whole reduction.  The response is a binary frame
        whose 8 payload bytes are the result's exact float64 bits.
        """
        loop = asyncio.get_running_loop()
        started = loop.time()
        header, payload = parse_frame(
            request.body, kind=KIND_REQUEST, what="body"
        )
        arr = payload_array(header, payload, what="body")
        if arr.ndim != 1:
            raise HttpError(
                400,
                f"body: /v1/reduce takes a 1-D frame payload, got shape "
                f"{list(arr.shape)}",
            )
        chunks = self._scatter_view(arr)
        threshold = self._coerce_threshold(header.get("threshold"), what="body")
        deadline_s = self._coerce_deadline(
            header.get("deadline_ms"), what="body"
        )
        self._obs_ingest("binary", loop.time() - started)
        result = await self.batcher.submit(
            chunks, threshold=threshold, deadline_s=deadline_s
        )
        out_header = {
            "status": 200,
            "dtype": "<f8",
            "shape": [1],
            **self._result_meta(result),
        }
        return 200, (out_header, np.asarray([result.value], dtype="<f8"))

    async def _handle_reduce_many_binary(self, request):
        """``/v1/reduce_many`` over the binary frame codec.

        The payload is a 2-D ``[items, n]`` matrix; each row scatters into
        zero-copy per-rank views and the rows join the micro-batch queue
        individually (all-or-nothing, like the JSON path).  The response
        payload is the float64 result vector in row order.
        """
        loop = asyncio.get_running_loop()
        started = loop.time()
        header, payload = parse_frame(
            request.body, kind=KIND_REQUEST, what="body"
        )
        arr = payload_array(header, payload, what="body")
        if arr.ndim != 2:
            raise HttpError(
                400,
                f"body: /v1/reduce_many takes a 2-D [items, n] frame "
                f"payload, got shape {list(arr.shape)}",
            )
        threshold = self._coerce_threshold(header.get("threshold"), what="body")
        deadline_s = self._coerce_deadline(
            header.get("deadline_ms"), what="body"
        )
        items = [self._scatter_view(row) for row in arr]
        self._obs_ingest("binary", loop.time() - started)
        if not items:
            empty = np.empty(0, dtype="<f8")
            return 200, (
                {"status": 200, "dtype": "<f8", "shape": [0], "results": []},
                empty,
            )
        futures = self.batcher.submit_many(
            items, threshold=threshold, deadline_s=deadline_s
        )
        results = await asyncio.gather(*futures)
        values = np.asarray([r.value for r in results], dtype="<f8")
        out_header = {
            "status": 200,
            "dtype": "<f8",
            "shape": [len(results)],
            "results": [self._result_meta(r) for r in results],
        }
        return 200, (out_header, values)

    async def _handle_reduce_many(self, request):
        loop = asyncio.get_running_loop()
        started = loop.time()
        body = request.json()
        if not isinstance(body, dict) or not isinstance(body.get("items"), list):
            raise HttpError(400, "body needs an 'items' list")
        items = body["items"]
        shared_threshold = body.get("threshold")
        parsed = []
        for i, obj in enumerate(items):
            if (
                shared_threshold is not None
                and isinstance(obj, dict)
                and "threshold" not in obj
            ):
                obj = {**obj, "threshold": shared_threshold}
            parsed.append(self._parse_item(obj, what=f"items[{i}]"))
        self._obs_ingest("json", loop.time() - started)
        if not parsed:
            return 200, {"results": []}
        # all-or-nothing capacity check up front (no awaits between here and
        # the submits, so the event loop cannot interleave another producer):
        # a wire batch either fully enqueues or is fully rejected with 429
        if self.batcher.depth + len(parsed) > self.batcher.queue_size:
            raise BatcherFull(
                f"queue at {self.batcher.depth}/{self.batcher.queue_size} "
                f"cannot take {len(parsed)} more request(s)"
            )
        futures: "list[asyncio.Future | None]" = [None] * len(parsed)
        groups: "dict[tuple, list[int]]" = {}
        for i, (_, threshold, deadline_s) in enumerate(parsed):
            groups.setdefault((threshold, deadline_s), []).append(i)
        for (threshold, deadline_s), idxs in groups.items():
            futs = self.batcher.submit_many(
                [parsed[i][0] for i in idxs],
                threshold=threshold,
                deadline_s=deadline_s,
            )
            for i, fut in zip(idxs, futs):
                futures[i] = fut
        results = await asyncio.gather(*futures)
        return 200, {"results": [self._result_payload(r) for r in results]}

    async def _handle_ensemble(self, request):
        loop = asyncio.get_running_loop()
        started = loop.time()
        body = request.json()
        data = decode_values(body, what="body")
        self._obs_ingest("json", loop.time() - started)
        try:
            algorithm = get_algorithm(str(body.get("algorithm", "")))
        except KeyError:
            raise HttpError(
                400, f"unknown algorithm {body.get('algorithm')!r}"
            ) from None
        shape = body.get("shape", "balanced")
        if shape not in ("balanced", "serial"):
            raise HttpError(400, "shape must be 'balanced' or 'serial'")
        try:
            n_trees = int(body.get("n_trees", 0))
        except (TypeError, ValueError):
            raise HttpError(400, "n_trees must be an integer") from None
        if not 1 <= n_trees <= 1 << 20:
            raise HttpError(400, "n_trees must be in [1, 1048576]")
        seed = body.get("seed")
        if seed is not None:
            try:
                seed = int(seed)
            except (TypeError, ValueError):
                raise HttpError(400, "seed must be an integer") from None
        try:
            values = await loop.run_in_executor(
                None,
                lambda: evaluate_ensemble(
                    data, shape, algorithm, n_trees, seed=seed,
                    workers=self.workers,
                ),
            )
        except ValueError as exc:
            raise HttpError(400, str(exc)) from None
        spread = float(values.max() - values.min())
        return 200, {
            "values_hex": [float(v).hex() for v in values],
            "spread": spread,
            "distinct": int(np.unique(values).size),
            "algorithm": algorithm.code,
            "n_trees": n_trees,
        }
