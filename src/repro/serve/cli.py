"""``repro-serve``: run the serving daemon from the command line.

Beyond argument plumbing, this module owns the process-lifetime concern
the library cannot: **signal-driven shutdown**.  The worker pool's
shared-memory arenas are unlinked by an ``atexit`` hook, but ``atexit``
only runs on normal interpreter exit — a SIGTERM (the way every container
runtime and init system stops a service) would previously kill the
process with the ``/dev/shm`` segments still linked, leaking them until
reboot.  The CLI installs SIGTERM/SIGINT handlers on the event loop that
(1) stop accepting connections, (2) drain every accepted request through
the micro-batcher, then (3) call the idempotent
:func:`repro.util.pool.shutdown_pool`, and finally exits 0.

Metrics are enabled by default here (unlike the library, where
observability is opt-in): a serving daemon without ``/metrics`` is blind.
Pass ``--no-metrics`` to run with the registry disabled.
"""

from __future__ import annotations

import argparse
import asyncio
import signal
import sys

from repro.obs import get_registry
from repro.serve.daemon import ReproServeDaemon

__all__ = ["build_parser", "main"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description=(
            "Serve adaptive reproducible reductions over HTTP with dynamic "
            "micro-batching (POST /v1/reduce, /v1/reduce_many, /v1/ensemble; "
            "GET /metrics, /healthz).  /v1/reduce is /v1/reduce_many of one "
            "item; both speak JSON and the zero-copy binary frame codec "
            "(Content-Type: application/x-repro-frame).  A NaN or inf "
            "operand answers 400 and fails only its own request."
        ),
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=8077,
        help="listen port; 0 binds an ephemeral port (default: %(default)s)",
    )
    parser.add_argument(
        "--ranks", type=int, default=8,
        help="simulated communicator size global vectors scatter over "
        "(default: %(default)s)",
    )
    parser.add_argument(
        "--workers", type=int, default=None,
        help="worker processes for reduce_many/ensemble sharding "
        "(default: adaptive cutover via REPRO_WORKERS/cpu count)",
    )
    parser.add_argument(
        "--threshold", type=float, default=1e-13,
        help="default reproducibility threshold when a request sets none "
        "(default: %(default)s)",
    )
    parser.add_argument(
        "--max-batch", type=int, default=64,
        help="max requests coalesced into one reduce_many tick; "
        "--max-batch 1 --max-linger-us 0 serves request-at-a-time "
        "(default: %(default)s)",
    )
    parser.add_argument(
        "--max-linger-us", type=float, default=1000.0,
        help="upper bound, in microseconds, on how long the first request "
        "of a tick waits for companions; a tick fires as soon as no open "
        "connection can add to it (default: %(default)s)",
    )
    parser.add_argument(
        "--queue-size", type=int, default=1024,
        help="bounded queue capacity; overflow answers 429 "
        "(default: %(default)s)",
    )
    parser.add_argument(
        "--deadline-ms", type=float, default=None,
        help="default per-request deadline; requests queued longer answer "
        "504 (default: none)",
    )
    parser.add_argument(
        "--max-body-bytes", type=int, default=None,
        help="request body cap in bytes; oversized bodies answer 413 "
        "(default: 64 MiB)",
    )
    parser.add_argument(
        "--no-metrics", action="store_true",
        help="leave the observability registry disabled (/metrics serves "
        "an empty exposition)",
    )
    return parser


async def _serve(daemon: ReproServeDaemon) -> None:
    loop = asyncio.get_running_loop()
    stop = asyncio.Event()
    installed: "list[signal.Signals]" = []
    for sig in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(sig, stop.set)
            installed.append(sig)
        except NotImplementedError:  # pragma: no cover - non-POSIX loop
            signal.signal(sig, lambda *_: loop.call_soon_threadsafe(stop.set))
    await daemon.start()
    print(
        f"repro-serve: listening on http://{daemon.host}:{daemon.port} "
        f"(ranks={daemon.reducer.comm.n_ranks}, "
        f"max_batch={daemon.batcher.max_batch}, "
        f"linger={daemon.batcher.max_linger_s * 1e6:.0f}us)",
        flush=True,
    )
    try:
        await stop.wait()
        print("repro-serve: draining in-flight requests ...", flush=True)
        # stop() closes the listener, flushes the batcher queue, and runs
        # shutdown_pool() so the shm arenas are unlinked before exit
        await daemon.stop()
        print("repro-serve: shutdown complete", flush=True)
    finally:
        for sig in installed:
            loop.remove_signal_handler(sig)


def main(argv: "list[str] | None" = None) -> int:
    args = build_parser().parse_args(argv)
    if not args.no_metrics:
        get_registry().enable()
    daemon_kwargs = dict(
        host=args.host,
        port=args.port,
        ranks=args.ranks,
        workers=args.workers,
        threshold=args.threshold,
        max_batch=args.max_batch,
        max_linger_us=args.max_linger_us,
        queue_size=args.queue_size,
        default_deadline_ms=args.deadline_ms,
    )
    if args.max_body_bytes is not None:
        daemon_kwargs["max_body_bytes"] = args.max_body_bytes
    daemon = ReproServeDaemon(**daemon_kwargs)
    try:
        asyncio.run(_serve(daemon))
    except KeyboardInterrupt:  # pragma: no cover - non-loop signal delivery
        pass
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised as a subprocess
    sys.exit(main())
