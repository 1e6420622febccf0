"""repro.serve — the network serving front end.

The batched selection/reduction engine
(:meth:`repro.selection.selector.AdaptiveReducer.reduce_many`) pays off
when it sits in front of concurrent traffic.  This package is that front
end, on stdlib ``asyncio`` with a minimal HTTP/1.1 layer:

* :mod:`repro.serve.protocol` — wire parsing/rendering (reusable
  per-connection receive buffers, cached response-header scaffolds) plus
  the async clients of the tests and the serving bench;
* :mod:`repro.serve.frames` — the ``application/x-repro-frame`` binary
  codec, whose payload bytes reach NumPy as zero-copy views of the
  receive buffer (JSON stays for compatibility);
* :mod:`repro.serve.batcher` — the dynamic micro-batcher: a bounded queue
  drained into one ``reduce_many`` call per tick, with per-request
  deadlines, backpressure, and a graceful drain;
* :mod:`repro.serve.daemon` — the HTTP daemon: ``POST /v1/reduce_many``,
  ``POST /v1/reduce`` (its one-item case), ``POST /v1/ensemble``,
  ``GET /metrics`` (Prometheus text) and ``GET /healthz``;
* :mod:`repro.serve.cli` — the ``repro-serve`` entry point, whose
  SIGTERM/SIGINT handling drains in-flight requests and releases the
  worker pool's shared-memory arenas.

Every response value is bitwise-identical to a standalone
:meth:`AdaptiveReducer.reduce` of the same payload — micro-batching changes
*cost*, never *results*.
"""

from repro.serve.batcher import (
    BatcherClosing,
    BatcherFull,
    DeadlineExceeded,
    MicroBatcher,
)
from repro.serve.daemon import ReproServeDaemon
from repro.serve.frames import FRAME_CONTENT_TYPE, encode_frame, parse_frame
from repro.serve.protocol import KeepAliveClient

__all__ = [
    "MicroBatcher",
    "BatcherFull",
    "BatcherClosing",
    "DeadlineExceeded",
    "ReproServeDaemon",
    "FRAME_CONTENT_TYPE",
    "encode_frame",
    "parse_frame",
    "KeepAliveClient",
]
