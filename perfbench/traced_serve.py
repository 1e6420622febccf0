"""``repro-serve`` with span tracing around its layers' public calls.

Usage: ``python perfbench/traced_serve.py SPANS_OUT [repro-serve args...]``.

Runs the production CLI unchanged after wrapping, from outside, the calls
each layer makes into the next: request dispatch and frame codec
(``serve``), queue wait and batch execution (``batcher``), profiling and
policy queries (``selection``), scatter and rank reductions (``mpi``).
Spans stay in memory and are written to ``SPANS_OUT`` after the daemon
drains on SIGTERM.

Spans in the executor thread cannot see the request that queued their
items, so the batch-execution span is tagged with the request ids of the
items it carries (matched by object identity at submit time).
"""

from __future__ import annotations

import sys
import threading
import time

from spans import Tracer


def install(tracer: Tracer) -> None:
    import repro.mpi.comm as comm
    import repro.selection.policy as policy
    import repro.selection.selector as selector
    import repro.serve.batcher as batcher
    import repro.serve.daemon as daemon

    daemon_cls = daemon.ReproServeDaemon
    daemon_cls._dispatch = tracer.wrap_async(
        daemon_cls._dispatch, "serve.dispatch", new_request=True
    )

    parse_frame = daemon.parse_frame

    def parse_frame_naming_request(body, **kwargs):
        header, payload = parse_frame(body, **kwargs)
        rid = header.get("rid")
        if isinstance(rid, str):
            tracer.set_request(rid)
        return header, payload

    daemon.parse_frame = tracer.wrap(parse_frame_naming_request, "serve.parse_frame")
    daemon.payload_array = tracer.wrap(daemon.payload_array, "serve.payload_array")
    daemon.append_frame = tracer.wrap(daemon.append_frame, "serve.append_frame")
    daemon.render_response_into = tracer.wrap(
        daemon.render_response_into, "serve.render"
    )
    daemon_cls._scatter_view = tracer.wrap(daemon_cls._scatter_view, "mpi.scatter")

    # queue wait per item, and which requests each executed batch carried
    owners: "dict[int, str]" = {}
    owners_lock = threading.Lock()
    submit_many = batcher.MicroBatcher.submit_many

    def traced_submit_many(self, items, **kwargs):
        futures = submit_many(self, items, **kwargs)
        frame = tracer.current()
        rid = frame.rid[0] if frame is not None else None
        parent = frame.sid if frame is not None else None
        start = time.perf_counter()
        with owners_lock:
            for item in items:
                owners[id(item)] = rid or ""

        def done(_fut) -> None:
            tracer.record(
                "batcher.wait", start, time.perf_counter(), parent=parent, rid=rid
            )

        for fut in futures:
            fut.add_done_callback(done)
        return futures

    batcher.MicroBatcher.submit_many = traced_submit_many

    def carried_requests(self, items, threshold) -> str:
        with owners_lock:
            return ",".join(owners.pop(id(item), "") for item in items)

    daemon_cls._reduce_batch = tracer.wrap(
        daemon_cls._reduce_batch,
        "batcher.execute",
        items=lambda self, items, threshold: len(items),
        tag=carried_requests,
    )

    reducer_cls = selector.AdaptiveReducer
    reducer_cls.reduce_many = tracer.wrap(
        reducer_cls.reduce_many,
        "selection.reduce_many",
        items=lambda self, batches, **kw: len(batches),
    )
    selector.profile_batch = tracer.wrap(
        selector.profile_batch,
        "selection.profile_batch",
        items=lambda batches: len(batches),
    )
    policy.AnalyticPolicy.select = tracer.wrap(
        policy.AnalyticPolicy.select, "selection.select"
    )
    comm.SimComm.reduce_batch = tracer.wrap(
        comm.SimComm.reduce_batch,
        "mpi.reduce_batch",
        items=lambda self, batches, op, *a, **kw: len(batches),
        tag=lambda self, batches, op, *a, **kw: op.code,
    )
    comm.SimComm.reduce = tracer.wrap(
        comm.SimComm.reduce,
        "mpi.reduce",
        tag=lambda self, chunks, op, *a, **kw: op.code,
    )


def main(argv: "list[str]") -> int:
    spans_out, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    from repro.serve.cli import main as serve_main

    try:
        return serve_main(cli_args)
    finally:
        tracer.dump(spans_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
