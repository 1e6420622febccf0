"""Host-side parallelism for grid sweeps.

The (k, dr) / (n, dr) / (n, k) grid experiments of Sec. V.C evaluate hundreds
of cells, each of which sums a set over ~1000 permuted reduction trees.  Cells
are independent, so we fan them out over the process-global persistent pool
of :mod:`repro.util.pool` — repeated sweeps (the runner's ``run all`` path
executes four grid experiments back to back) reuse warm workers instead of
paying ``ProcessPoolExecutor`` startup per call.  Workers receive plain
picklable payloads (integer seeds, parameter tuples) — never live
generators — so results are bitwise identical regardless of pool size.

``REPRO_WORKERS`` is read on every call, so a runner can change the worker
count between sweeps.
"""

from __future__ import annotations

from typing import Callable, Iterable, TypeVar

from repro.util.pool import default_workers, get_pool, in_worker

T = TypeVar("T")
R = TypeVar("R")

__all__ = ["default_workers", "map_parallel"]


def map_parallel(
    fn: Callable[[T], R],
    items: Iterable[T],
    *,
    workers: int | None = None,
    chunksize: int | None = None,
) -> list[R]:
    """Map ``fn`` over ``items``, in-process when small or when ``workers<=1``.

    Accepts any iterable (materialised exactly once), falls back to a serial
    loop for short item lists where dispatch overhead would dominate, and
    always preserves input order in the result list.  Parallel runs go
    through the persistent :func:`repro.util.pool.get_pool` pool, so
    back-to-back sweeps stop paying per-call executor construction.

    When ``chunksize`` is ``None`` it is derived as
    ``max(1, len(items) // (workers * 4))``: large enough that many small
    grid cells amortise the per-item IPC round trip, small enough (~4 chunks
    of slack per worker) that uneven cell costs still balance.  Pass an
    explicit integer to override.
    """
    items = list(items)
    workers = default_workers() if workers is None else workers
    # nested dispatch inside a pool worker deadlocks the executors at exit
    if workers <= 1 or len(items) <= 2 or in_worker():
        return [fn(item) for item in items]
    if chunksize is None:
        chunksize = max(1, len(items) // (workers * 4))
    return get_pool(workers).map(fn, items, chunksize=chunksize, path="map")
