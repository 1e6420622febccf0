"""Shared utilities: seeded RNG plumbing, timing, chunking, process pools."""

from repro.util.chunking import iter_chunks, safe_block_len, split_indices
from repro.util.parallel import default_workers, map_parallel
from repro.util.pool import (
    WorkerPool,
    get_pool,
    in_worker,
    parallel_cutover,
    pool_info,
    shard_plan,
    shutdown_pool,
)
from repro.util.rng import SeedLike, derive_seed, permutation_stream, resolve_rng, spawn
from repro.util.timing import Stopwatch, TimingResult, time_callable

__all__ = [
    "SeedLike",
    "Stopwatch",
    "TimingResult",
    "WorkerPool",
    "default_workers",
    "derive_seed",
    "get_pool",
    "in_worker",
    "iter_chunks",
    "map_parallel",
    "parallel_cutover",
    "permutation_stream",
    "pool_info",
    "resolve_rng",
    "safe_block_len",
    "shard_plan",
    "shutdown_pool",
    "spawn",
    "split_indices",
    "time_callable",
]
