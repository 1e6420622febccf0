"""The tick block: every ``reduce_many`` route against the per-item reference.

``reduce_many`` reads a whole tick through one pointer table
(:mod:`repro.util.tickblock`): rows scattered from one aligned float64 row
in place, every other input copied once.  These tests pin values, decision
codes and all six sketch planes bitwise against the per-item reference
(``profile_stream`` + ``SimComm.reduce`` of each item on its own) for every
input layout and every route, and which inputs take the copy path.
"""

from __future__ import annotations

import asyncio
import pickle

import numpy as np
import pytest

from repro.mpi import SimComm
from repro.mpi.ops import make_reduction_op
from repro.obs import get_registry
from repro.selection import AdaptiveReducer
from repro.selection._statskernel import SKETCH_COLUMNS
from repro.selection.bound_tier import item_unit_roundoff
from repro.selection.profile import profile_batch, profile_stream
from repro.serve import ReproServeDaemon
from repro.serve.frames import (
    FRAME_CONTENT_TYPE,
    KIND_REQUEST,
    KIND_RESPONSE,
    encode_frame,
    parse_frame,
    payload_array,
)
from repro.serve.protocol import KeepAliveClient
from repro.summation.registry import get_algorithm
from repro.util.tickblock import ScatteredRow, TickBlock, TickLayout

RANKS = 6
THRESHOLD = 1e-13


def _values(seed: int, n: int) -> np.ndarray:
    """Summands spanning the ST/K/CP/PR regimes (every fourth sums to 0)."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(n) * 10.0 ** rng.integers(-9, 9, size=n)
    if seed % 4 == 0:
        v = np.concatenate([v[: n // 2], -v[: n // 2], v[n // 2 * 2 :] * 0.0])
    return v


def _unaligned(values: np.ndarray) -> np.ndarray:
    buf = bytearray(8 * values.size + 1)
    out = np.frombuffer(buf, dtype=np.float64, count=values.size, offset=1)
    out[:] = values
    assert not out.flags.aligned
    return out


def _layouts() -> dict:
    """Item streams of every input layout, keyed by name."""
    comm = SimComm(RANKS)
    vs = [_values(seed, 96) for seed in range(8)]
    return {
        "scattered_f8": [comm.scatter_array(v) for v in vs],
        "plain_lists": [[c.copy() for c in comm.scatter_array(v)] for v in vs],
        "python_floats": [[c.tolist() for c in comm.scatter_array(v)] for v in vs[:3]],
        "fp32_views": [ScatteredRow(v.astype(np.float32), RANKS) for v in vs],  # repro: allow[FP005] -- fp32 wire rows are the input under test
        "fp16_views": [ScatteredRow((v / 1e6).astype(np.float16), RANKS) for v in vs],  # repro: allow[FP005] -- fp16 wire rows are the input under test
        "ragged_widths": [comm.scatter_array(_values(s, 3 + 37 * s)) for s in range(8)],
        "empty_chunks": [
            [np.empty(0), vs[0][:5], np.empty(0), vs[1][:9], np.empty(0), np.empty(0)],
            comm.scatter_array(vs[2][:4]),
            comm.scatter_array(np.empty(0)),
        ],
        "unaligned": [ScatteredRow(_unaligned(v), RANKS) for v in vs],
    }


def _bits(x: float) -> str:
    return float(x).hex()


def _reference(items) -> "tuple[list, list, list]":
    """Per-item values, codes and sketches: ``profile_stream`` plus one
    ``SimComm.reduce`` of each item on its own."""
    comm = SimComm(RANKS)
    reducer = AdaptiveReducer(comm, threshold=THRESHOLD)
    values, codes, sketches = [], [], []
    for chunks in items:
        sketch = profile_stream(chunks)
        decision = reducer.policy.select(
            sketch.as_set_profile(), THRESHOLD, u=item_unit_roundoff(chunks)
        )
        op = make_reduction_op(get_algorithm(decision.code))
        values.append(_bits(comm.reduce(chunks, op).value))
        codes.append(decision.code)
        sketches.append(sketch)
    return values, codes, sketches


def _assert_sketches_equal(got, want) -> None:
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.n == b.n
        for field in SKETCH_COLUMNS:
            assert _bits(getattr(a, field)) == _bits(getattr(b, field)), field


LAYOUTS = sorted(_layouts())


class TestRoutesMatchPerItemReference:
    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("workers", [None, 1, 2])
    def test_values_codes_and_sketches(self, layout, workers):
        items = _layouts()[layout]
        want_values, want_codes, want_sketches = _reference(items)
        reducer = AdaptiveReducer(SimComm(RANKS), threshold=THRESHOLD)
        results = reducer.reduce_many(items, workers=workers)
        assert [_bits(r.value) for r in results] == want_values
        assert [r.decision.code for r in results] == want_codes
        _assert_sketches_equal(profile_batch(TickBlock.of(items)), want_sketches)

    def test_mixed_layouts_in_one_tick(self):
        layouts = _layouts()
        items = [item for name in LAYOUTS for item in layouts[name]]
        want_values, want_codes, _ = _reference(items)
        reducer = AdaptiveReducer(SimComm(RANKS), threshold=THRESHOLD)
        results = reducer.reduce_many(items, workers=1)
        assert [_bits(r.value) for r in results] == want_values
        assert [r.decision.code for r in results] == want_codes

    def test_unit_roundoff_from_the_input_dtype(self):
        for name, items in _layouts().items():
            assert TickLayout(items).us == [item_unit_roundoff(c) for c in items], name

    @pytest.mark.parametrize("dtype", ["<f8", "<f4", "<f2"])
    def test_served_binary_frames(self, dtype):
        vs = [_values(seed, 96) for seed in range(8)]
        mat = np.ascontiguousarray(np.stack(vs) / 1e6, dtype=dtype)
        want_values, want_codes, _ = _reference([ScatteredRow(row, RANKS) for row in mat])
        header = {"dtype": mat.dtype.str, "shape": list(mat.shape), "threshold": THRESHOLD}

        async def run():
            async with ReproServeDaemon(ranks=RANKS, workers=1) as daemon:
                async with KeepAliveClient(daemon.host, daemon.port) as client:
                    r = await client.request(
                        "POST",
                        "/v1/reduce_many",
                        encode_frame(header, mat, kind=KIND_REQUEST),
                        content_type=FRAME_CONTENT_TYPE,
                    )
                    assert r.status == 200, bytes(r.body)
                    head, payload = parse_frame(bytes(r.body), kind=KIND_RESPONSE)
                    return head, payload_array(head, payload).copy()

        head, values = asyncio.run(run())
        assert [_bits(v) for v in values] == want_values
        assert [res["algorithm"] for res in head["results"]] == want_codes


class TestConstructors:
    def test_only_aligned_f8_scatters_read_in_place(self):
        layouts = _layouts()
        for name, items in layouts.items():
            direct = TickLayout(items).direct
            if name in ("scattered_f8", "ragged_widths"):
                assert all(direct), name
            elif name == "empty_chunks":
                assert direct == [False, True, True]
            else:
                assert not any(direct), name

    def test_zero_copy_rows_are_the_callers_memory(self):
        comm = SimComm(RANKS)
        items = [comm.scatter_array(_values(s, 50)) for s in range(3)]
        block = TickBlock.of(items)
        for row, item in zip(block.rows, items):
            assert row is item.row
        starts = np.array([c.ctypes.data for item in items for c in item], dtype=np.uintp)
        assert np.array_equal(block.ptrs, starts)

    def test_copy_counter_counts_one_copy_per_copied_operand(self):
        reg = get_registry()
        reg.reset()
        reg.enable()
        try:
            layouts = _layouts()
            TickBlock.of(layouts["scattered_f8"])
            assert "repro_tick_copied_bytes_total" not in reg.snapshot()["counters"]
            items = layouts["plain_lists"] + layouts["fp32_views"]
            TickBlock.of(items)
            (sample,) = reg.snapshot()["counters"]["repro_tick_copied_bytes_total"]
            assert sample["labels"] == {"reason": "pack"}
            assert sample["value"] == 8 * TickLayout(items).n_values
        finally:
            reg.disable()
            reg.reset()

    def test_arena_counter_counts_every_operand_once(self):
        reg = get_registry()
        reg.reset()
        reg.enable()
        try:
            items = _layouts()["scattered_f8"] + _layouts()["plain_lists"]
            AdaptiveReducer(SimComm(RANKS), threshold=THRESHOLD).reduce_many(
                items, workers=2
            )
            (sample,) = reg.snapshot()["counters"]["repro_tick_copied_bytes_total"]
            assert sample["labels"] == {"reason": "arena"}
            assert sample["value"] == 8 * TickLayout(items).n_values
        finally:
            reg.disable()
            reg.reset()

    def test_take_gathers_the_table_not_the_operands(self):
        comm = SimComm(RANKS)
        items = [comm.scatter_array(_values(s, 40 + s)) for s in range(5)]
        block = TickBlock.of(items)
        sub = block.take([3, 1])
        assert [r is items[i].row for r, i in zip(sub.rows, (3, 1))] == [True, True]
        assert sub.chunks()[2].tobytes() == items[3][2].tobytes()
        assert np.array_equal(sub.ptrs, np.concatenate([block.ptrs[18:24], block.ptrs[6:12]]))
        assert block.take(range(5)) is block


class TestScatteredRow:
    def test_is_a_sequence_of_views_of_the_row(self):
        row = np.arange(20.0)
        chunks = SimComm(RANKS).scatter_array(row)
        assert isinstance(chunks, ScatteredRow) and not isinstance(chunks, list)
        assert len(chunks) == RANKS
        views = list(chunks)
        assert np.array_equal(np.concatenate(views), row)
        assert all(np.shares_memory(c, chunks.row) for c in views if c.size)
        assert [c.tobytes() for c in views] == [chunks[r].tobytes() for r in range(RANKS)]

    def test_item_assignment_raises(self):
        chunks = SimComm(RANKS).scatter_array(np.arange(20.0))
        with pytest.raises(TypeError):
            chunks[1] = np.ones(3)

    def test_pickle_keeps_row_and_rank_count(self):
        chunks = SimComm(RANKS).scatter_array(_values(3, 20))
        other = pickle.loads(pickle.dumps(chunks))
        assert type(other) is ScatteredRow
        assert other.row.tobytes() == chunks.row.tobytes()
        assert len(other) == RANKS

    def test_a_scatter_is_read_in_place(self):
        chunks = SimComm(RANKS).scatter_array(np.arange(20.0))
        assert TickLayout([chunks]).direct == [True]


def _plain_list(comm, v):
    return [c.copy() for c in comm.scatter_array(v)]


def _scattered(comm, v):
    return comm.scatter_array(v)


class TestSingleReduceCopies:
    """``AdaptiveReducer.reduce`` runs on one tick block, on the fixed-tree
    and the arrival-order route alike: a plain list is copied once, an f8
    scatter not at all."""

    @pytest.mark.parametrize(
        "make, nbytes, nondeterministic",
        [
            (_plain_list, 8 * 1024, False),
            (_scattered, 0, False),
            (_plain_list, 8 * 1024, True),
            (_scattered, 0, True),
        ],
        ids=["plain_list", "scattered_f8", "plain_list_arrival", "scattered_f8_arrival"],
    )
    def test_pack_bytes(self, make, nbytes, nondeterministic):
        comm = SimComm(8)
        chunks = make(comm, _values(1, 8 * 128))
        reg = get_registry()
        reg.reset()
        reg.enable()
        try:
            AdaptiveReducer(comm, threshold=THRESHOLD).reduce(
                chunks, nondeterministic=nondeterministic
            )
            samples = reg.snapshot()["counters"].get("repro_tick_copied_bytes_total", [])
        finally:
            reg.disable()
            reg.reset()
        assert sum(x["value"] for x in samples if x["labels"] == {"reason": "pack"}) == nbytes
