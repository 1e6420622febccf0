"""Tests for the benchmark's own logic.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import refclock  # noqa: E402
import serve_wl  # noqa: E402
import spans  # noqa: E402
import stats  # noqa: E402


# -- tail percentile ------------------------------------------------------------


def test_tail_leaves_exactly_ten_samples_beyond():
    values = list(range(100))
    t = stats.tail(values)
    assert t.value == 89
    assert sum(v > t.value for v in values) == 10
    assert t.percentile == pytest.approx(90.0)
    assert (t.samples, t.beyond) == (100, 10)


def test_tail_is_order_free_and_uses_the_highest_qualifying_rank():
    values = [5.0, 1.0, 4.0, 2.0, 3.0] * 4  # 20 samples, ties included
    t = stats.tail(values)
    ordered = sorted(values)
    assert t.value == ordered[9]
    assert t.percentile == pytest.approx(50.0)


def test_tail_with_too_few_samples_falls_back_to_the_maximum():
    t = stats.tail([3.0, 1.0, 2.0])
    assert (t.value, t.percentile, t.beyond) == (3.0, 100.0, 0)
    with pytest.raises(ValueError):
        stats.tail([])


def test_grouped_tail_is_the_median_of_group_tails():
    # 1000 samples in time order: five groups of 200, one with a stall
    groups = [list(range(200)) for _ in range(5)]
    groups[2] = [v + 1000 for v in groups[2]]
    t = stats.grouped_tail([v for g in groups for v in g])
    assert t.groups == 5
    assert t.value == 189  # the stalled group's tail (1189) is outvoted
    assert t.percentile == pytest.approx(95.0)
    assert (t.samples, t.beyond) == (1000, 10)


def test_grouped_tail_keeps_short_runs_whole_and_folds_remainders():
    values = list(range(150))
    assert stats.grouped_tail(values) == stats.tail(values)
    t = stats.grouped_tail(list(range(450)))  # groups of 200 and 250
    assert t.groups == 2
    assert t.value == stats.median([189, 439])


# -- normalisation ----------------------------------------------------------------


def test_window_reference_is_the_mean_of_both_sides():
    w = refclock.Window(items=10, seconds=1.0, ref_before=0.002, ref_after=0.004)
    assert w.ref == pytest.approx(0.003)
    assert refclock.normalise(0.006, w) == pytest.approx(2.0)


def test_throughput_weights_each_window_by_its_own_reference():
    fast = refclock.Window(items=100, seconds=1.0, ref_before=0.01, ref_after=0.01)
    slow = refclock.Window(items=100, seconds=2.0, ref_before=0.02, ref_after=0.02)
    raw, norm = refclock.throughput([fast, slow])
    assert raw == pytest.approx(200 / 3.0)
    # both windows did 100 items in 100 reference units: the drift cancels
    assert norm == pytest.approx(1.0)


def test_throughput_rejects_empty_windows():
    with pytest.raises(ValueError):
        refclock.throughput([refclock.Window(0, 0.0, 1.0, 1.0)])


def test_reference_clock_measures_a_positive_time():
    assert refclock.ReferenceClock().measure() > 0


# -- spans --------------------------------------------------------------------------


def _span(sid, parent, start, end, name="x.y"):
    return spans.Span(sid, parent, None, name, start, end)


def test_self_time_subtracts_the_union_of_children():
    recorded = [
        _span(1, None, 0.0, 10.0),
        _span(2, 1, 1.0, 4.0),
        _span(3, 1, 3.0, 5.0),  # overlaps the first child
        _span(4, 1, 9.0, 12.0),  # runs past the parent's end
        _span(5, 2, 1.5, 2.0),  # a grandchild does not count for span 1
    ]
    own = spans.self_times(recorded)
    assert own[1] == pytest.approx(10.0 - 4.0 - 1.0)
    assert own[2] == pytest.approx(3.0 - 0.5)
    assert own[5] == pytest.approx(0.5)


def test_tracer_links_parents_and_shares_request_ids():
    tracer = spans.Tracer()

    def inner():
        tracer.set_request("r-7")
        return 1

    traced_inner = tracer.wrap(inner, "mpi.inner")
    outer = tracer.wrap(lambda: traced_inner() + 1, "serve.outer", new_request=True)
    assert outer() == 2
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["mpi.inner"].parent == by_name["serve.outer"].sid
    assert by_name["serve.outer"].parent is None
    assert {s.rid for s in tracer.spans} == {"r-7"}
    assert by_name["mpi.inner"].layer == "mpi"
    shares = spans.self_share_by_layer(tracer.spans)
    assert set(shares) == {"serve", "mpi"}
    assert sum(shares.values()) == pytest.approx(1.0)


def test_layer_shares_skip_waiting_spans_but_still_subtract_them():
    recorded = [
        _span(1, None, 0.0, 10.0, "serve.dispatch"),
        _span(2, 1, 2.0, 8.0, "batcher.wait"),
        _span(3, None, 3.0, 6.0, "selection.reduce_many"),
        _span(4, 3, 4.0, 5.0, "mpi.reduce"),
    ]
    shares = spans.self_share_by_layer(recorded, skip=("batcher.wait",))
    # serve 4 (10 minus the 6 it waited), selection 2, mpi 1
    assert shares == pytest.approx({"serve": 4 / 7, "selection": 2 / 7, "mpi": 1 / 7})


def test_tracer_records_a_span_when_the_call_raises(tmp_path):
    tracer = spans.Tracer()

    def boom():
        raise RuntimeError("x")

    with pytest.raises(RuntimeError):
        tracer.wrap(boom, "exact.boom")()
    path = tmp_path / "spans.json"
    tracer.dump(str(path))
    assert [s.name for s in spans.load(str(path))] == ["exact.boom"]


# -- failure counting -------------------------------------------------------------


def test_tally_counts_and_demotes():
    t = stats.Tally()
    t.ok(5)
    t.fail("http_429", 2)
    t.demote("wrong_bits", 1)
    assert (t.attempted, t.failed) == (7, 3)
    assert t.reasons == {"http_429": 2, "wrong_bits": 1}
    with pytest.raises(ValueError):
        t.demote("wrong_bits", 5)


def _served(wl, index, status, values=None, codes=None):
    req = serve_wl.build_request(wl, (0, 7, 1, index))
    return serve_wl.Served(req, 1, status, 0.001, values or [], codes or [])


def test_non_200_and_short_answers_fail_every_item_they_carry():
    wl = serve_wl.SERVE_BULK
    rejected = _served(wl, 0, 429)
    timed_out = _served(wl, 1, 504)
    short = _served(wl, 2, 200, ["0x0p+0"], ["ST"])
    tally = stats.Tally()
    serve_wl.check_served(wl, [rejected, timed_out, short], tally)
    n = [len(s.request.keys) for s in (rejected, timed_out, short)]
    assert tally.attempted == tally.failed == sum(n)
    assert tally.reasons == {"http_429": n[0], "http_504": n[1], "wrong_result_count": n[2]}


def test_one_wrong_bit_fails_exactly_one_item():
    wl = serve_wl.SERVE_SMALL
    values, codes = serve_wl.serial_results(wl, _served(wl, 0, 200).request.keys)
    good = _served(wl, 0, 200, values, codes)
    bad = _served(wl, 0, 200, list(values), list(codes))
    bits = np.float64(float.fromhex(bad.values[0])).view(np.int64) ^ 1
    bad.values = [float(bits.view(np.float64)).hex()]  # last mantissa bit flipped
    tally = stats.Tally()
    serve_wl.check_served(wl, [good, bad], tally)
    assert (tally.attempted, tally.failed) == (2, 1)
    assert tally.reasons == {"wrong_bits_or_algorithm": 1}


# -- process cleanup ------------------------------------------------------------------

_ORPHAN_SCRIPT = """
import os, subprocess, sys, time
import procs
procs.adopt_orphans()
# a child that starts a long sleeper and exits at once, orphaning it
subprocess.run([sys.executable, "-c",
    "import subprocess, sys; "
    "p = subprocess.Popen([sys.executable, '-c', 'import time; time.sleep(60)']); "
    "print(p.pid)"], check=True, stdout=open("orphan.pid", "w"))
orphan = int(open("orphan.pid").read())
t0 = time.monotonic()
signalled = procs.reap_all(grace=0.2)
assert signalled == [orphan], (signalled, orphan)
assert time.monotonic() - t0 < 5
try:
    os.waitpid(-1, os.WNOHANG)
except ChildProcessError:
    print("no children left")
"""


def test_reap_all_stops_and_reaps_an_adopted_orphan(tmp_path):
    here = Path(__file__).resolve().parent
    done = subprocess.run(
        [sys.executable, "-c", _ORPHAN_SCRIPT],
        cwd=tmp_path,
        env={"PYTHONPATH": str(here)},
        capture_output=True,
        text=True,
        timeout=30,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "no children left"
