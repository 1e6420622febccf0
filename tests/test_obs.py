"""repro.obs: the runtime metrics layer under test.

Covers the registry contract (counters/gauges/histograms, label identity,
thread-safe updates), disabled-mode no-op semantics, the snapshot /
Prometheus round-trip, the ``repro-metrics`` CLI, and — the acceptance
criterion — an instrumented ``reduce_many`` run whose selection counts,
decision-cache hits and engine-dispatch totals exactly reconcile with the
returned :class:`AdaptiveResult` records.
"""

from __future__ import annotations

import json
import math
import threading
from collections import Counter as TallyCounter

import numpy as np
import pytest

from repro.generators import zero_sum_set
from repro.mpi import SimComm
from repro.obs import DEFAULT_LATENCY_BUCKETS, MetricsRegistry, get_registry
from repro.obs.cli import counter_total, main as metrics_cli, summarize
from repro.selection import AdaptiveReducer


@pytest.fixture
def global_obs():
    """The process-global registry, enabled and clean for one test."""
    reg = get_registry()
    reg.reset()
    reg.enable()
    yield reg
    reg.disable()
    reg.reset()


def _sample_value(snapshot: dict, name: str, **labels) -> "int | None":
    for sample in snapshot["counters"].get(name, []):
        if sample["labels"] == {k: str(v) for k, v in labels.items()}:
            return sample["value"]
    return None


class TestRegistry:
    def test_counter_get_or_create_is_identity(self):
        reg = MetricsRegistry(enabled=True)
        a = reg.counter("x_total", algorithm="K")
        b = reg.counter("x_total", algorithm="K")
        c = reg.counter("x_total", algorithm="CP")
        assert a is b and a is not c
        a.inc()
        a.inc(3)
        assert b.value == 4
        assert c.value == 0

    def test_counter_rejects_negative(self):
        reg = MetricsRegistry(enabled=True)
        with pytest.raises(ValueError):
            reg.counter("x_total").inc(-1)

    def test_gauge_set_inc_dec(self):
        reg = MetricsRegistry(enabled=True)
        g = reg.gauge("depth")
        g.set(5.0)
        g.inc(2.0)
        g.dec(3.0)
        assert g.value == pytest.approx(4.0)

    def test_histogram_buckets_cumulative(self):
        reg = MetricsRegistry(enabled=True)
        h = reg.histogram("lat_seconds", buckets=(0.1, 1.0, 10.0))
        for v in (0.05, 0.5, 0.5, 5.0, 50.0):
            h.observe(v)
        pairs = h.bucket_counts()
        assert pairs == [(0.1, 1), (1.0, 3), (10.0, 4), (math.inf, 5)]
        assert h.count == 5
        assert h.sum == pytest.approx(56.05)

    def test_histogram_weighted_observe(self):
        """``count`` records one value that many times in one call."""
        reg = MetricsRegistry(enabled=True)
        h = reg.histogram("w_seconds", buckets=(0.1, 1.0))
        h.observe(0.5, count=4)
        h.observe(0.05)
        assert h.bucket_counts() == [(0.1, 1), (1.0, 5), (math.inf, 5)]
        assert h.count == 5
        assert h.sum == pytest.approx(2.05)

    def test_histogram_boundary_goes_to_lower_bucket(self):
        reg = MetricsRegistry(enabled=True)
        h = reg.histogram("b_seconds", buckets=(1.0, 2.0))
        h.observe(1.0)  # le is inclusive, Prometheus-style
        assert h.bucket_counts()[0] == (1.0, 1)

    def test_histogram_rejects_bad_buckets(self):
        reg = MetricsRegistry(enabled=True)
        with pytest.raises(ValueError):
            reg.histogram("h", buckets=())
        with pytest.raises(ValueError):
            reg.histogram("h2", buckets=(1.0, 1.0))

    def test_default_buckets_strictly_increasing(self):
        assert all(
            b2 > b1
            for b1, b2 in zip(DEFAULT_LATENCY_BUCKETS, DEFAULT_LATENCY_BUCKETS[1:])
        )

    def test_reset_drops_metrics_keeps_flag(self):
        reg = MetricsRegistry(enabled=True)
        reg.counter("x_total").inc()
        reg.reset()
        assert reg.enabled
        assert reg.snapshot()["counters"] == {}


class TestConcurrency:
    def test_counter_exact_under_threads(self):
        reg = MetricsRegistry(enabled=True)
        counter = reg.counter("hits_total")
        n_threads, per_thread = 8, 5000

        def worker():
            for _ in range(per_thread):
                counter.inc()

        threads = [threading.Thread(target=worker) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter.value == n_threads * per_thread

    def test_histogram_exact_under_threads(self):
        reg = MetricsRegistry(enabled=True)
        hist = reg.histogram("lat_seconds", buckets=(1e-3, 1.0))
        n_threads, per_thread = 8, 2000

        def worker(i):
            for j in range(per_thread):
                hist.observe(1e-4 if (i + j) % 2 else 2.0)

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        total = n_threads * per_thread
        assert hist.count == total
        pairs = dict(hist.bucket_counts())
        assert pairs[math.inf] == total
        assert pairs[1e-3] == total // 2

    def test_racing_registration_yields_one_metric(self):
        reg = MetricsRegistry(enabled=True)
        seen = []
        barrier = threading.Barrier(8)

        def worker():
            barrier.wait()
            seen.append(reg.counter("raced_total"))

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(m is seen[0] for m in seen)


class TestDisabledMode:
    def test_disabled_instrumented_run_records_nothing(self):
        """The global registry defaults to disabled: a full serving-path run
        must leave the snapshot empty (the no-op guard contract)."""
        reg = get_registry()
        reg.reset()
        assert not reg.enabled
        rng = np.random.default_rng(3)
        comm = SimComm(4)
        reducer = AdaptiveReducer(comm, threshold=1e-13)
        batches = [[rng.random(32) for _ in range(4)] for _ in range(6)]
        reducer.reduce_many(batches, tree="balanced")
        reducer.reduce(batches[0], tree="balanced")
        snap = reg.snapshot()
        assert snap["counters"] == {}
        assert snap["histograms"] == {}

    def test_enable_disable_toggles_recording(self, global_obs):
        comm = SimComm(2)
        reducer = AdaptiveReducer(comm)
        reducer.reduce([np.ones(8), np.ones(8)], tree="balanced")
        before = counter_total(
            global_obs.snapshot(), "repro_selector_selections_total"
        )
        assert before == 1
        global_obs.disable()
        reducer.reduce([np.ones(8), np.ones(8)], tree="balanced")
        after = counter_total(
            global_obs.snapshot(), "repro_selector_selections_total"
        )
        assert after == before


class TestExport:
    def _populated(self) -> MetricsRegistry:
        reg = MetricsRegistry(enabled=True)
        reg.counter("repro_x_total", algorithm="K").inc(4)
        reg.counter("repro_x_total", algorithm="CP").inc(1)
        reg.gauge("repro_depth").set(3.5)
        h = reg.histogram("repro_lat_seconds", buckets=(0.1, 1.0))
        h.observe(0.05)
        h.observe(5.0)
        return reg

    def test_snapshot_is_json_round_trippable(self):
        reg = self._populated()
        snap = json.loads(reg.to_json())
        assert snap == reg.snapshot()
        assert _sample_value(snap, "repro_x_total", algorithm="K") == 4
        hist = snap["histograms"]["repro_lat_seconds"][0]
        assert hist["count"] == 2
        assert hist["buckets"][-1] == ["+Inf", 2]

    def test_prometheus_text_shape(self):
        text = self._populated().render_prometheus()
        assert "# TYPE repro_x_total counter" in text
        assert 'repro_x_total{algorithm="K"} 4' in text
        assert "# TYPE repro_depth gauge" in text
        assert 'repro_lat_seconds_bucket{le="+Inf"} 2' in text
        assert "repro_lat_seconds_count 2" in text

    def test_snapshot_prometheus_round_trip(self):
        """snapshot -> CLI reconstruction == the registry's own rendering."""
        from repro.obs.cli import _render_prometheus_from_snapshot

        reg = self._populated()
        assert _render_prometheus_from_snapshot(reg.snapshot()) == (
            reg.render_prometheus()
        )


class TestPrometheusEscaping:
    """Label values with exposition-format metacharacters must escape —
    a raw ``"``, ``\\`` or newline in a label used to break every scraper
    reading the daemon's ``/metrics``."""

    HOSTILE = 'she said "hi"\nC:\\temp\\x'

    def test_hostile_label_values_escape(self):
        from repro.obs.registry import parse_prometheus_text

        reg = MetricsRegistry(enabled=True)
        reg.counter("repro_evil_total", path=self.HOSTILE).inc(2)
        text = reg.render_prometheus()
        # one sample line per metric line: the newline did NOT split the line
        body_lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
        assert len(body_lines) == 1
        assert '\\n' in body_lines[0] and '\\"' in body_lines[0]
        parsed = parse_prometheus_text(text)
        (sample,) = parsed["samples"]
        assert sample["labels"]["path"] == self.HOSTILE  # round-trips exactly
        assert sample["value"] == 2

    def test_hostile_labels_on_histograms(self):
        from repro.obs.registry import parse_prometheus_text

        reg = MetricsRegistry(enabled=True)
        h = reg.histogram(
            "repro_evil_seconds", buckets=(0.1,), who='a"b\\c'
        )
        h.observe(0.05)
        parsed = parse_prometheus_text(reg.render_prometheus())
        buckets = [
            s for s in parsed["samples"]
            if s["name"] == "repro_evil_seconds_bucket"
        ]
        assert {s["labels"]["who"] for s in buckets} == {'a"b\\c'}
        assert {s["labels"]["le"] for s in buckets} == {"0.1", "+Inf"}

    def test_le_bounds_render_shortest_repr(self):
        reg = MetricsRegistry(enabled=True)
        reg.histogram("repro_le_seconds", buckets=(1e-05, 0.1, 2.5)).observe(0)
        text = reg.render_prometheus()
        # repr-stable shortest floats: 0.1 stays "0.1", 1e-05 stays "1e-05"
        assert 'le="0.1"' in text
        assert 'le="1e-05"' in text
        assert 'le="2.5"' in text
        assert 'le="+Inf"' in text

    def test_integral_counter_values_render_as_ints(self):
        reg = MetricsRegistry(enabled=True)
        reg.counter("repro_int_total").inc(7)
        assert "repro_int_total 7\n" in reg.render_prometheus()

    def test_parser_rejects_malformed_lines(self):
        from repro.obs.registry import parse_prometheus_text

        for bad in (
            "repro_x_total",  # no value
            'repro_x_total{unterminated="v 1',
            "repro_x_total notanumber",
        ):
            with pytest.raises(ValueError):
                parse_prometheus_text(bad)

    def test_parser_reads_special_values(self):
        from repro.obs.registry import parse_prometheus_text

        text = "a 1\nb +Inf\nc -Inf\nd NaN\n"
        samples = {
            s["name"]: s["value"]
            for s in parse_prometheus_text(text)["samples"]
        }
        assert samples["a"] == 1
        assert samples["b"] == math.inf
        assert samples["c"] == -math.inf
        assert math.isnan(samples["d"])

    def test_full_registry_render_round_trips(self):
        from repro.obs.registry import parse_prometheus_text

        reg = MetricsRegistry(enabled=True)
        reg.counter("repro_a_total", algo="K", note='x"y\\z\nw').inc(3)
        reg.gauge("repro_depth", shard="0").set(2.5)
        h = reg.histogram("repro_lat_seconds", buckets=(0.001, 0.1))
        h.observe(0.05)
        h.observe(0.2)
        parsed = parse_prometheus_text(reg.render_prometheus())
        assert parsed["types"] == {
            "repro_a_total": "counter",
            "repro_depth": "gauge",
            "repro_lat_seconds": "histogram",
        }
        by = {
            (s["name"], tuple(sorted(s["labels"].items()))): s["value"]
            for s in parsed["samples"]
        }
        assert by[
            ("repro_a_total", (("algo", "K"), ("note", 'x"y\\z\nw')))
        ] == 3
        assert by[("repro_depth", (("shard", "0"),))] == 2.5
        assert by[("repro_lat_seconds_count", ())] == 2


class TestCli:
    def _write_snapshot(self, tmp_path) -> str:
        reg = MetricsRegistry(enabled=True)
        reg.counter("repro_selector_selections_total", algorithm="ST").inc(7)
        reg.histogram("repro_selector_reduce_seconds", buckets=(0.1,)).observe(0.01)
        path = tmp_path / "metrics.json"
        path.write_text(reg.to_json())
        return str(path)

    def test_summary_lists_metrics(self, tmp_path, capsys):
        path = self._write_snapshot(tmp_path)
        assert metrics_cli([path]) == 0
        out = capsys.readouterr().out
        assert "repro_selector_selections_total{algorithm=ST} = 7" in out
        assert "repro_selector_reduce_seconds" in out

    def test_assert_nonzero_gate(self, tmp_path, capsys):
        path = self._write_snapshot(tmp_path)
        assert (
            metrics_cli([path, "--assert-nonzero", "repro_selector_selections_total"])
            == 0
        )
        assert metrics_cli([path, "--assert-nonzero", "repro_absent_total"]) == 1

    def test_prometheus_flag(self, tmp_path, capsys):
        path = self._write_snapshot(tmp_path)
        assert metrics_cli([path, "--prometheus"]) == 0
        out = capsys.readouterr().out
        assert 'repro_selector_selections_total{algorithm="ST"} 7' in out

    def test_unreadable_snapshot_exits_2(self, tmp_path):
        assert metrics_cli([str(tmp_path / "missing.json")]) == 2

    def test_summarize_empty(self):
        assert summarize({}) == "(empty snapshot)"


class TestServingReconciliation:
    """Acceptance: an instrumented ``reduce_many`` stream's snapshot must
    exactly reconcile with the returned ``AdaptiveResult`` records."""

    def test_reduce_many_counts_reconcile(self, global_obs):
        rng = np.random.default_rng(42)
        comm = SimComm(6)
        reducer = AdaptiveReducer(comm, threshold=1e-13)
        # a mixed stream: easy positive sets (cheap algorithms) and exact
        # zero-sum sets (k = inf => the robust end, incl. context-needing PR)
        batches = []
        for i in range(8):
            batches.append([rng.random(60) for _ in range(6)])
        for i in range(4):
            batches.append(list(comm.scatter_array(zero_sum_set(360, 24, seed=i))))
        results = reducer.reduce_many(batches, tree="balanced")
        snap = global_obs.snapshot()

        # selection counts per algorithm == the audited decision records
        decided = TallyCounter(r.decision.code for r in results)
        for code, expected in decided.items():
            assert (
                _sample_value(snap, "repro_selector_selections_total", algorithm=code)
                == expected
            ), (code, snap["counters"])
        assert counter_total(snap, "repro_selector_selections_total") == len(results)

        # engine dispatch totals == one dispatch per returned collective
        assert counter_total(snap, "repro_comm_dispatch_total") == len(results)

        # the uniform-width stream rode the batched profiling path
        assert (
            _sample_value(snap, "repro_profile_items_total", path="batched")
            == len(results)
        )

        # phase latency histograms saw the run
        assert counter_total(snap, "repro_selector_profile_seconds") >= 1
        assert counter_total(snap, "repro_selector_select_seconds") >= 1
        assert counter_total(snap, "repro_selector_reduce_seconds") >= 1

    @pytest.mark.parametrize("route", ["reduce", "workers=1", "workers=2"])
    def test_phase_histograms_count_selections(self, global_obs, route):
        """The phase histograms hold per-item times on every route: each
        one's count equals the number of selections, and its sum is the
        per-item times added up (the AdaptiveResult records carry the same
        amortised figures)."""
        rng = np.random.default_rng(8)
        comm = SimComm(4)
        reducer = AdaptiveReducer(comm, threshold=1e-13)
        batches = [[rng.random(32) for _ in range(4)] for _ in range(10)]
        if route == "reduce":
            results = [reducer.reduce(chunks) for chunks in batches]
        else:
            results = reducer.reduce_many(batches, workers=int(route[-1]))
        snap = global_obs.snapshot()
        selections = counter_total(snap, "repro_selector_selections_total")
        assert selections == len(batches)
        hists = snap["histograms"]
        for name in (
            "repro_selector_profile_seconds",
            "repro_selector_select_seconds",
            "repro_selector_reduce_seconds",
        ):
            (h,) = hists[name]
            assert h["count"] == selections, name
            assert h["buckets"][-1][1] == selections, name
        for name, attr in (
            ("repro_selector_profile_seconds", "profile_seconds"),
            ("repro_selector_reduce_seconds", "reduce_seconds"),
        ):
            expected = math.fsum(getattr(r, attr) for r in results)
            assert hists[name][0]["sum"] == pytest.approx(expected, rel=1e-9)

    def test_pr_stream_counts_one_batched_dispatch_per_item(self, global_obs):
        """PR groups run through ``reduce_batch``'s exact path: one
        ``batch`` dispatch per item and no per-item fallback."""
        comm = SimComm(6)
        reducer = AdaptiveReducer(comm, threshold=1e-13)
        batches = [
            list(comm.scatter_array(zero_sum_set(360, 24, seed=i)))
            for i in range(6)
        ]
        results = reducer.reduce_many(batches, tree="balanced")
        assert {r.decision.code for r in results} == {"PR"}
        snap = global_obs.snapshot()
        assert counter_total(snap, "repro_comm_dispatch_total") == len(results)
        assert (
            _sample_value(snap, "repro_comm_dispatch_total", engine="batch")
            == len(results)
        )
        assert counter_total(snap, "repro_comm_batch_fallback_total") == 0
        assert counter_total(snap, "repro_comm_batch_calls_total") == 1

    def test_ragged_stream_counts_fallback(self, global_obs):
        rng = np.random.default_rng(5)
        comm = SimComm(3)
        reducer = AdaptiveReducer(comm, threshold=1e-13)
        batches = [
            [rng.random(16), rng.random(16), rng.random(16)],
            [rng.random(8), rng.random(8), rng.random(8)],  # ragged width
        ]
        reducer.reduce_many(batches, tree="balanced")
        snap = global_obs.snapshot()
        assert (
            _sample_value(snap, "repro_profile_batch_total", path="ragged_fallback")
            == 1
        )
        assert counter_total(snap, "repro_comm_dispatch_total") == 2

    def test_single_reduce_instruments_histograms(self, global_obs):
        comm = SimComm(4)
        reducer = AdaptiveReducer(comm)
        res = reducer.reduce(comm.scatter_array(np.ones(400)), tree="balanced")
        snap = global_obs.snapshot()
        assert (
            _sample_value(
                snap, "repro_selector_selections_total", algorithm=res.decision.code
            )
            == 1
        )
        hists = snap["histograms"]
        for name in (
            "repro_selector_profile_seconds",
            "repro_selector_select_seconds",
            "repro_selector_reduce_seconds",
        ):
            assert hists[name][0]["count"] == 1, name
