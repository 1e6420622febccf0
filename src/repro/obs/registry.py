"""Process-global runtime metrics: counters, gauges, latency histograms.

The paper's closing argument (Sec. V.D) is that runtime selection only
works if the runtime can *observe itself*: profile cost, selection outcomes
and reduction cost must be measurable at a cost far below the reduction —
otherwise the audit changes the thing audited.  This module is that
measurement plane for the serving path, built to three constraints:

* **dependency-free** — stdlib only, importable everywhere in the tree
  without cycles (nothing here imports from ``repro``);
* **near-zero overhead when disabled** — every instrumentation site guards
  on the registry's ``enabled`` attribute *before doing any work*, so a
  disabled registry costs one attribute load per site (the
  ``benchmarks/bench_obs_overhead.py`` micro-bench pins this below tens of
  nanoseconds per guarded site);
* **thread-safe when enabled** — metric creation is serialised on a
  registry lock and every update takes a per-metric lock, so concurrent
  ``reduce_many`` streams from worker threads produce exact totals.

Metrics follow Prometheus conventions: ``*_total`` counters, unitless
gauges, ``*_seconds`` histograms with fixed upper-bound buckets.  The
registry exports three ways: :meth:`MetricsRegistry.snapshot` (a nested
dict, the programmatic surface), ``json.dumps(snapshot)`` (what
``--metrics-out`` writes) and :meth:`MetricsRegistry.render_prometheus`
(text exposition format, scrapable as-is).
"""

from __future__ import annotations

import json
import math
import threading
from typing import Iterable, Mapping, Optional, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    "parse_prometheus_text",
    "DEFAULT_LATENCY_BUCKETS",
    "DEFAULT_SIZE_BUCKETS",
]

#: default histogram upper bounds (seconds): 1 µs .. 10 s, decade-spaced
#: with 3x midpoints — wide enough for one chunk profile and a whole
#: reduce_many stream on the same scale, cheap enough to bisect in ~4 steps
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    1e-6, 3e-6, 1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3,
    1e-2, 3e-2, 1e-1, 3e-1, 1.0, 3.0, 10.0,
)

#: default histogram upper bounds (bytes): 256 B .. 1 GiB, power-of-4 —
#: for payload/batch size distributions (e.g. bytes packed per serving
#: tick), matching the power-of-two sizing the arenas grow by
DEFAULT_SIZE_BUCKETS: Tuple[float, ...] = (
    256.0, 1024.0, 4096.0, 16384.0, 65536.0, 262144.0,
    1048576.0, 4194304.0, 16777216.0, 67108864.0, 268435456.0,
    1073741824.0,
)

_LabelItems = Tuple[Tuple[str, str], ...]


def _label_items(labels: Mapping[str, str]) -> _LabelItems:
    """Canonical (sorted, stringified) label tuple — the metric identity."""
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _escape_label_value(value: str) -> str:
    """Escape a label value per the Prometheus text exposition spec.

    Inside double-quoted label values, backslash, double-quote and
    line-feed must be escaped (in that order — escaping the backslash
    first keeps the other two escapes unambiguous).  Without this, a
    label carrying ``"`` or a newline renders an unscrapeable exposition.
    """
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _fmt_number(value) -> str:
    """Canonical exposition rendering of a sample value or ``le`` bound.

    Coerces to a Python float first so foreign scalar types (``np.float64``
    under NumPy >= 2 reprs as ``np.float64(0.001)``) can never leak their
    repr into the exposition; Python-float ``repr`` is the shortest string
    that round-trips the exact value.  Integers stay integers.
    """
    if isinstance(value, int):
        return str(value)
    value = float(value)
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if math.isnan(value):  # pragma: no cover - no NaN metric exists today
        return "NaN"
    return repr(value)


def _label_suffix(items: _LabelItems) -> str:
    if not items:
        return ""
    inner = ",".join(f'{k}="{_escape_label_value(v)}"' for k, v in items)
    return "{" + inner + "}"


class Counter:
    """Monotonically increasing count (events, items, cache hits)."""

    __slots__ = ("name", "labels", "_value", "_lock")

    def __init__(self, name: str, labels: _LabelItems) -> None:
        self.name = name
        self.labels = labels
        self._value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (>= 0) to the count."""
        if amount < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        return self._value


class Gauge:
    """A value that can go up and down (cache size, last batch width)."""

    __slots__ = ("name", "labels", "_value", "_lock")

    def __init__(self, name: str, labels: _LabelItems) -> None:
        self.name = name
        self.labels = labels
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        return self._value


class Histogram:
    """Fixed-bucket latency histogram (cumulative counts, Prometheus-style).

    ``buckets`` are the finite upper bounds; an implicit ``+Inf`` bucket
    catches the tail.  ``observe`` costs one bisect plus one lock — no
    allocation — so it is safe inside the serving path's per-call timing.
    """

    __slots__ = ("name", "labels", "buckets", "_counts", "_sum", "_count", "_lock")

    def __init__(
        self,
        name: str,
        labels: _LabelItems,
        buckets: Iterable[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds or any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError("buckets must be non-empty and strictly increasing")
        self.name = name
        self.labels = labels
        self.buckets = bounds
        self._counts = [0] * (len(bounds) + 1)  # +1: the +Inf bucket
        self._sum = 0.0
        self._count = 0
        self._lock = threading.Lock()

    def observe(self, value: float, count: int = 1) -> None:
        """Record ``value`` ``count`` times (a batch's amortised per-item
        time, weighted by its item count, is one call)."""
        value = float(value)
        lo, hi = 0, len(self.buckets)
        while lo < hi:  # bisect over the fixed bounds
            mid = (lo + hi) // 2
            if value <= self.buckets[mid]:
                hi = mid
            else:
                lo = mid + 1
        with self._lock:
            self._counts[lo] += count
            self._sum += value * count  # repro: allow[FP003] -- telemetry total, not a numerical result
            self._count += count

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def bucket_counts(self) -> "list[tuple[float, int]]":
        """Cumulative ``(le, count)`` pairs, ending with ``(inf, count)``."""
        with self._lock:
            raw = list(self._counts)
        pairs = []
        running = 0
        for bound, c in zip(self.buckets + (float("inf"),), raw):
            running += c
            pairs.append((bound, running))
        return pairs


class MetricsRegistry:
    """A named family of metrics behind one enable flag.

    Hot-path contract: instrumentation sites read :attr:`enabled` (a plain
    bool attribute) and return before *any* metric lookup when it is False::

        _OBS = get_registry()
        ...
        if _OBS.enabled:
            _OBS.counter("repro_x_total", algorithm=code).inc()

    ``counter``/``gauge``/``histogram`` get-or-create under the registry
    lock, so label cardinality is bounded by the distinct call sites and
    label values, and two threads racing on a fresh name receive the same
    metric object.
    """

    def __init__(self, *, enabled: bool = False) -> None:
        self.enabled = bool(enabled)
        self._lock = threading.Lock()
        self._metrics: "dict[tuple[str, str, _LabelItems], object]" = {}

    # -- lifecycle -----------------------------------------------------------
    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def reset(self) -> None:
        """Drop every metric (counts and registrations); keep the flag."""
        with self._lock:
            self._metrics.clear()

    # -- registration --------------------------------------------------------
    def _get_or_create(self, kind: str, name: str, labels: Mapping[str, str], factory):
        key = (kind, name, _label_items(labels))
        metric = self._metrics.get(key)
        if metric is not None:
            return metric
        with self._lock:
            metric = self._metrics.get(key)
            if metric is None:
                metric = factory(name, key[2])
                self._metrics[key] = metric
            return metric

    def counter(self, name: str, **labels: str) -> Counter:
        return self._get_or_create("counter", name, labels, Counter)

    def gauge(self, name: str, **labels: str) -> Gauge:
        return self._get_or_create("gauge", name, labels, Gauge)

    def histogram(
        self,
        name: str,
        buckets: Iterable[float] = DEFAULT_LATENCY_BUCKETS,
        **labels: str,
    ) -> Histogram:
        return self._get_or_create(
            "histogram", name, labels, lambda n, li: Histogram(n, li, buckets)
        )

    # -- export --------------------------------------------------------------
    def _sorted_metrics(self) -> "list[tuple[tuple, object]]":
        with self._lock:
            items = list(self._metrics.items())
        return sorted(items, key=lambda kv: kv[0])

    def snapshot(self) -> dict:
        """Nested dict of every metric: the programmatic/JSON export surface.

        Shape::

            {"counters":   {name: [{"labels": {...}, "value": int}, ...]},
             "gauges":     {name: [{"labels": {...}, "value": float}, ...]},
             "histograms": {name: [{"labels": {...}, "count": int,
                                    "sum": float,
                                    "buckets": [[le, cumulative], ...]}]}}

        Label-free metrics still appear as one-sample lists so consumers
        need a single code path.  The snapshot is JSON-serialisable as-is
        (the ``+Inf`` bucket bound is rendered as the string ``"+Inf"``).
        """
        out: dict = {"counters": {}, "gauges": {}, "histograms": {}}
        for (kind, name, labels), metric in self._sorted_metrics():
            sample: dict = {"labels": dict(labels)}
            if kind == "counter":
                sample["value"] = metric.value
                out["counters"].setdefault(name, []).append(sample)
            elif kind == "gauge":
                sample["value"] = metric.value
                out["gauges"].setdefault(name, []).append(sample)
            else:
                sample["count"] = metric.count
                sample["sum"] = metric.sum
                sample["buckets"] = [
                    ["+Inf" if le == float("inf") else le, c]
                    for le, c in metric.bucket_counts()
                ]
                out["histograms"].setdefault(name, []).append(sample)
        return out

    def to_json(self, *, indent: "int | None" = 2) -> str:
        return json.dumps(self.snapshot(), indent=indent)

    def render_prometheus(self) -> str:
        """Prometheus text exposition format (``# TYPE`` lines included).

        Label values are escaped per the exposition spec and every float is
        rendered via :func:`_fmt_number`, so the output survives hostile
        label values and foreign scalar types —
        :func:`parse_prometheus_text` is the inverse, and the round trip is
        pinned by tests.
        """
        lines: "list[str]" = []
        seen_types: "set[tuple[str, str]]" = set()
        for (kind, name, labels), metric in self._sorted_metrics():
            if (kind, name) not in seen_types:
                lines.append(f"# TYPE {name} {kind}")
                seen_types.add((kind, name))
            suffix = _label_suffix(labels)
            if kind in ("counter", "gauge"):
                lines.append(f"{name}{suffix} {_fmt_number(metric.value)}")
                continue
            for le, cumulative in metric.bucket_counts():
                items = labels + (("le", _fmt_number(le)),)
                lines.append(f"{name}_bucket{_label_suffix(items)} {cumulative}")
            lines.append(f"{name}_sum{suffix} {_fmt_number(metric.sum)}")
            lines.append(f"{name}_count{suffix} {metric.count}")
        return "\n".join(lines) + ("\n" if lines else "")


# -- exposition-format parsing -------------------------------------------------


def _parse_label_block(block: str, line: str) -> "dict[str, str]":
    """Parse the inside of a ``{...}`` label block, honouring escapes."""
    labels: "dict[str, str]" = {}
    i, n = 0, len(block)
    while i < n:
        eq = block.index("=", i)
        key = block[i:eq].strip()
        if not key or block[eq + 1] != '"':
            raise ValueError(f"malformed label in exposition line: {line!r}")
        i = eq + 2
        out: "list[str]" = []
        while True:
            if i >= n:
                raise ValueError(f"unterminated label value: {line!r}")
            ch = block[i]
            if ch == "\\":
                esc = block[i + 1 : i + 2]
                if esc == "n":
                    out.append("\n")
                elif esc in ('"', "\\"):
                    out.append(esc)
                else:
                    raise ValueError(f"bad escape in exposition line: {line!r}")
                i += 2
            elif ch == '"':
                i += 1
                break
            elif ch == "\n":
                raise ValueError(f"raw newline in label value: {line!r}")
            else:
                out.append(ch)
                i += 1
        labels[key] = "".join(out)
        if i < n:
            if block[i] != ",":
                raise ValueError(f"malformed label block: {line!r}")
            i += 1
    return labels


def _parse_number(token: str) -> float:
    if token == "+Inf":
        return math.inf
    if token == "-Inf":
        return -math.inf
    if token == "NaN":
        return math.nan
    return float(token)


def parse_prometheus_text(text: str) -> dict:
    """Strict parser for the Prometheus text exposition format.

    The inverse of :meth:`MetricsRegistry.render_prometheus`: returns
    ``{"types": {name: kind}, "samples": [{"name", "labels", "value"}]}``
    and raises :class:`ValueError` on anything a scraper would choke on —
    unescaped quotes/newlines in label values, non-numeric sample values,
    malformed ``# TYPE`` lines.  Serving tests and the bench-smoke job use
    it to prove ``/metrics`` output is scrapeable as-is.
    """
    types: "dict[str, str]" = {}
    samples: "list[dict]" = []
    for line in text.split("\n"):
        if not line.strip():
            continue
        if line.startswith("#"):
            parts = line.split()
            if len(parts) >= 2 and parts[1] == "TYPE":
                if len(parts) != 4:
                    raise ValueError(f"malformed TYPE line: {line!r}")
                types[parts[2]] = parts[3]
            # other comments (# HELP, bare #) are legal and skipped
            continue
        if line.startswith("{"):
            raise ValueError(f"sample with no metric name: {line!r}")
        brace = line.find("{")
        if brace >= 0:
            name = line[:brace]
            close = line.rfind("}")
            if close < brace:
                raise ValueError(f"unterminated label block: {line!r}")
            labels = _parse_label_block(line[brace + 1 : close], line)
            rest = line[close + 1 :].split()
        else:
            fields = line.split()
            name, labels, rest = fields[0], {}, fields[1:]
        if len(rest) not in (1, 2):  # optional trailing timestamp is legal
            raise ValueError(f"malformed sample line: {line!r}")
        if not name or not all(
            c.isalnum() or c in "_:" for c in name
        ):
            raise ValueError(f"invalid metric name in line: {line!r}")
        samples.append(
            {"name": name, "labels": labels, "value": _parse_number(rest[0])}
        )
    return {"types": types, "samples": samples}


#: the process-global registry every instrumented layer shares
_GLOBAL = MetricsRegistry(enabled=False)


def get_registry() -> MetricsRegistry:
    """The process-global registry (disabled until ``.enable()`` is called)."""
    return _GLOBAL
