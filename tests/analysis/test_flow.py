"""Whole-program flow pass: call-graph resolution, FP009-FP011, FP013, certificates.

Fixture projects are materialised as multi-file packages under ``tmp_path``
(the hazards under test only exist *across* files, so single-snippet
fixtures cannot express them).  Each true-positive test asserts not just
that the rule fires but that the reported call chain is the real
source-to-sink path — the chain is the evidence a reviewer acts on.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis.flow import (
    FLOW_RULE_IDS,
    SERVING_ENTRYPOINTS,
    analyze_files,
    build_callgraph,
    certify_serving_path,
    flow_certificates,
    module_name_for,
    serving_flow_verdict,
)
from repro.obs import get_registry

REPO = Path(__file__).resolve().parents[2]


def _write(tmp_path: Path, files: dict) -> list:
    paths = []
    for rel, source in files.items():
        target = tmp_path / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(source)
        paths.append(target)
    return sorted(paths)


def _flow(tmp_path: Path, files: dict):
    return analyze_files(_write(tmp_path, files))


def _has_edge(graph, caller: str, callee: str, kind: str) -> bool:
    return any(
        e.caller == caller and e.callee == callee and e.kind == kind
        for e in graph.edges
    )


# -- call-graph construction ---------------------------------------------------


class TestCallGraph:
    def test_module_name_walks_init_packages(self, tmp_path):
        paths = _write(
            tmp_path,
            {
                "pkg/__init__.py": "",
                "pkg/sub/__init__.py": "",
                "pkg/sub/mod.py": "def f():\n    return 1\n",
                "plain.py": "def g():\n    return 2\n",
            },
        )
        names = {module_name_for(p) for p in paths}
        assert "pkg.sub.mod" in names and "plain" in names
        graph = build_callgraph(paths)
        assert "pkg.sub.mod:f" in graph.functions
        assert "plain:g" in graph.functions

    def test_decorated_function_keeps_call_edges(self, tmp_path):
        graph = build_callgraph(
            _write(
                tmp_path,
                {
                    "pkg/__init__.py": "",
                    "pkg/deco.py": (
                        "import functools\n"
                        "def wrap(fn):\n"
                        "    @functools.wraps(fn)\n"
                        "    def inner(*a, **k):\n"
                        "        return fn(*a, **k)\n"
                        "    return inner\n"
                        "@wrap\n"
                        "def leaf():\n"
                        "    return 1\n"
                        "def caller():\n"
                        "    return leaf()\n"
                    ),
                },
            )
        )
        assert _has_edge(graph, "pkg.deco:caller", "pkg.deco:leaf", "call")
        assert graph.functions["pkg.deco:leaf"].decorators == ("wrap",)
        # the nested def escapes its factory as a ref edge
        assert _has_edge(graph, "pkg.deco:wrap", "pkg.deco:wrap.inner", "ref")

    def test_staticmethod_and_classmethod_resolution(self, tmp_path):
        graph = build_callgraph(
            _write(
                tmp_path,
                {
                    "pkg/__init__.py": "",
                    "pkg/tool.py": (
                        "class Tool:\n"
                        "    @staticmethod\n"
                        "    def s():\n"
                        "        return 1\n"
                        "    @classmethod\n"
                        "    def c(cls):\n"
                        "        return cls.s()\n"
                        "def use():\n"
                        "    return Tool.s() + Tool.c()\n"
                    ),
                },
            )
        )
        assert _has_edge(graph, "pkg.tool:use", "pkg.tool:Tool.s", "call")
        assert _has_edge(graph, "pkg.tool:use", "pkg.tool:Tool.c", "call")
        assert _has_edge(graph, "pkg.tool:Tool.c", "pkg.tool:Tool.s", "call")

    def test_lambda_passed_to_map_parallel_is_a_pool_target(self, tmp_path):
        graph = build_callgraph(
            _write(
                tmp_path,
                {
                    "pkg/__init__.py": "",
                    "pkg/lam.py": (
                        "from repro.util.parallel import map_parallel\n"
                        "def run(xs):\n"
                        "    return map_parallel(lambda v: v + 1.0, xs)\n"
                    ),
                },
            )
        )
        lambdas = [fq for fq, fn in graph.functions.items() if fn.is_lambda]
        assert len(lambdas) == 1 and lambdas[0].startswith("pkg.lam:run.<lambda>@")
        assert _has_edge(graph, "pkg.lam:run", lambdas[0], "pool")
        assert lambdas[0] in graph.pool_targets

    def test_function_passed_to_run_shards_is_a_pool_target(self, tmp_path):
        graph = build_callgraph(
            _write(
                tmp_path,
                {
                    "pkg/__init__.py": "",
                    "pkg/shard.py": (
                        "from repro.util.pool import run_shards\n"
                        "def task(start, stop, inputs, out):\n"
                        "    out[:] = inputs[0][start:stop]\n"
                        "def run(n, plan, inputs, fill):\n"
                        "    return run_shards(task, n, plan, inputs, fill, float, path='map')\n"
                    ),
                },
            )
        )
        assert _has_edge(graph, "pkg.shard:run", "pkg.shard:task", "pool")
        assert "pkg.shard:task" in graph.pool_targets

    def test_reexport_through_package_init_resolves(self, tmp_path):
        graph = build_callgraph(
            _write(
                tmp_path,
                {
                    "pkg/__init__.py": "from pkg.core import compute\n",
                    "pkg/core.py": "def compute(x):\n    return x\n",
                    "pkg/user.py": (
                        "from pkg import compute\n"
                        "def go():\n"
                        "    return compute(1)\n"
                    ),
                },
            )
        )
        assert _has_edge(graph, "pkg.user:go", "pkg.core:compute", "call")

    def test_module_level_worker_state_registration_recorded(self, tmp_path):
        graph = build_callgraph(
            _write(
                tmp_path,
                {
                    "pkg/__init__.py": "",
                    "pkg/state.py": (
                        "from repro.util.pool import register_worker_state\n"
                        "def _build():\n"
                        "    return {}\n"
                        "register_worker_state('cache', _build)\n"
                    ),
                },
            )
        )
        assert "pkg.state:_build" in graph.registered_worker_init


# -- FP009: nondeterminism source reachable from a reduction -------------------


_FP009_PROJECT = {
    "pkg/__init__.py": "",
    "pkg/rng.py": (
        "import numpy as np\n"
        "def draw(n):\n"
        "    rng = np.random.default_rng()\n"
        "    return rng.random(n)\n"
    ),
    "pkg/mid.py": (
        "from pkg.rng import draw\n"
        "def sample(n):\n"
        "    return draw(n)\n"
    ),
    "pkg/serve.py": (
        "from pkg.mid import sample\n"
        "def total(n):\n"
        "    return sum(sample(n))\n"
    ),
}


class TestFP009:
    def test_source_three_calls_from_sink_fires_with_chain(self, tmp_path):
        analysis = _flow(tmp_path, _FP009_PROJECT)
        hits = [f for f in analysis.findings if f.rule_id == "FP009"]
        assert len(hits) == 1
        f = hits[0]
        assert f.path.endswith("pkg/rng.py")  # anchored at the SOURCE site
        assert "default_rng() without a seed" in f.message
        assert (
            "call chain: pkg.serve:total -> pkg.mid:sample -> pkg.rng:draw"
            in f.message
        )

    def test_inline_suppression_guards_the_source(self, tmp_path):
        files = dict(_FP009_PROJECT)
        files["pkg/rng.py"] = (
            "import numpy as np\n"
            "def draw(n):\n"
            "    # repro: allow[FP009] -- fixture: deliberate entropy\n"
            "    rng = np.random.default_rng()\n"
            "    return rng.random(n)\n"
        )
        analysis = _flow(tmp_path, files)
        assert not [f for f in analysis.findings if f.rule_id == "FP009"]
        assert analysis.n_suppressed >= 1
        assert any(rule == "FP009" for rule, _, _ in analysis.guarded_sites)

    def test_env_read_on_the_path_fires(self, tmp_path):
        analysis = _flow(
            tmp_path,
            {
                "pkg/__init__.py": "",
                "pkg/cfg.py": (
                    "import os\n"
                    "def knob():\n"
                    "    return int(os.environ.get('THRESH', '4'))\n"
                ),
                "pkg/serve.py": (
                    "from pkg.cfg import knob\n"
                    "def total(xs):\n"
                    "    if len(xs) > knob():\n"
                    "        return sum(xs)\n"
                    "    return 0.0\n"
                ),
            },
        )
        hits = [f for f in analysis.findings if f.rule_id == "FP009"]
        assert len(hits) == 1
        assert "env-read" in hits[0].message
        assert "pkg.serve:total -> pkg.cfg:knob" in hits[0].message

    def test_source_unreachable_from_any_sink_stays_quiet(self, tmp_path):
        files = dict(_FP009_PROJECT)
        # sever the chain: the sink no longer calls into the sampler
        files["pkg/serve.py"] = (
            "def total(xs):\n"
            "    return sum(xs)\n"
        )
        analysis = _flow(tmp_path, files)
        assert not [f for f in analysis.findings if f.rule_id == "FP009"]


# -- FP010: worker-visible module state ----------------------------------------


class TestFP010:
    def test_unregistered_global_write_in_pool_target_fires(self, tmp_path):
        analysis = _flow(
            tmp_path,
            {
                "pkg/__init__.py": "",
                "pkg/state.py": (
                    "_CACHE = {}\n"
                    "def work(x):\n"
                    "    _CACHE[x] = x * 2\n"
                    "    return _CACHE[x]\n"
                ),
                "pkg/drive.py": (
                    "from pkg.state import work\n"
                    "from repro.util.parallel import map_parallel\n"
                    "def run(xs):\n"
                    "    return map_parallel(work, xs)\n"
                ),
            },
        )
        hits = [f for f in analysis.findings if f.rule_id == "FP010"]
        assert len(hits) == 1
        assert "pkg.state._CACHE" in hits[0].message
        assert "pkg.state:work" in hits[0].message

    def test_registered_factory_protocol_is_sanctioned(self, tmp_path):
        files = {
            "pkg/__init__.py": "",
            "pkg/state.py": (
                "from repro.util.pool import register_worker_state\n"
                "_CACHE = {}\n"
                "def _build():\n"
                "    _CACHE['k'] = 1\n"
                "    return _CACHE\n"
                "register_worker_state('cache', _build)\n"
                "def lookup(x):\n"
                "    return _CACHE.get(x)\n"
            ),
            "pkg/drive.py": (
                "from pkg.state import lookup\n"
                "from repro.util.parallel import map_parallel\n"
                "def run(xs):\n"
                "    return map_parallel(lookup, xs)\n"
            ),
        }
        analysis = _flow(tmp_path, files)
        assert not [f for f in analysis.findings if f.rule_id == "FP010"]

        # control: identical project minus the registration line must fire
        files["pkg/state.py"] = files["pkg/state.py"].replace(
            "register_worker_state('cache', _build)\n", ""
        )
        control = _flow(tmp_path / "control", files)
        assert [f for f in control.findings if f.rule_id == "FP010"]


# -- FP011: arena view lifetime ----------------------------------------------


_VIEW_PROJECT = {
    "pkg/__init__.py": "",
    "pkg/views.py": (
        "import numpy as np\n"
        "from repro.util.pool import arena_view\n"
        "def bad_return(handle):\n"
        "    view = arena_view(handle, np.float64, (8,))\n"
        "    part = view[2:]\n"
        "    return part\n"
        "def good_copy(handle):\n"
        "    view = arena_view(handle, np.float64, (8,))\n"
        "    out = np.array(view)\n"
        "    del view\n"
        "    return out\n"
        "def result_store(in_handle, res_handle):\n"
        "    data = arena_view(in_handle, np.float64, (8,))\n"
        "    out_v = arena_view(res_handle, np.float64, (2,))\n"
        "    out_v[0] = float(data.sum())\n"
        "    out_v[1:] = np.cumsum(data)[-1:]\n"
        "    del data, out_v\n"
        "    return None\n"
    ),
}


class TestViewHazards:
    def test_escaping_slice_fires_fp011_and_copy_does_not(self, tmp_path):
        analysis = _flow(tmp_path, _VIEW_PROJECT)
        fp011 = [f for f in analysis.findings if f.rule_id == "FP011"]
        assert len(fp011) == 1
        assert "bad_return" in fp011[0].message
        assert "good_copy" not in " ".join(f.message for f in analysis.findings)

    def test_result_arena_store_fires_nothing(self, tmp_path):
        analysis = _flow(tmp_path, _VIEW_PROJECT)
        messages = " ".join(f.message for f in analysis.findings)
        assert "result_store" not in messages

    def test_stored_or_yielded_view_fires_fp011(self, tmp_path):
        analysis = _flow(
            tmp_path,
            {
                "pkg/__init__.py": "",
                "pkg/keep.py": (
                    "import numpy as np\n"
                    "from repro.util.pool import arena_view\n"
                    "class Holder:\n"
                    "    def stash(self, handle):\n"
                    "        self.rows = arena_view(handle, np.float64, (4,))\n"
                    "def stream(handle):\n"
                    "    rows = []\n"
                    "    rows.append(arena_view(handle, np.float64, (4,))[1:])\n"
                    "    yield rows\n"
                ),
            },
        )
        fp011 = [f for f in analysis.findings if f.rule_id == "FP011"]
        messages = " ".join(f.message for f in fp011)
        assert len(fp011) == 2
        assert "Holder.stash" in messages and "stream" in messages


# -- FP013: lock discipline ----------------------------------------------------


class TestFP013:
    def test_unlocked_private_mutation_fires_locked_stays_quiet(self, tmp_path):
        analysis = _flow(
            tmp_path,
            {
                "pkg/__init__.py": "",
                "pkg/locked.py": (
                    "import threading\n"
                    "class Box:\n"
                    "    def __init__(self):\n"
                    "        self._lock = threading.Lock()\n"
                    "        self._items = []\n"
                    "        self._count = 0\n"
                    "    def good(self, x):\n"
                    "        with self._lock:\n"
                    "            self._items.append(x)\n"
                    "            self._count += 1\n"
                    "    def bad(self, x):\n"
                    "        self._items.append(x)\n"
                    "    def also_bad(self):\n"
                    "        self._count = 0\n"
                ),
            },
        )
        fp013 = [f for f in analysis.findings if f.rule_id == "FP013"]
        assert len(fp013) == 2
        messages = " ".join(f.message for f in fp013)
        assert "Box.bad" in messages and "Box.also_bad" in messages
        assert "Box.good" not in messages


# -- certificates --------------------------------------------------------------


class TestCertificates:
    def test_unresolved_entrypoints_are_not_clean(self, tmp_path):
        analysis = _flow(tmp_path, _FP009_PROJECT)
        certs = flow_certificates(analysis)
        assert len(certs) == len(SERVING_ENTRYPOINTS)
        assert all(not c["resolved"] and not c["clean"] for c in certs)

    def test_real_tree_certificates_resolve_clean(self):
        certs = certify_serving_path(REPO / "src" / "repro")
        assert {c["entrypoint"] for c in certs} == {
            d for d, _ in SERVING_ENTRYPOINTS
        }
        for cert in certs:
            assert cert["schema"] == "repro-flow-certificate/1"
            assert cert["resolved"], cert["entrypoint"]
            assert cert["clean"], (cert["entrypoint"], cert["sources"], cert["hazards"])
            assert cert["n_functions"] > 5
            assert cert["counts"]["sources_unguarded"] == 0
            assert cert["counts"]["hazards_unguarded"] == 0
        # the pool's env knobs are guarded (suppressed with reasons), not
        # hidden: reduce_many's closure must list them
        by_name = {c["entrypoint"]: c for c in certs}
        many = by_name["AdaptiveReducer.reduce_many"]
        assert many["counts"]["sources_guarded"] >= 3
        assert all(s["guarded"] for s in many["sources"])
        assert all("chain" in s and " -> " in s["chain"] for s in many["sources"])

    def test_certify_serving_path_caches_per_root(self):
        a = certify_serving_path(REPO / "src" / "repro")
        b = certify_serving_path(REPO / "src" / "repro")
        assert a is b

    def test_serving_flow_verdict_is_clean(self):
        assert serving_flow_verdict(REPO / "src" / "repro") == "clean"

    def test_certificates_are_json_serialisable(self):
        certs = certify_serving_path(REPO / "src" / "repro")
        assert json.loads(json.dumps(certs)) == certs


# -- engine/perf/obs integration -----------------------------------------------


class TestIntegration:
    def test_whole_tree_flow_under_budget(self):
        from repro.analysis.engine import discover_files

        files = discover_files([REPO / "src"])
        analysis = analyze_files(files)
        assert not analysis.findings, [f.format_text() for f in analysis.findings]
        assert analysis.elapsed_s < 10.0
        assert len(analysis.graph.modules) > 100
        assert analysis.graph.n_edges > 500

    def test_flow_findings_merge_into_lint_paths(self, tmp_path):
        from repro.analysis import lint_paths

        _write(tmp_path, _FP009_PROJECT)
        result = lint_paths([tmp_path], flow=True)
        assert result.flow is not None
        assert any(f.rule_id == "FP009" for f in result.findings)
        # --select style filtering applies to flow rules too
        narrowed = lint_paths([tmp_path], flow=True, select=["FP010"])
        assert not [f for f in narrowed.findings if f.rule_id == "FP009"]

    def test_flow_metrics_recorded_when_enabled(self, tmp_path):
        reg = get_registry()
        reg.reset()
        reg.enable()
        try:
            _flow(tmp_path, {"pkg/__init__.py": "", "pkg/a.py": "def f():\n    return 1\n"})
            snap = reg.snapshot()
            hist = snap["histograms"].get("repro_lint_flow_seconds")
            assert hist and hist[0]["count"] >= 1
            counters = snap["counters"]
            assert counters.get("repro_lint_flow_files_total")
            assert counters.get("repro_lint_flow_edges_total") is not None
        finally:
            reg.disable()
            reg.reset()

    def test_flow_rule_ids_registered_with_flow_marker(self):
        from repro.analysis import all_rules

        flow_rules = [r for r in all_rules() if getattr(r, "flow", False)]
        assert sorted(r.id for r in flow_rules) == sorted(FLOW_RULE_IDS)
        # flow rules never fire from the per-file syntactic engine
        for rule in flow_rules:
            assert list(rule.check(None)) == []
