"""Taint-style dataflow over the call graph: sources, sinks, findings.

The propagation model is reachability with witnesses.  Fact extraction
(:mod:`repro.analysis.flow.facts`) anchors every nondeterminism source at
its defining function; this module closes those facts over call, ref and
pool edges until fixpoint and materialises them as engine-compatible
:class:`~repro.analysis.base.Finding` records:

FP009
    A reduction-bearing function whose call closure contains an unguarded
    nondeterminism source.  The finding is anchored at the *source* site —
    one ``# repro: allow[FP009] -- reason`` on the source line retires every
    chain through it, which is the right granularity: the hazard is the
    source, the chains are evidence.  Per source the shortest witness chain
    is kept.
FP010
    Module-level mutable container state accessed inside a pool-worker-
    reachable function without worker-state registration.  Containers whose
    only writers live in the closure of registered initializers (or
    ``register_worker_state`` factories) are sanctioned — that is exactly
    the protocol :func:`repro.util.pool.register_worker_state` exists for.
FP011/FP013
    Local concurrency hazards from :mod:`repro.analysis.flow.hazards`,
    filtered through the same suppression machinery.

Sources and sinks inside test files are ignored: a nondeterministic test
fails loudly on its own, and FP007/FP008 already police test hygiene.  Test
*code* still participates in the graph, so a test driving a serving-path
chain neither adds noise nor hides anything.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path, PurePosixPath
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis.base import Finding, Severity, is_suppressed, parse_suppressions
from repro.analysis.flow.callgraph import CallGraph, build_callgraph
from repro.analysis.flow.facts import FunctionFacts, SourceFact, extract_facts
from repro.analysis.flow.hazards import Hazard, extract_hazards
from repro.obs import get_registry

__all__ = ["FlowAnalysis", "analyze_files", "FLOW_RULE_IDS"]

_OBS = get_registry()

FLOW_RULE_IDS = ("FP009", "FP010", "FP011", "FP013")

_SEVERITY = {
    "FP009": Severity.ERROR,
    "FP010": Severity.WARNING,
    "FP011": Severity.ERROR,
    "FP013": Severity.WARNING,
}


def _is_test_path(path: str) -> bool:
    p = PurePosixPath(path)
    return "tests" in p.parts or p.name.startswith("test_")


@dataclass
class FlowAnalysis:
    """Everything the flow pass learned about one file set."""

    graph: CallGraph
    facts: Dict[str, FunctionFacts]
    hazards: List[Hazard]
    findings: List[Finding] = field(default_factory=list)
    n_suppressed: int = 0
    elapsed_s: float = 0.0
    #: (rule_id, path, lineno) triples retired by inline suppressions —
    #: certificates count these as *guarded*, not invisible
    guarded_sites: Set[Tuple[str, str, int]] = field(default_factory=set)
    #: FP010 worker-state records: (owning fn qname, path, lineno, guarded,
    #: message) — kept separately so certificates can list guarded ones too
    fp010_entries: List[Tuple[str, str, int, bool, str]] = field(default_factory=list)

    # -- graph walking shared with certificates ------------------------------
    def adjacency(self) -> Dict[str, List[Tuple[str, str]]]:
        adj: Dict[str, List[Tuple[str, str]]] = {}
        for edge in self.graph.edges:
            adj.setdefault(edge.caller, []).append((edge.callee, edge.kind))
        for callees in adj.values():
            callees.sort()
        return adj

    def closure(self, start: str) -> Dict[str, Optional[str]]:
        """Forward-reachable functions from ``start`` with BFS parents."""
        return _bfs(self.adjacency(), [start])

    def is_guarded(self, rule_id: str, path: str, lineno: int) -> bool:
        return (rule_id, path, lineno) in self.guarded_sites


def _bfs(
    adj: Dict[str, List[Tuple[str, str]]], starts: Iterable[str]
) -> Dict[str, Optional[str]]:
    """Multi-source BFS; returns ``node -> parent`` (None for roots)."""
    parents: Dict[str, Optional[str]] = {}
    queue: deque = deque()
    for s in sorted(set(starts)):
        if s not in parents:
            parents[s] = None
            queue.append(s)
    while queue:
        node = queue.popleft()
        for callee, _kind in adj.get(node, []):
            if callee not in parents:
                parents[callee] = node
                queue.append(callee)
    return parents


def _chain(parents: Dict[str, Optional[str]], node: str) -> List[str]:
    """Path from the BFS root to ``node`` (inclusive)."""
    path: List[str] = []
    cur: Optional[str] = node
    while cur is not None:
        path.append(cur)
        cur = parents.get(cur)
    path.reverse()
    return path


def _reverse_adjacency(
    adj: Dict[str, List[Tuple[str, str]]]
) -> Dict[str, List[Tuple[str, str]]]:
    rev: Dict[str, List[Tuple[str, str]]] = {}
    for caller, callees in adj.items():
        for callee, kind in callees:
            rev.setdefault(callee, []).append((caller, kind))
    for callers in rev.values():
        callers.sort()
    return rev


def _short(graph: CallGraph, qname: str) -> str:
    fn = graph.functions.get(qname)
    return fn.short if fn is not None else qname


def _format_chain(graph: CallGraph, chain: Sequence[str]) -> str:
    return " -> ".join(_short(graph, q) for q in chain)


class _FlowPass:
    def __init__(self, graph: CallGraph, facts: Dict[str, FunctionFacts]) -> None:
        self.graph = graph
        self.facts = facts
        self.findings: List[Finding] = []
        self.n_suppressed = 0
        self.guarded_sites: Set[Tuple[str, str, int]] = set()
        self.fp010_entries: List[Tuple[str, str, int, bool, str]] = []
        self._suppressions = {
            mod.path: parse_suppressions(mod.source) for mod in graph.modules.values()
        }
        self._adj: Dict[str, List[Tuple[str, str]]] = {}
        for edge in graph.edges:
            self._adj.setdefault(edge.caller, []).append((edge.callee, edge.kind))
        for callees in self._adj.values():
            callees.sort()
        self._lines = {
            mod.path: mod.source.splitlines() for mod in graph.modules.values()
        }

    def _snippet(self, path: str, lineno: int) -> str:
        lines = self._lines.get(path, [])
        if 1 <= lineno <= len(lines):
            return lines[lineno - 1].strip()
        return ""

    def _emit(
        self, rule_id: str, path: str, lineno: int, col: int, message: str
    ) -> None:
        finding = Finding(
            rule_id=rule_id,
            severity=_SEVERITY[rule_id],
            path=path,
            line=lineno,
            col=col,
            message=message,
            snippet=self._snippet(path, lineno),
        )
        if is_suppressed(finding, self._suppressions.get(path, {})):
            self.n_suppressed += 1
            self.guarded_sites.add((rule_id, path, lineno))
        else:
            self.findings.append(finding)

    def _fact_suppressed(self, rule_id: str, path: str, lineno: int) -> bool:
        probe = Finding(
            rule_id=rule_id,
            severity=_SEVERITY[rule_id],
            path=path,
            line=lineno,
            col=0,
            message="",
        )
        return is_suppressed(probe, self._suppressions.get(path, {}))

    # -- FP009 ---------------------------------------------------------------
    def run_fp009(self) -> None:
        unguarded: List[SourceFact] = []
        for fq in sorted(self.facts):
            for fact in self.facts[fq].sources:
                if _is_test_path(fact.path):
                    continue
                if self._fact_suppressed("FP009", fact.path, fact.lineno):
                    self.n_suppressed += 1
                    self.guarded_sites.add(("FP009", fact.path, fact.lineno))
                    continue
                unguarded.append(fact)
        if not unguarded:
            return

        source_fns = {fact.qname for fact in unguarded}
        rev = _reverse_adjacency(self._adj)
        can_reach_source = set(_bfs(rev, source_fns))

        sink_fns = sorted(
            fq
            for fq, ff in self.facts.items()
            if ff.sinks and not _is_test_path(self.graph.functions[fq].path)
        )
        # per source fact: the shortest witness (chain, sink description)
        best: Dict[SourceFact, Tuple[List[str], str]] = {}
        for sink_fq in sink_fns:
            if sink_fq not in can_reach_source:
                continue
            parents = _bfs(self._adj, [sink_fq])
            sink_detail = self.facts[sink_fq].sinks[0].detail
            for fact in unguarded:
                if fact.qname not in parents:
                    continue
                chain = _chain(parents, fact.qname)
                prev = best.get(fact)
                if prev is None or len(chain) < len(prev[0]):
                    best[fact] = (chain, sink_detail)

        for fact in sorted(best, key=lambda f: (f.path, f.lineno, f.col, f.kind)):
            chain, sink_detail = best[fact]
            self._emit(
                "FP009",
                fact.path,
                fact.lineno,
                fact.col,
                f"{fact.kind} source '{fact.detail}' is reachable from the "
                f"reduction path of '{_short(self.graph, chain[0])}' "
                f"(sink: {sink_detail}); call chain: "
                f"{_format_chain(self.graph, chain)}",
            )

    # -- FP010 ---------------------------------------------------------------
    def run_fp010(self) -> None:
        writers: Dict[Tuple[str, str], Set[str]] = {}
        for fq, ff in self.facts.items():
            for acc in ff.global_accesses:
                if acc.is_write:
                    writers.setdefault((acc.module, acc.name), set()).add(fq)
        if not writers:
            return

        registered_closure = set(
            _bfs(self._adj, self.graph.registered_worker_init)
        )
        worker_parents = _bfs(self._adj, self.graph.pool_targets)

        seen: Set[Tuple[str, str, str]] = set()
        for fq in sorted(worker_parents):
            if fq in registered_closure:
                continue
            for acc in self.facts.get(fq, FunctionFacts()).global_accesses:
                key = (acc.module, acc.name)
                writer_set = writers.get(key)
                if not writer_set:
                    continue  # initialised at import, never mutated at runtime
                if not acc.is_write and writer_set <= registered_closure:
                    continue  # populated only via the registered init protocol
                dedupe = (fq, acc.module, acc.name)
                if dedupe in seen:
                    continue
                seen.add(dedupe)
                chain = _chain(worker_parents, fq)
                verb = "written" if acc.is_write else "read"
                message = (
                    f"module-level mutable state '{acc.module}.{acc.name}' "
                    f"{verb} inside pool-worker-reachable "
                    f"'{_short(self.graph, fq)}' without worker-state "
                    "registration; each worker process sees its own copy — "
                    "register a factory via repro.util.pool."
                    "register_worker_state or document why divergence is "
                    "safe; worker chain: "
                    f"{_format_chain(self.graph, chain)}"
                )
                n_before = self.n_suppressed
                self._emit("FP010", acc.path, acc.lineno, 0, message)
                guarded = self.n_suppressed > n_before
                self.fp010_entries.append(
                    (fq, acc.path, acc.lineno, guarded, message)
                )

    # -- FP011/FP013 ---------------------------------------------------------
    def run_hazards(self, hazards: List[Hazard]) -> None:
        for hz in hazards:
            self._emit(hz.rule_id, hz.path, hz.lineno, hz.col, hz.message)


def analyze_files(files: Sequence[Path]) -> FlowAnalysis:
    """Run the whole-program flow pass over ``files``."""
    t0 = time.perf_counter()
    graph = build_callgraph(files)
    facts = extract_facts(graph)
    hazards = extract_hazards(graph)

    flow = _FlowPass(graph, facts)
    flow.run_fp009()
    flow.run_fp010()
    flow.run_hazards(hazards)
    flow.findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule_id))
    elapsed = time.perf_counter() - t0

    if _OBS.enabled:
        _OBS.histogram("repro_lint_flow_seconds").observe(elapsed)
        _OBS.counter("repro_lint_flow_files_total").inc(len(graph.modules))
        _OBS.counter("repro_lint_flow_edges_total").inc(graph.n_edges)

    return FlowAnalysis(
        graph=graph,
        facts=facts,
        hazards=hazards,
        findings=flow.findings,
        n_suppressed=flow.n_suppressed,
        elapsed_s=elapsed,
        guarded_sites=flow.guarded_sites,
        fp010_entries=flow.fp010_entries,
    )
