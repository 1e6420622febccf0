"""Whole-program flow analysis: call graph, taint dataflow, certificates.

Public surface:

* :func:`analyze_files` — run the interprocedural pass over a file set and
  get engine-compatible findings (rules FP009–FP011, FP013) plus the graph.
* :func:`flow_certificates` / :func:`certify_serving_path` — determinism
  certificates for the serving entrypoints.
* :func:`serving_flow_verdict` — the one-word verdict
  :func:`repro.selection.certify.certify` embeds.

The syntactic FP001–FP008 rules stay file-local; this package is the layer
that sees *across* files.  See ``docs/LINT.md`` for the model.
"""

from repro.analysis.flow.callgraph import (
    CallEdge,
    CallGraph,
    FunctionInfo,
    build_callgraph,
    module_name_for,
)
from repro.analysis.flow.certificate import (
    SERVING_ENTRYPOINTS,
    certify_serving_path,
    flow_certificates,
    serving_flow_verdict,
)
from repro.analysis.flow.dataflow import FLOW_RULE_IDS, FlowAnalysis, analyze_files
from repro.analysis.flow.facts import SourceFact, extract_facts
from repro.analysis.flow.hazards import Hazard, extract_hazards

__all__ = [
    "CallEdge",
    "CallGraph",
    "FunctionInfo",
    "build_callgraph",
    "module_name_for",
    "SERVING_ENTRYPOINTS",
    "certify_serving_path",
    "flow_certificates",
    "serving_flow_verdict",
    "FLOW_RULE_IDS",
    "FlowAnalysis",
    "analyze_files",
    "SourceFact",
    "extract_facts",
    "Hazard",
    "extract_hazards",
]
