"""Static FP-safety & determinism analysis (the ``repro-lint`` subsystem).

The paper's central hazard — floating-point nonassociativity meeting
nondeterministic reduction order — is invisible to ordinary linters: code
that compares floats exactly, sums with ``np.sum`` where order matters, or
iterates a ``set`` into an accumulator parses, type-checks and often even
*tests* clean, then drifts at scale.  This package is a custom AST-based
pass that catches those hazards statically:

* :mod:`repro.analysis.base` — the rule framework: :class:`Rule`,
  :class:`Finding`, severity levels, the rule registry (mirroring
  :mod:`repro.summation.registry`) and the ``# repro: allow[RULE-ID]``
  inline-suppression syntax.
* :mod:`repro.analysis.rules` — the concrete rules: syntactic FP001–FP008
  plus catalogue metadata for the whole-program FP009–FP011, FP013.
* :mod:`repro.analysis.engine` — file walking, suppression and baseline
  filtering; ``lint_paths(..., flow=True)`` merges the whole-program pass.
* :mod:`repro.analysis.flow` — the interprocedural layer: call-graph
  construction, taint dataflow (rules FP009–FP011, FP013) and the serving-path
  determinism certificates.
* :mod:`repro.analysis.baseline` — the JSON baseline (accepted legacy
  findings) used by ``repro-lint --baseline``.
* :mod:`repro.analysis.sarif` — SARIF 2.1.0 output for CI code scanning.
* :mod:`repro.analysis.cli` — the ``repro-lint`` console entry point.
* :mod:`repro.analysis.determinism` — a *static* audit of operator
  commutativity × tree-nondeterminism combinations, consumed (together with
  :func:`repro.analysis.flow.serving_flow_verdict`) by
  :func:`repro.selection.certify.certify`.
"""

from repro.analysis.base import (
    FileContext,
    Finding,
    Rule,
    Severity,
    all_rules,
    get_rule,
    register,
)
from repro.analysis.baseline import Baseline
from repro.analysis.determinism import DeterminismReport, Verdict, audit_reduction
from repro.analysis.engine import LintResult, lint_file, lint_paths

__all__ = [
    "Severity",
    "Finding",
    "Rule",
    "FileContext",
    "register",
    "get_rule",
    "all_rules",
    "Baseline",
    "LintResult",
    "lint_file",
    "lint_paths",
    "DeterminismReport",
    "Verdict",
    "audit_reduction",
]
