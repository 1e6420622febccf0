"""Lint engine: walk files, parse once, run rules, filter suppressions.

The engine is deterministic by construction — files are discovered with
``sorted(rglob)`` and findings are emitted in (path, line, col, rule) order —
because a linter about nondeterminism that reported findings in directory-
enumeration order would be its own first finding (FP006).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.analysis.base import (
    FileContext,
    Finding,
    Rule,
    Severity,
    all_rules,
    is_suppressed,
    iter_findings,
    parse_suppressions,
)
from repro.analysis.baseline import Baseline

__all__ = ["LintResult", "lint_file", "lint_paths", "discover_files"]

#: Directory names never descended into.
_SKIP_DIRS = {"__pycache__", ".git", ".venv", "build", "dist", ".eggs"}


@dataclass
class LintResult:
    """Outcome of one lint run."""

    findings: List[Finding] = field(default_factory=list)  # actionable
    baselined: List[Finding] = field(default_factory=list)
    n_suppressed: int = 0
    n_files: int = 0
    parse_errors: List[Finding] = field(default_factory=list)
    #: whole-program analysis (set when the run included ``--flow``);
    #: typed loosely to keep the engine importable without the flow package
    flow: "object | None" = None

    @property
    def clean(self) -> bool:
        return not self.findings and not self.parse_errors

    def max_severity(self) -> Optional[Severity]:
        if not self.findings:
            return None
        return max(f.severity for f in self.findings)


def discover_files(paths: Sequence[str | Path]) -> List[Path]:
    """Expand files/directories into a sorted, de-duplicated .py file list."""
    out: List[Path] = []
    seen: set = set()
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            candidates = sorted(
                f
                for f in p.rglob("*.py")
                if not (set(f.parts) & _SKIP_DIRS)
            )
        elif p.suffix == ".py":
            candidates = [p]
        else:
            candidates = []
        for c in candidates:
            key = c.resolve()
            if key not in seen:
                seen.add(key)
                out.append(c)
    return out


def _display_path(path: Path) -> str:
    try:
        return path.resolve().relative_to(Path.cwd().resolve()).as_posix()
    except ValueError:
        return path.as_posix()


def lint_file(
    path: str | Path,
    rules: Optional[Iterable[Rule]] = None,
) -> Tuple[List[Finding], int, Optional[Finding]]:
    """Lint one file.

    Returns ``(findings, n_suppressed, parse_error)``; findings are sorted
    and already filtered through inline suppressions (baseline filtering is
    the caller's concern — it is repo-level, not file-level).
    """
    p = Path(path)
    display = _display_path(p)
    source = p.read_text()
    rules = list(rules) if rules is not None else all_rules()
    try:
        tree = ast.parse(source, filename=str(p))
    except SyntaxError as exc:
        err = Finding(
            rule_id="FP000",
            severity=Severity.ERROR,
            path=display,
            line=exc.lineno or 1,
            col=(exc.offset or 1) - 1,
            message=f"syntax error: {exc.msg}",
        )
        return [], 0, err
    ctx = FileContext(path=display, source=source, tree=tree)
    suppressions = parse_suppressions(source)
    kept: List[Finding] = []
    n_suppressed = 0
    for finding in iter_findings(rules, ctx):
        if is_suppressed(finding, suppressions):
            n_suppressed += 1
        else:
            kept.append(finding)
    kept.sort(key=lambda f: (f.path, f.line, f.col, f.rule_id))
    return kept, n_suppressed, None


def lint_paths(
    paths: Sequence[str | Path],
    *,
    rules: Optional[Iterable[Rule]] = None,
    baseline: Optional[Baseline] = None,
    select: Optional[Sequence[str]] = None,
    ignore: Optional[Sequence[str]] = None,
    min_severity: Severity = Severity.INFO,
    flow: bool = False,
) -> LintResult:
    """Lint a set of files/directories and return a filtered result.

    With ``flow=True`` the whole-program pass (:mod:`repro.analysis.flow`)
    runs over the same discovered file set; its FP009–FP011, FP013 findings merge
    into the result *before* baseline partitioning, so the baseline and
    suppression machinery treat syntactic and flow findings identically.
    """
    active = list(rules) if rules is not None else all_rules()
    if select:
        wanted = set(select)
        active = [r for r in active if r.id in wanted]
    if ignore:
        unwanted = set(ignore)
        active = [r for r in active if r.id not in unwanted]

    result = LintResult()
    collected: List[Finding] = []
    files = discover_files(paths)
    for path in files:
        findings, n_sup, err = lint_file(path, active)
        result.n_files += 1
        result.n_suppressed += n_sup
        if err is not None:
            result.parse_errors.append(err)
        collected.extend(f for f in findings if f.severity >= min_severity)

    if flow:
        from repro.analysis.flow import analyze_files

        analysis = analyze_files(files)
        result.flow = analysis
        result.n_suppressed += analysis.n_suppressed
        active_ids = {r.id for r in active}
        collected.extend(
            f
            for f in analysis.findings
            if f.rule_id in active_ids and f.severity >= min_severity
        )

    collected.sort(key=lambda f: (f.path, f.line, f.col, f.rule_id))
    if baseline is not None:
        result.findings, result.baselined = baseline.partition(collected)
    else:
        result.findings = collected
    return result
