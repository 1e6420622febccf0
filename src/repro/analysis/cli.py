"""``repro-lint``: the FP-safety & determinism linter's console entry point.

Usage::

    repro-lint src tests examples                    # text report, exit 1 on findings
    repro-lint src --format json                     # machine-readable
    repro-lint src --format sarif                    # CI code-scanning artifact
    repro-lint src --flow                            # + whole-program FP009-FP011, FP013
    repro-lint src --flow --certificates certs.json  # determinism certificates
    repro-lint src --baseline .repro-lint-baseline.json
    repro-lint src --baseline b.json --write-baseline  # (re)record current findings
    repro-lint --list-rules                          # rule catalogue
    repro-lint src --select FP001,FP006              # subset of rules

Exit codes: 0 clean (after suppressions/baseline), 1 findings, 2 parse
errors or usage errors.  Parse errors outrank findings: a file the linter
cannot read is a file it cannot vouch for, and a baseline must never be
written over one.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from repro.analysis.base import Severity, all_rules
from repro.analysis.baseline import Baseline
from repro.analysis.engine import LintResult, lint_paths

__all__ = ["main", "build_parser", "run"]

_DEFAULT_PATHS = ("src", "tests", "examples")

#: distinct exit status for parse/usage errors (argparse uses 2 as well)
EXIT_CLEAN, EXIT_FINDINGS, EXIT_ERROR = 0, 1, 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description=(
            "AST-based FP-safety & determinism linter "
            "(syntactic rules FP001-FP008; whole-program flow rules "
            "FP009-FP011, FP013 with --flow)."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=list(_DEFAULT_PATHS),
        help=f"files or directories to lint (default: {' '.join(_DEFAULT_PATHS)})",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--flow",
        action="store_true",
        help=(
            "also run the whole-program flow pass (call-graph taint "
            "analysis, rules FP009-FP011, FP013, determinism certificates)"
        ),
    )
    parser.add_argument(
        "--certificates",
        metavar="FILE",
        help=(
            "with --flow: write the serving-entrypoint determinism "
            "certificates (JSON) to FILE ('-' for stdout)"
        ),
    )
    parser.add_argument(
        "--baseline",
        metavar="FILE",
        help="JSON baseline of accepted findings; only new findings fail",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="write current findings to --baseline FILE and exit 0",
    )
    parser.add_argument(
        "--select",
        metavar="IDS",
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--ignore",
        metavar="IDS",
        help="comma-separated rule ids to skip",
    )
    parser.add_argument(
        "--min-severity",
        choices=tuple(s.name.lower() for s in Severity),
        default="info",
        help="report findings at or above this severity (default: info)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )
    parser.add_argument(
        "--statistics",
        action="store_true",
        help="append per-rule finding counts to the text report",
    )
    return parser


def _split_ids(raw: Optional[str]) -> Optional[List[str]]:
    if not raw:
        return None
    return [tok.strip().upper() for tok in raw.split(",") if tok.strip()]


def _print_rules() -> None:
    for rule in all_rules():
        kind = " (flow)" if getattr(rule, "flow", False) else ""
        print(f"{rule.id}  [{rule.severity}]{kind}  {rule.title}")
        print(f"       {rule.rationale}")


def _flow_summary_lines(result: LintResult) -> List[str]:
    analysis = result.flow
    if analysis is None:
        return []
    from repro.analysis.flow import flow_certificates

    lines = [
        f"flow: {len(analysis.graph.modules)} module(s), "
        f"{len(analysis.graph.functions)} function(s), "
        f"{analysis.graph.n_edges} edge(s) in {analysis.elapsed_s:.2f}s"
    ]
    for cert in flow_certificates(analysis):
        if not cert["resolved"]:
            lines.append(
                f"certificate {cert['entrypoint']}: UNRESOLVED "
                "(entrypoint not in the analyzed tree)"
            )
            continue
        counts = cert["counts"]
        status = "clean" if cert["clean"] else "UNGUARDED"
        lines.append(
            f"certificate {cert['entrypoint']}: {status} "
            f"({cert['n_functions']} function(s); "
            f"{counts['sources_unguarded']} unguarded / "
            f"{counts['sources_guarded']} guarded source(s); "
            f"{counts['hazards_unguarded']} unguarded / "
            f"{counts['hazards_guarded']} guarded hazard(s))"
        )
    return lines


def _report_text(result: LintResult, statistics: bool) -> None:
    for finding in result.parse_errors + result.findings:
        print(finding.format_text())
    if statistics and result.findings:
        counts: dict = {}
        for f in result.findings:
            counts[f.rule_id] = counts.get(f.rule_id, 0) + 1
        print()
        for rule_id in sorted(counts):
            print(f"{rule_id}: {counts[rule_id]}")
    for line in _flow_summary_lines(result):
        print(line)
    tail = (
        f"{len(result.findings)} finding(s) in {result.n_files} file(s)"
        f" ({result.n_suppressed} suppressed, {len(result.baselined)} baselined)"
    )
    if result.parse_errors:
        tail += f", {len(result.parse_errors)} file(s) failed to parse"
    print(tail)


def _report_json(result: LintResult) -> None:
    payload = {
        "findings": [f.to_dict() for f in result.findings],
        "parse_errors": [f.to_dict() for f in result.parse_errors],
        "baselined": len(result.baselined),
        "suppressed": result.n_suppressed,
        "files": result.n_files,
        "clean": result.clean,
    }
    if result.flow is not None:
        from repro.analysis.flow import flow_certificates

        analysis = result.flow
        payload["flow"] = {
            "modules": len(analysis.graph.modules),
            "functions": len(analysis.graph.functions),
            "edges": analysis.graph.n_edges,
            "elapsed_seconds": analysis.elapsed_s,
            "certificates": flow_certificates(analysis),
        }
    print(json.dumps(payload, indent=2))


def _report_sarif(result: LintResult) -> None:
    from repro.analysis.sarif import sarif_json

    print(sarif_json(result))


def _write_certificates(result: LintResult, target: str) -> None:
    from repro.analysis.flow import flow_certificates
    from repro.analysis.flow.certificate import certificates_to_json

    text = certificates_to_json(flow_certificates(result.flow))
    if target == "-":
        print(text)
    else:
        Path(target).write_text(text + "\n")


def run(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        _print_rules()
        return EXIT_CLEAN

    if args.write_baseline and not args.baseline:
        parser.error("--write-baseline requires --baseline FILE")
    if args.certificates and not args.flow:
        parser.error("--certificates requires --flow")

    baseline = None
    if args.baseline and not args.write_baseline:
        baseline_path = Path(args.baseline)
        if baseline_path.exists():
            try:
                baseline = Baseline.load(baseline_path)
            except (ValueError, KeyError, json.JSONDecodeError) as exc:
                parser.error(f"cannot read baseline {baseline_path}: {exc}")
        else:
            parser.error(f"baseline file not found: {baseline_path}")

    known = {rule.id for rule in all_rules()}
    for flag in ("select", "ignore"):
        unknown = [i for i in (_split_ids(getattr(args, flag)) or []) if i not in known]
        if unknown:
            # a typo'd --select would otherwise select zero rules and
            # report a clean pass — fail loudly instead
            parser.error(f"--{flag}: unknown rule id(s): {', '.join(unknown)}")

    missing = [p for p in args.paths if not Path(p).exists()]
    if missing:
        parser.error(f"no such path(s): {', '.join(missing)}")

    result = lint_paths(
        args.paths,
        baseline=baseline,
        select=_split_ids(args.select),
        ignore=_split_ids(args.ignore),
        min_severity=Severity[args.min_severity.upper()],
        flow=args.flow,
    )

    if args.write_baseline:
        if result.parse_errors:
            # refusing beats silently blessing a tree we couldn't read
            for err in result.parse_errors:
                print(err.format_text(), file=sys.stderr)
            print(
                "refusing to write a baseline while files fail to parse",
                file=sys.stderr,
            )
            return EXIT_ERROR
        Baseline.from_findings(result.findings).save(args.baseline)
        print(
            f"wrote {len(result.findings)} finding(s) to baseline {args.baseline}"
        )
        return EXIT_CLEAN

    if args.format == "json":
        _report_json(result)
    elif args.format == "sarif":
        _report_sarif(result)
    else:
        _report_text(result, args.statistics)

    if args.certificates:
        _write_certificates(result, args.certificates)

    if result.parse_errors:
        return EXIT_ERROR
    return EXIT_CLEAN if result.clean else EXIT_FINDINGS


def main() -> None:  # pragma: no cover - console wrapper
    sys.exit(run())


if __name__ == "__main__":  # pragma: no cover
    main()
