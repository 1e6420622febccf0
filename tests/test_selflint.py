"""Self-lint gate: this repository must stay clean under its own linter.

The acceptance contract for :mod:`repro.analysis`: ``repro-lint src tests
examples`` exits 0 against the committed baseline, and exits non-zero the
moment any FP001-FP008 violation is (re)introduced; with ``--flow`` the
same holds for the whole-program FP009-FP011, FP013 rules and the serving-path
determinism certificates.  Keeping this as a
tier-1 test makes the linter self-enforcing — a PR that adds a bare ``sum()``
to a summation kernel fails CI even if the author never ran the CLI.
"""

from __future__ import annotations

from pathlib import Path

from repro.analysis import Baseline, lint_paths
from repro.analysis.cli import run
from tests.analysis.fixtures import BAD, RULE_IDS, materialize

REPO = Path(__file__).resolve().parents[1]
SWEEP = [REPO / "src", REPO / "tests", REPO / "examples"]
BASELINE = REPO / ".repro-lint-baseline.json"


def test_baseline_is_committed_and_empty():
    """The repo lints clean outright; the baseline exists only as the CI
    hand-off point and must not quietly accumulate accepted debt."""
    assert BASELINE.exists()
    assert len(Baseline.load(BASELINE)) == 0


def test_repo_lints_clean():
    result = lint_paths(SWEEP, baseline=Baseline.load(BASELINE))
    formatted = "\n".join(f.format_text() for f in result.findings + result.parse_errors)
    assert result.clean, f"repo no longer lints clean:\n{formatted}"
    assert result.n_files > 100  # the sweep really covered the tree


def test_cli_gate_exits_zero():
    argv = [str(p) for p in SWEEP] + ["--baseline", str(BASELINE)]
    assert run(argv) == 0


def test_introduced_violations_fail_the_gate(tmp_path):
    """Every rule's known-bad fixture must flip the gate to non-zero."""
    for rule_id in RULE_IDS:
        rel_path, source = BAD[rule_id][0]
        materialize(tmp_path / rule_id, rel_path, source)
    result = lint_paths([tmp_path], baseline=Baseline.load(BASELINE))
    assert not result.clean
    assert {f.rule_id for f in result.findings} == set(RULE_IDS)
    assert run([str(tmp_path), "--baseline", str(BASELINE)]) == 1


def test_flow_gate_is_clean():
    """The whole-program pass (FP009-FP011, FP013) finds nothing unguarded, and
    every serving-entrypoint certificate resolves clean."""
    from repro.analysis.flow import flow_certificates

    result = lint_paths(SWEEP, baseline=Baseline.load(BASELINE), flow=True)
    formatted = "\n".join(f.format_text() for f in result.findings)
    assert result.clean, f"flow gate no longer clean:\n{formatted}"
    certs = flow_certificates(result.flow)
    assert certs and all(c["resolved"] and c["clean"] for c in certs), certs


def test_cli_flow_gate_exits_zero():
    argv = [str(p) for p in SWEEP] + ["--baseline", str(BASELINE), "--flow"]
    assert run(argv) == 0
