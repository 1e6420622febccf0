"""``repro-lint`` CLI contract: exit codes, formats, baseline workflow."""

from __future__ import annotations

import json

import pytest

from repro.analysis.cli import run
from tests.analysis.fixtures import materialize

_CLEAN = "import math\ndef f(x):\n    return math.isclose(x, 0.1)\n"
_BAD = "def f(x):\n    if x == 0.1:\n        return 1\n    return 0\n"
_WARN_ONLY = "def f(x):\n    return x == 0.5\n"  # dyadic: FP001 warning


def _file(tmp_path, source, sub="src/tools/snippet.py"):
    return str(materialize(tmp_path, sub, source))


def test_clean_tree_exits_zero(tmp_path, capsys):
    assert run([_file(tmp_path, _CLEAN)]) == 0
    assert "0 finding(s)" in capsys.readouterr().out


def test_findings_exit_one(tmp_path, capsys):
    assert run([_file(tmp_path, _BAD)]) == 1
    out = capsys.readouterr().out
    assert "FP001" in out and "1 finding(s)" in out


def test_json_format(tmp_path, capsys):
    assert run([_file(tmp_path, _BAD), "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["clean"] is False and payload["files"] == 1
    assert payload["findings"][0]["rule"] == "FP001"
    assert "fingerprint" in payload["findings"][0]


def test_list_rules(capsys):
    assert run(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for i in range(1, 9):
        assert f"FP00{i}" in out
    for i in (9, 10, 11, 13):
        assert f"FP{i:03d}" in out
    assert "(flow)" in out


def test_select_and_ignore(tmp_path):
    target = _file(tmp_path, _BAD)
    assert run([target, "--select", "FP006"]) == 0
    assert run([target, "--ignore", "FP001"]) == 0
    assert run([target, "--select", "FP001"]) == 1


def test_min_severity_filters_warnings(tmp_path):
    target = _file(tmp_path, _WARN_ONLY)
    assert run([target]) == 1
    assert run([target, "--min-severity", "error"]) == 0


def test_baseline_workflow(tmp_path, capsys):
    target = _file(tmp_path, _BAD)
    baseline = str(tmp_path / "baseline.json")
    assert run([target, "--baseline", baseline, "--write-baseline"]) == 0
    capsys.readouterr()
    # known findings are baselined away ...
    assert run([target, "--baseline", baseline]) == 0
    assert "1 baselined" in capsys.readouterr().out
    # ... but a NEW finding still fails
    worse = _BAD + "def g(x):\n    return x != 0.3\n"
    target2 = _file(tmp_path / "more", worse)
    assert run([target2, "--baseline", baseline]) == 1


def test_usage_errors_exit_two(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run(["--write-baseline", _file(tmp_path, _CLEAN)])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run([str(tmp_path / "does-not-exist")])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run([_file(tmp_path, _CLEAN), "--baseline", str(tmp_path / "missing.json")])
    assert exc.value.code == 2
    # a typo'd rule id must fail loudly, not select zero rules and pass
    with pytest.raises(SystemExit) as exc:
        run([_file(tmp_path, _BAD), "--select", "FP999"])
    assert exc.value.code == 2


def test_syntax_error_exits_two(tmp_path, capsys):
    """Parse errors outrank findings: exit 2, distinct from exit 1."""
    target = _file(tmp_path, "def f(:\n")
    assert run([target]) == 2
    assert "FP000" in capsys.readouterr().out


def test_write_baseline_refuses_parse_errors(tmp_path, capsys):
    """A baseline must never bless a tree the linter could not read."""
    bad = _file(tmp_path, _BAD)
    broken = _file(tmp_path / "b", "def f(:\n")
    baseline = tmp_path / "baseline.json"
    assert run([bad, broken, "--baseline", str(baseline), "--write-baseline"]) == 2
    captured = capsys.readouterr()
    assert "refusing" in captured.err
    assert not baseline.exists()


def test_sarif_format(tmp_path, capsys):
    assert run([_file(tmp_path, _BAD), "--format", "sarif"]) == 1
    log = json.loads(capsys.readouterr().out)
    assert log["version"] == "2.1.0"
    (sarif_run,) = log["runs"]
    rule_ids = {r["id"] for r in sarif_run["tool"]["driver"]["rules"]}
    # the full catalogue ships even on clean runs: FP000 + every rule
    assert {"FP000", "FP001", "FP009", "FP013"} <= rule_ids
    (result,) = sarif_run["results"]
    assert result["ruleId"] == "FP001" and result["level"] == "error"
    assert result["partialFingerprints"]["reproLintFingerprint/v1"]
    region = result["locations"][0]["physicalLocation"]["region"]
    assert region["startLine"] == 2


def test_flow_mode_reports_certificates(tmp_path, capsys):
    assert run([_file(tmp_path, _CLEAN), "--flow"]) == 0
    out = capsys.readouterr().out
    assert "flow:" in out
    # entrypoints are not in a one-file fixture tree: reported, not hidden
    assert out.count("UNRESOLVED") == 4


def test_flow_certificates_written_to_file(tmp_path, capsys):
    target = _file(tmp_path, _CLEAN)
    certs_path = tmp_path / "certs.json"
    assert run([target, "--flow", "--certificates", str(certs_path)]) == 0
    capsys.readouterr()
    certs = json.loads(certs_path.read_text())
    assert len(certs) == 4
    assert all(c["schema"] == "repro-flow-certificate/1" for c in certs)


def test_certificates_require_flow(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run([_file(tmp_path, _CLEAN), "--certificates", "-"])
    assert exc.value.code == 2
