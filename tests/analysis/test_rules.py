"""One parametrized contract per rule id: bad snippets fire, good ones don't."""

from __future__ import annotations

import pytest

from repro.analysis import all_rules, get_rule, lint_file
from tests.analysis.fixtures import BAD, GOOD, RULE_IDS, materialize


def _rule_ids_in(tmp_path, rel_path, source):
    findings, _, err = lint_file(materialize(tmp_path, rel_path, source))
    assert err is None, f"fixture failed to parse: {err}"
    return {f.rule_id for f in findings}


@pytest.mark.parametrize("rule_id", RULE_IDS)
def test_bad_snippets_fire(rule_id, tmp_path):
    for i, (rel_path, source) in enumerate(BAD[rule_id]):
        seen = _rule_ids_in(tmp_path / str(i), rel_path, source)
        assert rule_id in seen, f"{rule_id} bad snippet #{i} produced {seen or '{}'}"


@pytest.mark.parametrize("rule_id", RULE_IDS)
def test_good_snippets_stay_quiet(rule_id, tmp_path):
    for i, (rel_path, source) in enumerate(GOOD[rule_id]):
        seen = _rule_ids_in(tmp_path / str(i), rel_path, source)
        assert rule_id not in seen, f"{rule_id} good snippet #{i} flagged"


def test_registry_has_all_thirteen_rules():
    from repro.analysis.flow import FLOW_RULE_IDS

    ids = [r.id for r in all_rules()]
    # sorted, deduplicated: syntactic FP001..FP008 then flow FP009..FP013
    # (the retired write-through-view id excluded)
    assert ids == RULE_IDS + list(FLOW_RULE_IDS)
    for rule_id in ids:
        rule = get_rule(rule_id)
        assert rule.id == rule_id
        assert rule.title and rule.rationale
    # flow rules are catalogue entries only for the per-file engine
    assert [r.id for r in all_rules() if getattr(r, "flow", False)] == list(
        FLOW_RULE_IDS
    )


def test_unknown_rule_id_raises():
    with pytest.raises(KeyError):
        get_rule("FP999")


def test_fp001_dyadic_literal_is_warning_not_error(tmp_path):
    from repro.analysis import Severity

    findings, _, _ = lint_file(
        materialize(
            tmp_path,
            "src/tools/sev.py",
            "def f(x):\n    a = x == 0.5\n    b = x == 0.1\n    return a or b\n",
        )
    )
    severities = [f.severity for f in findings if f.rule_id == "FP001"]
    assert severities == [Severity.WARNING, Severity.ERROR]


def test_syntax_error_reported_as_fp000(tmp_path):
    findings, n_sup, err = lint_file(
        materialize(tmp_path, "src/tools/broken.py", "def f(:\n")
    )
    assert findings == [] and n_sup == 0
    assert err is not None and err.rule_id == "FP000"
