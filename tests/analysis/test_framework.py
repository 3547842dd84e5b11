"""The analysis framework itself: discovery, suppression, schema.

Pins the contracts every rule and every CI run relies on: rules are
discovered (with unique ids), inline pragmas suppress exactly their rule,
and the JSON document's schema stays stable.
"""

import json

import pytest

from repro.analysis import (
    ModuleRule,
    Rule,
    discover_rules,
    run_lint,
    select_rules,
)
from repro.analysis.driver import SYNTAX_RULE_ID, suppressed_ids

from lint_fixtures import VIOLATED_RULES, VIOLATIONS, write_tree

ALL_RULE_IDS = sorted(VIOLATED_RULES)


class TestDiscovery:
    def test_every_shipped_rule_is_discovered(self):
        assert [rule.id for rule in discover_rules()] == ALL_RULE_IDS

    def test_rules_carry_complete_metadata(self):
        for rule in discover_rules():
            assert issubclass(rule, Rule)
            assert rule.id and rule.title and rule.rationale

    def test_select_rules_filters_and_rejects_unknown(self):
        (only,) = select_rules(["DET001"])
        assert only.id == "DET001"
        with pytest.raises(ValueError, match="unknown rule id.*NOPE"):
            select_rules(["NOPE"])

    def test_module_rule_scoping(self):
        class Scoped(ModuleRule):
            id = "TEST001"
            title = "test"
            rationale = "test"
            scope = ("repro.sim",)
            exempt = ("repro.sim.vendored",)

            def check_module(self, module):
                return iter(())

        class FakeModule:
            def __init__(self, name):
                self.name = name

        rule = Scoped()
        assert rule.applies_to(FakeModule("repro.sim"))
        assert rule.applies_to(FakeModule("repro.sim.sweep"))
        assert not rule.applies_to(FakeModule("repro.simulator"))  # not a prefix
        assert not rule.applies_to(FakeModule("repro.serve.fleet"))
        assert not rule.applies_to(FakeModule("repro.sim.vendored.noise"))


class TestRulesOnFixtures:
    def test_each_rule_fires_exactly_once_on_the_violation_tree(self, violation_tree):
        report = run_lint(violation_tree)
        assert sorted(f.rule_id for f in report.findings) == ALL_RULE_IDS

    def test_findings_point_into_the_offending_files(self, violation_tree):
        report = run_lint(violation_tree)
        by_rule = {f.rule_id: f for f in report.findings}
        assert by_rule["DET001"].path == "repro/sim/unseeded.py"
        assert by_rule["DET002"].path == "repro/nerf/clock.py"
        assert by_rule["DET003"].path == "repro/perf/tables.py"
        assert by_rule["STORE001"].path == "repro/core/device.py"
        assert by_rule["PURE001"].path == "repro/experiments/impure.py"
        assert by_rule["CONC001"].path == "repro/serve/state.py"
        for finding in report.findings:
            assert finding.line >= 1

    def test_scopes_unflag_the_same_code_elsewhere(self, tmp_path):
        # The identical sources outside the rules' scoped subsystems are
        # legitimate (e.g. clocks in repro.perf, RNG in docs tooling).
        files = {
            "repro/perf/clock.py": VIOLATIONS["repro/nerf/clock.py"],
            "tools/unseeded.py": VIOLATIONS["repro/sim/unseeded.py"],
        }
        report = run_lint(write_tree(tmp_path / "tree", files))
        assert report.clean

    def test_rule_subset_runs_only_those_rules(self, violation_tree):
        report = run_lint(violation_tree, rule_ids=["DET001", "CONC001"])
        assert sorted(f.rule_id for f in report.findings) == ["CONC001", "DET001"]

    def test_unparseable_file_is_a_syntax_finding(self, tmp_path):
        root = write_tree(tmp_path / "tree", {"repro/sim/broken.py": "def oops(:\n"})
        report = run_lint(root)
        (finding,) = report.findings
        assert finding.rule_id == SYNTAX_RULE_ID
        assert "could not be parsed" in finding.message


class TestInlineSuppression:
    def test_pragma_on_the_flagged_line(self, tmp_path):
        source = (
            "import random\n"
            "\n"
            "\n"
            "def sample():\n"
            "    return random.random()  # repro: lint-ignore[DET001]\n"
        )
        report = run_lint(write_tree(tmp_path / "t", {"repro/sim/x.py": source}))
        assert report.clean
        assert [f.rule_id for f in report.suppressed] == ["DET001"]

    def test_pragma_on_a_comment_line_above(self, tmp_path):
        source = (
            "import random\n"
            "\n"
            "\n"
            "def sample():\n"
            "    # repro: lint-ignore[DET001]\n"
            "    return random.random()\n"
        )
        report = run_lint(write_tree(tmp_path / "t", {"repro/sim/x.py": source}))
        assert report.clean

    def test_trailing_pragma_covers_its_own_line_only(self, tmp_path):
        source = (
            "import random\n"
            "\n"
            "\n"
            "def sample():\n"
            "    a = 1  # repro: lint-ignore[DET001]\n"
            "    return random.random()\n"
        )
        report = run_lint(write_tree(tmp_path / "t", {"repro/sim/x.py": source}))
        assert [f.rule_id for f in report.findings] == ["DET001"]

    def test_wrong_rule_id_does_not_suppress(self, tmp_path):
        source = (
            "import random\n"
            "\n"
            "\n"
            "def sample():\n"
            "    return random.random()  # repro: lint-ignore[DET002]\n"
        )
        report = run_lint(write_tree(tmp_path / "t", {"repro/sim/x.py": source}))
        assert [f.rule_id for f in report.findings] == ["DET001"]

    def test_wildcard_and_multi_id_pragmas(self):
        lines = [
            "x = 1  # repro: lint-ignore[*]",
            "y = 2  # repro: lint-ignore[DET001, CONC001]",
        ]
        assert suppressed_ids(lines, 1) == frozenset({"*"})
        assert suppressed_ids(lines, 2) == frozenset({"DET001", "CONC001"})


class TestJsonSchema:
    def test_report_document_schema_is_stable(self, violation_tree):
        document = run_lint(violation_tree).to_dict()
        assert sorted(document) == [
            "clean",
            "findings",
            "root",
            "rules",
            "schema",
            "schema_version",
            "suppressed",
        ]
        assert document["schema"] == "repro-lint"
        assert document["schema_version"] == 2
        assert document["clean"] is False
        for row in document["findings"]:
            assert sorted(row) == ["line", "message", "path", "rule"]
        assert sorted(r["id"] for r in document["rules"]) == ALL_RULE_IDS
        for rule in document["rules"]:
            assert sorted(rule) == ["id", "title"]

    def test_document_is_json_serializable(self, violation_tree):
        text = json.dumps(run_lint(violation_tree).to_dict())
        assert json.loads(text)["schema"] == "repro-lint"
