"""The ``repro lint`` command: exit codes and formats.

Exit-code contract (what the CI gate keys on): 0 for a clean pass, 1 when
findings remain, 2 for usage errors.  The shipped tree must lint clean --
the same invocation CI runs.
"""

import json

import pytest
from lint_fixtures import VIOLATED_RULES, VIOLATIONS, write_tree

from repro.experiments.cli import main


@pytest.fixture()
def clean_tree(tmp_path):
    return write_tree(tmp_path / "clean", {"repro/sim/ok.py": "X = 1\n"})


def lint(*args):
    return main(["lint", *args])


class TestExitCodes:
    def test_clean_tree_exits_zero(self, clean_tree, capsys):
        code = lint("--root", str(clean_tree))
        assert code == 0
        assert "clean: 0 finding(s)" in capsys.readouterr().out

    def test_violations_exit_one_with_all_six_rules(self, violation_tree, capsys):
        code = lint("--root", str(violation_tree))
        assert code == 1
        out = capsys.readouterr().out
        for rule_id in VIOLATED_RULES:
            assert rule_id in out

    def test_usage_errors_exit_two(self, violation_tree, tmp_path, capsys):
        root = ("--root", str(violation_tree))
        cases = (
            ("--rules", "NOPE", *root),
            ("--format", "xml", *root),
            ("--root", str(tmp_path / "missing")),
        )
        for args in cases:
            assert lint(*args) == 2
            assert capsys.readouterr().err.startswith("error: ")

    def test_removed_baseline_options_are_unknown(self, capsys):
        for option in ("--baseline", "--update-baseline"):
            assert lint(option) == 2
            assert capsys.readouterr().err.startswith(
                f"error: unknown option '{option}'"
            )

    def test_shipped_tree_is_clean(self, capsys):
        assert lint() == 0  # exactly what the CI lint job runs
        assert capsys.readouterr().out.startswith("clean: 0 finding(s)")


class TestFormats:
    def test_json_document_round_trips(self, violation_tree, capsys):
        code = lint("--root", str(violation_tree), "--format", "json")
        assert code == 1
        document = json.loads(capsys.readouterr().out)
        assert document["schema"] == "repro-lint"
        assert document["clean"] is False
        assert sorted(f["rule"] for f in document["findings"]) == sorted(
            VIOLATED_RULES
        )

    def test_table_lines_carry_location_and_rule(self, violation_tree, capsys):
        lint("--root", str(violation_tree))
        out = capsys.readouterr().out
        assert "repro/sim/unseeded.py:5: DET001 " in out
        assert "[error]" not in out

    def test_rules_subset(self, violation_tree, capsys):
        code = lint(
            "--root", str(violation_tree), "--rules", "DET001", "--format", "json"
        )
        assert code == 1
        document = json.loads(capsys.readouterr().out)
        assert [f["rule"] for f in document["findings"]] == ["DET001"]

