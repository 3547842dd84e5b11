"""The ``repro lint`` command: exit codes, formats, baseline workflow.

Exit-code contract (what the CI gate keys on): 0 for a clean pass, 1 when
non-baselined findings remain, 2 for usage errors.  The shipped tree must
lint clean with the committed baseline -- the same invocation CI runs.
"""

import json

import pytest
from lint_fixtures import VIOLATED_RULES, VIOLATIONS, write_tree

from repro.analysis import load_baseline
from repro.analysis.baseline import TODO_JUSTIFICATION
from repro.experiments.cli import main


@pytest.fixture()
def clean_tree(tmp_path):
    return write_tree(tmp_path / "clean", {"repro/sim/ok.py": "X = 1\n"})


def lint(*args):
    return main(["lint", *args])


class TestExitCodes:
    def test_clean_tree_exits_zero(self, clean_tree, tmp_path, capsys):
        code = lint("--root", str(clean_tree), "--baseline", str(tmp_path / "b.json"))
        assert code == 0
        assert "clean: 0 finding(s)" in capsys.readouterr().out

    def test_violations_exit_one_with_all_six_rules(
        self, violation_tree, tmp_path, capsys
    ):
        code = lint(
            "--root", str(violation_tree), "--baseline", str(tmp_path / "b.json")
        )
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
            ("--rules", "DET001", "--update-baseline", *root),
        )
        for args in cases:
            assert lint(*args) == 2
            assert capsys.readouterr().err.startswith("error: ")

    def test_shipped_tree_is_clean_with_committed_baseline(self, capsys):
        assert lint() == 0  # exactly what the CI lint job runs
        out = capsys.readouterr().out
        assert "clean:" in out
        # A dead baseline entry would pass silently; fail on it instead.
        assert "stale baseline entry" not in out


class TestFormats:
    def test_json_document_round_trips(self, violation_tree, tmp_path, capsys):
        code = lint(
            "--root", str(violation_tree),
            "--baseline", str(tmp_path / "b.json"),
            "--format", "json",
        )
        assert code == 1
        document = json.loads(capsys.readouterr().out)
        assert document["schema"] == "repro-lint"
        assert document["clean"] is False
        assert sorted(f["rule"] for f in document["findings"]) == sorted(
            VIOLATED_RULES
        )

    def test_table_lines_carry_location_and_severity(
        self, violation_tree, tmp_path, capsys
    ):
        lint("--root", str(violation_tree), "--baseline", str(tmp_path / "b.json"))
        out = capsys.readouterr().out
        assert "repro/sim/unseeded.py:5: DET001 [error]" in out

    def test_rules_subset(self, violation_tree, tmp_path, capsys):
        code = lint(
            "--root", str(violation_tree),
            "--baseline", str(tmp_path / "b.json"),
            "--rules", "DET001",
            "--format", "json",
        )
        assert code == 1
        document = json.loads(capsys.readouterr().out)
        assert [f["rule"] for f in document["findings"]] == ["DET001"]


class TestBaselineWorkflow:
    def test_update_then_rerun_is_clean(self, violation_tree, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        assert (
            lint(
                "--root", str(violation_tree),
                "--baseline", str(baseline),
                "--update-baseline",
            )
            == 0
        )
        assert f"wrote {baseline}" in capsys.readouterr().out
        entries = load_baseline(baseline).entries
        assert sorted(e.rule for e in entries) == sorted(VIOLATED_RULES)
        assert all(e.justification == TODO_JUSTIFICATION for e in entries)

        assert lint("--root", str(violation_tree), "--baseline", str(baseline)) == 0
        out = capsys.readouterr().out
        assert "clean: 0 finding(s), 0 suppressed inline, 6 baselined" in out

    def test_fixing_a_violation_surfaces_a_stale_entry(
        self, violation_tree, tmp_path, capsys
    ):
        baseline = tmp_path / "baseline.json"
        lint(
            "--root", str(violation_tree),
            "--baseline", str(baseline),
            "--update-baseline",
        )
        fixed = violation_tree / "repro/sim/unseeded.py"
        fixed.write_text("X = 1\n")
        assert lint("--root", str(violation_tree), "--baseline", str(baseline)) == 0
        capsys.readouterr()  # drop the update run's output

        # --update-baseline prunes the now-stale DET001 entry.
        lint(
            "--root", str(violation_tree),
            "--baseline", str(baseline),
            "--update-baseline",
        )
        assert sorted(e.rule for e in load_baseline(baseline).entries) == sorted(
            set(VIOLATED_RULES) - {"DET001"}
        )

    def test_malformed_baseline_is_a_usage_error(self, clean_tree, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        assert lint("--root", str(clean_tree), "--baseline", str(bad)) == 2
        assert "error: " in capsys.readouterr().err
