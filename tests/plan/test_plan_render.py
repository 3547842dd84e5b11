"""Byte pins of the ``repro plan tiny`` renderings: table, CSV and JSON.

The golden files hold the CLI's full stdout (summary line included) for
each ``--format``.  They were recorded with the hand-padded frontier table
that :mod:`repro.plan.render` replaced with the shared ``render_grid``, so
they pin that the move changed no byte.  The JSON pin masks the three
fields that are not rendering: the wall time, the package version and the
space digest (it hashes the cost-model constants, so a cost edit moves it;
``tests/plan/test_plan_space.py`` covers it).
"""

import json
import re
from pathlib import Path

import pytest

from repro.experiments.cli import main
from repro.plan.render import normalize_result_json

GOLDEN_DIR = Path(__file__).parent / "golden"

CASES = {
    "plan_tiny.txt": (),
    "plan_tiny_constraint.txt": ("--sla-ms", "120", "--min-attainment", "0.9"),
    "plan_tiny.csv": ("--format", "csv"),
    "plan_tiny.json": ("--format", "json"),
}


def _mask(text):
    text = normalize_result_json(text)
    text = re.sub(r'("space_digest": )"[0-9a-f]+"', r'\1"<digest>"', text)
    return re.sub(r'("repo_version": )"[^"]+"', r'\1"<version>"', text)


@pytest.mark.parametrize("golden", sorted(CASES))
def test_plan_tiny_output_matches_golden(capsys, golden):
    assert main(["plan", "tiny", "--no-store", *CASES[golden]]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    expected = (GOLDEN_DIR / golden).read_text()
    assert (_mask(out) if golden.endswith(".json") else out) == expected


class TestNormalization:
    def test_masks_only_wall_time(self):
        text = json.dumps(
            {"provenance": {"wall_time_s": 1.25e-03, "repo_version": "1.2.0"}},
            indent=2,
        )
        normalized = normalize_result_json(text)
        assert '"wall_time_s": 0.0' in normalized
        assert '"repo_version": "1.2.0"' in normalized
        assert normalize_result_json(normalized) == normalized

    @pytest.mark.parametrize(
        "text,expected",
        [
            ('{"wall_time_s": 12}', '{"wall_time_s": 0.0}'),
            ('{"wall_time_s":3.5E+02}', '{"wall_time_s":0.0}'),
            (
                '[{"wall_time_s": 0.5}, {"p": {"wall_time_s": 7e-06}}]',
                '[{"wall_time_s": 0.0}, {"p": {"wall_time_s": 0.0}}]',
            ),
            ('{"total_wall_time_s": 1.5}', '{"total_wall_time_s": 1.5}'),
            ('{"wall_time": 1.5, "x": "wall_time_s"}', '{"wall_time": 1.5, "x": "wall_time_s"}'),
        ],
        ids=["integer", "compact-exponent", "every-occurrence", "other-key", "no-field"],
    )
    def test_masks_each_wall_time_number_and_nothing_else(self, text, expected):
        assert normalize_result_json(text) == expected
