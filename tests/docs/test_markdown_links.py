"""Tests for ``scripts/check_markdown_links.py`` (the docs CI link check)."""

import importlib.util
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def checker():
    path = REPO_ROOT / "scripts" / "check_markdown_links.py"
    spec = importlib.util.spec_from_file_location("check_markdown_links", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write(tmp_path, text):
    path = tmp_path / "page.md"
    path.write_text(text)
    return path


def test_existing_code_paths_resolve_from_the_repo_root(checker, tmp_path):
    page = write(
        tmp_path,
        "See `scripts/check_markdown_links.py`, `tests/docs/` and\n"
        "`tests/docs/test_markdown_links.py::test_stale_code_path_fails`.\n",
    )
    assert checker.broken_links(page) == []


def test_stale_code_path_fails(checker, tmp_path, capsys):
    page = write(tmp_path, "Pinned by `tests/plan/test_cli.py`.\n")
    assert checker.broken_links(page) == [
        f"{page}: missing path -> tests/plan/test_cli.py"
    ]
    assert checker.main([str(page)]) == 1
    assert "tests/plan/test_cli.py" in capsys.readouterr().err


def test_globs_and_placeholders_are_skipped(checker, tmp_path):
    page = write(
        tmp_path,
        "Goldens live in `tests/experiments/golden/*.txt`; a point is\n"
        "`docs/<name>.md` or `src/{a,b}.py`.\n",
    )
    assert checker.broken_links(page) == []


def test_fenced_code_is_not_checked(checker, tmp_path):
    page = write(tmp_path, "```\ncat `tests/nope.py`\n```\n")
    assert checker.broken_links(page) == []


def test_checked_in_docs_pass(checker, capsys):
    readme, docs = REPO_ROOT / "README.md", REPO_ROOT / "docs"
    assert checker.main([str(readme), str(docs)]) == 0


def test_package_names_resolve_from_the_sources(checker, tmp_path):
    page = write(
        tmp_path,
        "`repro.core.device.Device` and its `repro.core.device.Device.render_frame`,\n"
        "`repro.baselines.TPUModel.fingerprint` (re-exported, inherited),\n"
        "`repro.serve.traffic` and `repro.sim.sweep.get_default_engine()`,\n"
        "`repro.serve.traffic.load_trace` (re-exported lazily).\n",
    )
    assert checker.broken_links(page) == []


def test_deleted_package_name_fails(checker, tmp_path, capsys):
    page = write(
        tmp_path,
        "Built by `repro.core.device.TPUDevice`; see `repro.nerf.nope`\n"
        "and `repro.core.device.Device.area_report`.\n",
    )
    assert checker.broken_links(page) == [
        f"{page}: unknown name -> repro.core.device.TPUDevice",
        f"{page}: unknown name -> repro.nerf.nope",
        f"{page}: unknown name -> repro.core.device.Device.area_report",
    ]
    assert checker.main([str(page)]) == 1
    assert "repro.core.device.TPUDevice" in capsys.readouterr().err
