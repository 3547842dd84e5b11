"""Every name imported from the ``repro.serve`` package resolves.

The package re-exports only what the README, docs, examples, benchmark
workloads and tests import from it (everything else is imported from its
submodule).  This scan keeps the re-export list and those imports in step.
"""

import re
from pathlib import Path

import repro.serve

REPO_ROOT = Path(__file__).resolve().parents[2]
TREES = ("README.md", "docs", "examples", "tests", "perfbench", "benchmarks", "scripts")
PACKAGE_IMPORT = re.compile(r"from repro\.serve import (\([^)]*\)|[^\n]+)")


def imported_names() -> dict[str, str]:
    """Each name imported from ``repro.serve``, with one file importing it."""
    names: dict[str, str] = {}
    for tree in TREES:
        root = REPO_ROOT / tree
        paths = [root] if root.is_file() else sorted(root.rglob("*"))
        for path in paths:
            if path.suffix not in (".py", ".md"):
                continue
            for match in PACKAGE_IMPORT.finditer(path.read_text()):
                body = re.sub(r"#[^\n]*", "", match.group(1)).strip("()")
                for name in body.replace(",", " ").split():
                    names.setdefault(name, str(path.relative_to(REPO_ROOT)))
    return names


def test_every_imported_name_resolves_and_nothing_else_is_exported():
    imported = imported_names()
    unresolved = {
        name: path for name, path in imported.items() if not hasattr(repro.serve, name)
    }
    assert unresolved == {}
    assert sorted(repro.serve.__all__) == sorted(imported)
