"""One version source: the package metadata and ``repro.__version__`` agree.

The version is hashed into every result-store key, so a drift between the
two would let a release reuse results cached by an older one.  The test
reads ``pyproject.toml`` with a regex (``tomllib`` needs Python 3.11).
"""

import re
from pathlib import Path

import repro

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_pyproject_version_matches_package_version():
    text = PYPROJECT.read_text()
    project = text.split("[project]", 1)[1].split("\n[", 1)[0]
    match = re.search(r'^version\s*=\s*"([^"]+)"\s*$', project, re.MULTILINE)
    assert match is not None, "no version in pyproject.toml's [project] table"
    assert match.group(1) == repro.__version__
