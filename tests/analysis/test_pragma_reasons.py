"""Every inline ``lint-ignore`` pragma under ``src/`` states its reason.

The inline pragma is the only way to silence a ``repro lint`` finding, so
the reason a finding is tolerated must sit next to it.  A pragma passes
when text follows its closing ``]`` on the same line, or when the line
directly above is a comment-only line with text of its own::

    x = time.time()  # repro: lint-ignore[DET002] provenance only

    # Provenance wall time, stripped before any comparison.
    x = time.time()  # repro: lint-ignore[DET002]

A pragma is whatever the lint driver treats as one, matched with the
driver's own pattern over raw source lines.
"""

from __future__ import annotations

import re
from pathlib import Path

from repro.analysis.driver import _PRAGMA

SRC = Path(__file__).resolve().parents[2] / "src"

#: Text counts as a reason once it holds a word, not just punctuation.
_WORD = re.compile(r"[A-Za-z]{2,}")


def _states_reason(text: str) -> bool:
    """Whether ``text`` carries reason words once pragmas are removed."""
    return bool(_WORD.search(_PRAGMA.sub("", text)))


def unexplained_pragmas(lines: list[str]) -> list[int]:
    """1-indexed lines whose pragma has no reason beside or above it."""
    missing = []
    for index, line in enumerate(lines):
        match = _PRAGMA.search(line)
        if match is None:
            continue
        if _states_reason(line[match.end():]):
            continue
        above = lines[index - 1].strip() if index else ""
        if above.startswith("#") and _states_reason(above):
            continue
        missing.append(index + 1)
    return missing


def test_every_pragma_in_src_states_a_reason():
    missing = [
        f"{path.relative_to(SRC).as_posix()}:{line}"
        for path in sorted(SRC.rglob("*.py"))
        for line in unexplained_pragmas(path.read_text().splitlines())
    ]
    assert not missing, "lint-ignore pragmas without a reason: " + ", ".join(missing)


def test_src_carries_pragmas():
    # Guards the scan itself: a broken pattern would pass vacuously.
    assert any(
        _PRAGMA.search(line)
        for path in SRC.rglob("*.py")
        for line in path.read_text().splitlines()
    )


def test_reason_after_the_bracket_or_on_the_comment_line_above():
    lines = [
        "a = f()  # repro: lint-ignore[DET002] provenance only",
        "# Provenance wall time, stripped before any comparison.",
        "b = f()  # repro: lint-ignore[DET002]",
    ]
    assert unexplained_pragmas(lines) == []


def test_bare_pragmas_are_reported():
    lines = [
        "a = f()  # repro: lint-ignore[DET002]",
        "b = f()  # repro: lint-ignore[DET002] --",
        "# repro: lint-ignore[DET001]",
        "c = g()  # repro: lint-ignore[DET001]",
        "d = 1",
        "e = f()  # repro: lint-ignore[*]",
    ]
    assert unexplained_pragmas(lines) == [1, 2, 3, 4, 6]
