#!/usr/bin/env python3
"""Check that relative markdown links point at files that exist.

Usage::

    python scripts/check_markdown_links.py README.md docs

Each argument is a markdown file or a directory to scan recursively for
``*.md``.  Inline links and images (``[text](target)`` / ``![alt](target)``)
whose targets are not URLs or pure in-page anchors are resolved relative to
the containing file and must exist on disk.  Inline-code repository paths
(`` `src/...` ``, `` `tests/...` ``, `` `docs/...` ``, `` `scripts/...` ``,
`` `perfbench/...` ``, `` `examples/...` ``, `` `benchmarks/...` ``) are
resolved from the repository root and must exist too; a pytest node id's
``::`` suffix is dropped, and paths containing ``*``, ``<`` or ``{``
(globs and placeholders) are skipped.  Exits 1 listing every broken link;
no third-party dependencies.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

#: Inline markdown link/image: capture the target inside ``(...)``.
LINK_RE = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")

#: Targets that are not local files.
EXTERNAL_PREFIXES = ("http://", "https://", "mailto:", "ftp://")

#: Inline-code path under one of the repository's top-level directories.
CODE_PATH_RE = re.compile(
    r"`((?:src|tests|docs|scripts|perfbench|examples|benchmarks)/[^`\s]*)`"
)

#: Inline-code paths are written relative to the repository root.
REPO_ROOT = Path(__file__).resolve().parents[1]


def iter_markdown_files(arguments: list[str]) -> list[Path]:
    """Expand file / directory arguments into a sorted list of .md files."""
    files: set[Path] = set()
    for argument in arguments:
        path = Path(argument)
        if path.is_dir():
            files.update(path.rglob("*.md"))
        elif path.exists():
            files.add(path)
        else:
            print(f"error: no such file or directory: {path}", file=sys.stderr)
            sys.exit(2)
    return sorted(files)


def broken_links(markdown_file: Path) -> list[str]:
    """Relative link targets and inline-code paths that do not exist."""
    problems = []
    text = markdown_file.read_text()
    # Ignore fenced code blocks: CLI examples legitimately contain ``[...]``.
    text = re.sub(r"```.*?```", "", text, flags=re.DOTALL)
    for match in LINK_RE.finditer(text):
        target = match.group(1)
        if target.startswith(EXTERNAL_PREFIXES) or target.startswith("#"):
            continue
        file_part = target.split("#", 1)[0]
        if not file_part:
            continue
        resolved = (markdown_file.parent / file_part).resolve()
        if not resolved.exists():
            problems.append(f"{markdown_file}: broken link -> {target}")
    for match in CODE_PATH_RE.finditer(text):
        path = match.group(1).split("::", 1)[0]
        if any(char in path for char in "*<{"):
            continue
        if not (REPO_ROOT / path).exists():
            problems.append(f"{markdown_file}: missing path -> {path}")
    return problems


def main(argv: list[str]) -> int:
    """Entry point: scan every argument and report broken relative links."""
    arguments = argv or ["README.md", "docs"]
    files = iter_markdown_files(arguments)
    if not files:
        print("error: no markdown files found", file=sys.stderr)
        return 2
    problems = [problem for path in files for problem in broken_links(path)]
    for problem in problems:
        print(problem, file=sys.stderr)
    if problems:
        print(f"{len(problems)} broken link(s) or path(s)", file=sys.stderr)
        return 1
    print(
        f"checked {len(files)} markdown file(s): all relative links and "
        f"code paths resolve"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
