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
(globs and placeholders) are skipped.  Inline-code dotted names of the
package (`` `repro.core.device.Device` ``, optionally called, as in
`` `repro.sim.sweep.get_default_engine()` ``) must name a module under
``src/`` or something it defines or re-exports (eagerly or through a
``lazy_exports`` table): the sources are parsed, never imported, so a doc
naming a deleted class fails.  Exits 1 listing every broken link;
no third-party dependencies.
"""

from __future__ import annotations

import ast
import functools
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

#: Inline-code dotted name under the package, optionally with call arguments.
DOTTED_NAME_RE = re.compile(r"`(repro(?:\.[A-Za-z_]\w*)+)(?:\([^`]*\))?`")

#: Inline-code paths are written relative to the repository root.
REPO_ROOT = Path(__file__).resolve().parents[1]

#: Dotted package names resolve against the sources under ``src/``.
SOURCE_ROOT = REPO_ROOT / "src"


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


def _module_file(parts: tuple[str, ...]) -> Path | None:
    """Source file of the module ``parts`` names, if there is one."""
    base = SOURCE_ROOT.joinpath(*parts)
    for candidate in (base / "__init__.py", base.with_suffix(".py")):
        if candidate.is_file():
            return candidate
    return None


@functools.lru_cache(maxsize=None)
def _module_body(parts: tuple[str, ...]) -> list[ast.stmt] | None:
    """Top-level statements of module ``parts`` (None if it does not exist)."""
    path = _module_file(parts)
    return None if path is None else ast.parse(path.read_text()).body


def _lazy_reexports(node: ast.AST) -> dict[str, ast.ImportFrom]:
    """Names a ``lazy_exports(__name__, {module: names})`` call re-exports.

    Each name maps to the ``from module import name`` it stands for, so a
    lazy package re-export resolves like an eager one.
    """
    if not (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "lazy_exports"
        and len(node.args) == 2
        and isinstance(node.args[1], ast.Dict)
    ):
        return {}
    imports: dict[str, ast.ImportFrom] = {}
    for module, names in zip(node.args[1].keys, node.args[1].values):
        if not (isinstance(module, ast.Constant) and isinstance(names, (ast.Tuple, ast.List))):
            continue
        for name in names.elts:
            if isinstance(name, ast.Constant) and isinstance(name.value, str):
                imports[name.value] = ast.ImportFrom(
                    module=module.value, names=[ast.alias(name=name.value)], level=0
                )
    return imports


def _bindings(body: list[ast.stmt]) -> dict[str, ast.AST]:
    """Names a module or class body binds -> the statement binding them.

    Covers definitions, assignments, imports and lazy re-exports
    (:func:`_lazy_reexports`), including those nested in top-level ``if`` /
    ``try`` blocks.
    """
    names: dict[str, ast.AST] = {}
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names[node.name] = node
        elif isinstance(node, ast.Assign):
            names.update((t.id, node) for t in node.targets if isinstance(t, ast.Name))
            names.update(_lazy_reexports(node.value))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names[node.target.id] = node
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names[(alias.asname or alias.name).split(".")[0]] = node
        elif isinstance(node, (ast.If, ast.Try)):
            for block in (node.body, node.orelse, getattr(node, "finalbody", [])):
                names.update(_bindings(block))
    return names


def name_resolves(dotted: str) -> bool:
    """Whether ``dotted`` names a package module or something it defines.

    The longest prefix that is a module under ``src/`` is parsed; the rest
    is looked up in its top-level bindings, descending into class bodies
    (and their base classes) and following ``from repro... import``
    re-exports.
    """
    parts = tuple(dotted.split("."))
    split = next(
        (i for i in range(len(parts), 0, -1) if _module_file(parts[:i])), None
    )
    if split is None:
        return False
    module = ".".join(parts[:split])
    body = _module_body(parts[:split]) or []
    for index in range(split, len(parts)):
        rest = parts[index + 1:]
        node = _bindings(body).get(parts[index])
        if node is None:
            return False
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("repro"):
            original = next(a.name for a in node.names if (a.asname or a.name) == parts[index])
            return name_resolves(".".join((node.module, original, *rest)))
        if not isinstance(node, ast.ClassDef):
            # Attributes of a function or value are beyond static resolution.
            return True
        if rest and rest[0] not in _bindings(node.body):
            return any(
                name_resolves(".".join((module, base.id, *rest)))
                for base in node.bases
                if isinstance(base, ast.Name)
            )
        body = node.body
    return True


def broken_links(markdown_file: Path) -> list[str]:
    """Relative link targets, inline-code paths and package names that do not exist."""
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
    for match in DOTTED_NAME_RE.finditer(text):
        if not name_resolves(match.group(1)):
            problems.append(f"{markdown_file}: unknown name -> {match.group(1)}")
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
        f"checked {len(files)} markdown file(s): all relative links, "
        f"code paths and package names resolve"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
