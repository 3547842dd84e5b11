"""The lint driver: parse a tree, run rules, apply inline suppressions.

:func:`run_lint` is the one entry point the CLI, CI and the test suite
share.  It loads every ``*.py`` under a root into a
:class:`~repro.analysis.base.Project`, runs the (optionally filtered) rule
set, then partitions the raw findings two ways:

* **suppressed** -- carrying a matching inline
  ``# repro: lint-ignore[RULE-ID]`` pragma on the flagged line (or alone on
  the line directly above it);
* **findings** -- everything else: every one of these gates CI.

Files that fail to parse surface as :data:`SYNTAX_RULE_ID` findings rather
than crashing the pass -- a tree the linter cannot read is not a tree it
can vouch for.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from repro.analysis.base import Finding, Project, Rule, SourceModule
from repro.analysis.rules import discover_rules

#: Pseudo rule id of files the parser could not read (always reported).
SYNTAX_RULE_ID = "SYNTAX"

#: Inline suppression pragma: ``# repro: lint-ignore[DET001]`` (one or more
#: comma-separated rule ids, or ``*`` for all rules).
_PRAGMA = re.compile(r"#\s*repro:\s*lint-ignore\[([A-Za-z0-9_*,\s]+)\]")


def default_lint_root() -> Path:
    """What ``repro lint`` scans by default: the installed package's tree.

    Anchored to the source checkout containing this package (mirroring
    :func:`repro.experiments.catalog.default_catalog_path`), so the
    installed console script lints the real sources from any working
    directory.  The root is the ``src/`` directory, so module names carry
    their full ``repro.`` prefix and rule scopes match.
    """
    return Path(__file__).resolve().parents[2]


def _module_name(rel_path: Path) -> str:
    """Dotted module name of a file path relative to the linted root."""
    parts = list(rel_path.with_suffix("").parts)
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def load_project(root: Path) -> tuple[Project, list[Finding]]:
    """Parse every ``*.py`` under ``root``; unparseable files become findings."""
    modules: list[SourceModule] = []
    problems: list[Finding] = []
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root)
        rel_posix = rel.as_posix()
        try:
            text = path.read_text()
            tree = ast.parse(text, filename=str(path))
        except (OSError, SyntaxError, ValueError) as exc:
            line = getattr(exc, "lineno", None) or 1
            problems.append(
                Finding(
                    rule_id=SYNTAX_RULE_ID,
                    path=rel_posix,
                    line=int(line),
                    message=f"file could not be parsed: {exc}",
                )
            )
            continue
        modules.append(
            SourceModule(
                path=rel_posix,
                name=_module_name(rel),
                tree=tree,
                lines=text.splitlines(),
            )
        )
    return Project(root=root, modules=modules), problems


def suppressed_ids(lines: Sequence[str], line: int) -> frozenset[str]:
    """Rule ids suppressed at physical ``line`` (1-indexed) of a file.

    A pragma suppresses the line it sits on; a pragma on a comment-only
    line additionally covers the following line, so multi-rule or long
    messages can be acknowledged without overlong source lines.
    """
    ids: set[str] = set()
    for candidate in (line, line - 1):
        if not 1 <= candidate <= len(lines):
            continue
        text = lines[candidate - 1]
        match = _PRAGMA.search(text)
        if match is None:
            continue
        comment_only = text.strip().startswith("#")
        if candidate == line - 1 and not comment_only:
            continue  # a trailing pragma covers its own line only
        ids.update(part.strip() for part in match.group(1).split(",") if part.strip())
    return frozenset(ids)


def _is_suppressed(finding: Finding, module: SourceModule | None) -> bool:
    """Whether ``finding`` carries a matching inline pragma."""
    if module is None:
        return False
    ids = suppressed_ids(module.lines, finding.line)
    return finding.rule_id in ids or "*" in ids


@dataclass(frozen=True)
class LintReport:
    """Outcome of one lint pass, already partitioned for reporting.

    ``findings`` are the actionable diagnostics (exit code 1 when
    non-empty); ``suppressed`` records what the inline pragmas absorbed.
    """

    root: str
    rules: tuple[type[Rule], ...]
    findings: tuple[Finding, ...]
    suppressed: tuple[Finding, ...]

    @property
    def clean(self) -> bool:
        """Whether the pass found nothing actionable."""
        return not self.findings

    def to_dict(self) -> dict[str, object]:
        """JSON-safe form, the ``repro lint --format json`` document."""
        return {
            "schema": "repro-lint",
            "schema_version": 2,
            "root": self.root,
            "rules": [{"id": rule.id, "title": rule.title} for rule in self.rules],
            "findings": [finding.to_dict() for finding in self.findings],
            "suppressed": [finding.to_dict() for finding in self.suppressed],
            "clean": self.clean,
        }


def select_rules(
    rule_ids: Iterable[str] | None = None,
) -> tuple[type[Rule], ...]:
    """The discovered rule set, optionally filtered to ``rule_ids``.

    Unknown ids raise ValueError with the valid set -- a typo silently
    selecting zero rules would report a misleading clean pass.
    """
    rules = discover_rules()
    if rule_ids is None:
        return rules
    wanted = list(rule_ids)
    known = {rule.id for rule in rules}
    unknown = sorted(set(wanted) - known)
    if unknown:
        raise ValueError(
            f"unknown rule id(s) {', '.join(unknown)}; "
            f"valid: {', '.join(sorted(known))}"
        )
    return tuple(rule for rule in rules if rule.id in set(wanted))


def run_lint(root: Path, rule_ids: Iterable[str] | None = None) -> LintReport:
    """Lint the tree under ``root`` and return the partitioned report."""
    rules = select_rules(rule_ids)
    project, raw = load_project(root)
    for rule_class in rules:
        raw.extend(rule_class().check(project))
    raw.sort(key=lambda f: (f.path, f.line, f.rule_id, f.message))

    by_path = {module.path: module for module in project.modules}
    actionable: list[Finding] = []
    suppressed: list[Finding] = []
    for finding in raw:
        if _is_suppressed(finding, by_path.get(finding.path)):
            suppressed.append(finding)
        else:
            actionable.append(finding)
    return LintReport(
        root=str(root),
        rules=rules,
        findings=tuple(actionable),
        suppressed=tuple(suppressed),
    )
