"""Core types of the determinism / cache-safety static-analysis pass.

The whole stack rests on invariants no test can economically guard: store
keys must capture *all* state that affects results, warm replays must be
bit-identical to cold runs, and every stream / simulator must be
seed-deterministic.  ``repro lint`` turns those invariants into
machine-checked design rules over the package's own AST.

This module defines the pieces every rule builds on:

* :class:`Finding` -- one diagnostic: rule, location and message;
* :class:`SourceModule` / :class:`Project` -- a parsed source tree with
  import-alias resolution (:meth:`SourceModule.call_name`), so rules match
  ``np.random.shuffle`` and ``from time import perf_counter`` alike;
* :class:`Rule` -- the pluggable base class (whole-program view) and
  :class:`ModuleRule` -- the common per-module specialization with dotted
  module-prefix scoping.

Rules live in :mod:`repro.analysis.rules` (one module per rule, discovered
by :func:`repro.analysis.rules.discover_rules`); the driver that runs them
is :mod:`repro.analysis.driver`.
"""

from __future__ import annotations

import abc
import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import ClassVar, Iterator


@dataclass(frozen=True)
class Finding:
    """One diagnostic: a rule violated at a specific source location.

    ``path`` is relative to the linted root (POSIX separators) so findings
    are portable across checkouts.  Every finding gates CI unless an
    inline pragma suppresses it.
    """

    rule_id: str
    path: str
    line: int
    message: str

    def location(self) -> str:
        """The finding's ``path:line`` source location."""
        return f"{self.path}:{self.line}"

    def to_dict(self) -> dict[str, object]:
        """JSON-safe form, one row of ``repro lint --format json``."""
        return {
            "rule": self.rule_id,
            "path": self.path,
            "line": self.line,
            "message": self.message,
        }


def _resolve_relative(package: str, level: int, module: str | None) -> str:
    """Absolute dotted module targeted by a relative ``from``-import."""
    parts = package.split(".") if package else []
    # level=1 means "the current package", each further level strips one.
    parts = parts[: len(parts) - (level - 1)] if level - 1 else parts
    if module:
        parts = parts + module.split(".")
    return ".".join(parts)


@dataclass
class SourceModule:
    """One parsed source file plus the lookups rules need over it."""

    #: Repo-root-relative POSIX path of the file (as findings report it).
    path: str
    #: Dotted module name relative to the linted root, e.g. ``repro.sim.sweep``.
    name: str
    #: The parsed abstract syntax tree.
    tree: ast.Module
    #: The file's physical source lines (1-indexed via ``lines[i - 1]``).
    lines: list[str]
    _aliases: dict[str, str] = field(default_factory=dict, repr=False)

    @property
    def package(self) -> str:
        """The module's parent package (itself, for a package ``__init__``)."""
        if self.path.endswith("__init__.py"):
            return self.name
        return self.name.rpartition(".")[0]

    def _build_aliases(self) -> dict[str, str]:
        """Local name -> canonical dotted target, from the module's imports."""
        aliases: dict[str, str] = {}
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for item in node.names:
                    local = item.asname or item.name.split(".")[0]
                    target = item.name if item.asname else item.name.split(".")[0]
                    aliases[local] = target
            elif isinstance(node, ast.ImportFrom):
                base = (
                    _resolve_relative(self.package, node.level, node.module)
                    if node.level
                    else (node.module or "")
                )
                for item in node.names:
                    if item.name == "*":
                        continue
                    local = item.asname or item.name
                    aliases[local] = f"{base}.{item.name}" if base else item.name
        return aliases

    @property
    def aliases(self) -> dict[str, str]:
        """Import-alias map (``np`` -> ``numpy``), built lazily and cached."""
        if not self._aliases:
            self._aliases = self._build_aliases()
        return self._aliases

    def dotted(self, node: ast.expr) -> str | None:
        """Canonical dotted name of a ``Name`` / ``Attribute`` chain.

        The chain's base name is resolved through the module's import
        aliases, so ``np.random.shuffle`` canonicalizes to
        ``numpy.random.shuffle`` and a bare ``perf_counter`` imported from
        :mod:`time` canonicalizes to ``time.perf_counter``.  Returns None
        for expressions that are not plain attribute chains.
        """
        parts: list[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        base = self.aliases.get(node.id, node.id)
        parts.append(base)
        return ".".join(reversed(parts))

    def call_name(self, node: ast.Call) -> str | None:
        """Canonical dotted name of a call's callee (None when not a chain)."""
        return self.dotted(node.func)


@dataclass
class Project:
    """Every parsed module under the linted root, in path order."""

    root: Path
    modules: list[SourceModule]

    def module(self, name: str) -> SourceModule | None:
        """Look one module up by its dotted name (None when absent)."""
        for module in self.modules:
            if module.name == name:
                return module
        return None


class Rule(abc.ABC):
    """One design rule: a whole-program check producing :class:`Finding`\\ s.

    Subclasses set the class attributes (``id`` must be unique across the
    rule set; :func:`repro.analysis.rules.discover_rules` enforces it) and
    implement :meth:`check`.  Rules that work file-by-file should subclass
    :class:`ModuleRule` instead and get module-prefix scoping for free.
    """

    #: Unique rule identifier, e.g. ``DET001`` (used in pragmas).
    id: ClassVar[str] = ""
    #: One-line summary of what the rule forbids.
    title: ClassVar[str] = ""
    #: Why violating the rule corrupts caching / reproducibility.
    rationale: ClassVar[str] = ""

    @abc.abstractmethod
    def check(self, project: Project) -> Iterator[Finding]:
        """Yield every violation of this rule found in ``project``."""

    def finding(self, module: SourceModule, node: ast.AST, message: str) -> Finding:
        """Build one :class:`Finding` at ``node``'s location in ``module``."""
        return Finding(
            rule_id=self.id,
            path=module.path,
            line=getattr(node, "lineno", 1),
            message=message,
        )


class ModuleRule(Rule):
    """A rule checked independently per module, scoped by dotted prefixes.

    ``scope`` limits the rule to modules matching any prefix (empty means
    every module); ``exempt`` then carves allowed modules back out -- e.g.
    the wall-clock rule exempts ``repro.perf``, whose whole point is
    measuring wall time.  A prefix matches the module itself and everything
    beneath it.
    """

    #: Dotted module prefixes the rule applies to (empty: all modules).
    scope: ClassVar[tuple[str, ...]] = ()
    #: Dotted module prefixes exempted from the rule.
    exempt: ClassVar[tuple[str, ...]] = ()

    @staticmethod
    def _matches(name: str, prefixes: tuple[str, ...]) -> bool:
        """Whether ``name`` is one of ``prefixes`` or nested under one."""
        return any(
            name == prefix or name.startswith(prefix + ".") for prefix in prefixes
        )

    def applies_to(self, module: SourceModule) -> bool:
        """Whether ``module`` is inside the rule's scope and not exempted."""
        if self.scope and not self._matches(module.name, self.scope):
            return False
        return not self._matches(module.name, self.exempt)

    def check(self, project: Project) -> Iterator[Finding]:
        """Run :meth:`check_module` over every in-scope module."""
        for module in project.modules:
            if self.applies_to(module):
                yield from self.check_module(module)

    @abc.abstractmethod
    def check_module(self, module: SourceModule) -> Iterator[Finding]:
        """Yield every violation of this rule inside one module."""
