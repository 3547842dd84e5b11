"""CONC001: unlocked mutation of shared state on parallel code paths."""

from __future__ import annotations

import ast
from typing import ClassVar, Iterator

from repro.analysis.base import Finding, ModuleRule, SourceModule

#: Method names that mutate their receiver in place.
_MUTATORS = frozenset(
    {
        "append",
        "appendleft",
        "add",
        "update",
        "setdefault",
        "pop",
        "popitem",
        "popleft",
        "clear",
        "extend",
        "insert",
        "remove",
        "discard",
        "sort",
    }
)

#: Constructor callees whose results are mutable containers.
_MUTABLE_CALLS = frozenset(
    {
        "dict",
        "list",
        "set",
        "collections.defaultdict",
        "collections.OrderedDict",
        "collections.Counter",
        "collections.deque",
    }
)


def _is_mutable_value(module: SourceModule, node: ast.expr | None) -> bool:
    """Whether an assigned value is statically a mutable container."""
    if node is None:
        return False
    if isinstance(
        node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)
    ):
        return True
    if isinstance(node, ast.Call):
        return module.call_name(node) in _MUTABLE_CALLS
    return False


def _bound_mutables(body: list[ast.stmt], module: SourceModule) -> set[str]:
    """Names bound to mutable containers by the given statement list."""
    out: set[str] = set()
    for statement in body:
        value: ast.expr | None = None
        targets: list[ast.expr] = []
        if isinstance(statement, ast.Assign):
            value, targets = statement.value, list(statement.targets)
        elif isinstance(statement, ast.AnnAssign):
            value, targets = statement.value, [statement.target]
        if not _is_mutable_value(module, value):
            continue
        for target in targets:
            if isinstance(target, ast.Name):
                out.add(target.id)
    return out


def _class_level_mutables(node: ast.ClassDef, module: SourceModule) -> set[str]:
    """Class-body attribute names bound to mutable containers.

    Attributes re-assigned per instance (``self.X = ...`` in any method)
    are excluded: those become instance state, not shared class state.
    """
    mutable = _bound_mutables(node.body, module)
    if not mutable:
        return mutable
    for item in ast.walk(node):
        if isinstance(item, ast.Assign):
            for target in item.targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    mutable.discard(target.attr)
    return mutable


def _lock_guarded(node: ast.With, module: SourceModule) -> bool:
    """Whether a ``with`` statement's context manager looks like a lock."""
    for item in node.items:
        expr = item.context_expr
        target = expr.func if isinstance(expr, ast.Call) else expr
        name = module.dotted(target)
        if name is None and isinstance(target, ast.Attribute):
            name = target.attr
        if name is not None and "lock" in name.lower():
            return True
    return False


def _own_nodes(statement: ast.stmt) -> Iterator[ast.AST]:
    """The statement and its expressions, without nested statements."""

    def walk(node: ast.AST) -> Iterator[ast.AST]:
        yield node
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.stmt):
                continue
            yield from walk(child)

    yield from walk(statement)


class SharedStateRule(ModuleRule):
    """Flag unlocked mutation of module/class-level state on parallel paths.

    The ``--jobs`` option of ``repro run`` and ``repro plan`` runs
    experiments and plan points on a thread pool against one shared sweep
    engine; any module-level or class-level mutable container mutated on
    those paths without a lock is a data race -- lost updates at best,
    corrupted caches at worst.  The engine's own caches mutate under ``self._lock``; mutations lexically inside a
    ``with <...lock...>:`` block, and instance state assigned per object,
    are recognised as safe.
    """

    id = "CONC001"
    title = "unlocked shared-state mutation on a parallel code path"
    rationale = (
        "the --jobs thread pools of repro run and plan run this code "
        "concurrently; mutating module- or class-level containers without "
        "a lock races, silently corrupting caches and statistics.  Guard "
        "the mutation with a lock, as the engine's caches do."
    )
    #: The subsystems that execute on the ``--jobs`` thread pools, including
    #: the experiments, whose registry those pools fill on first lookup.
    scope: ClassVar[tuple[str, ...]] = (
        "repro.sim",
        "repro.serve",
        "repro.perf",
        "repro.experiments",
    )

    def _statement_mutations(
        self,
        statement: ast.stmt,
        globals_: set[str],
        class_mutables: set[str],
        declared_global: set[str],
    ) -> Iterator[tuple[ast.AST, str]]:
        """Racy mutations in one statement's own expressions (no blocks)."""

        def receiver_kind(expr: ast.expr) -> str | None:
            if isinstance(expr, ast.Name) and expr.id in globals_:
                return f"module-level '{expr.id}'"
            if (
                isinstance(expr, ast.Attribute)
                and isinstance(expr.value, ast.Name)
                and expr.value.id == "self"
                and expr.attr in class_mutables
            ):
                return f"class-level 'self.{expr.attr}'"
            return None

        for node in _own_nodes(statement):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                if node.func.attr in _MUTATORS:
                    kind = receiver_kind(node.func.value)
                    if kind is not None:
                        yield node, f"{kind} mutated via .{node.func.attr}()"
            elif isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
                for target in targets:
                    if isinstance(target, ast.Subscript):
                        kind = receiver_kind(target.value)
                        if kind is not None:
                            yield node, f"{kind} mutated via item assignment"
                    elif (
                        isinstance(target, ast.Name)
                        and target.id in declared_global
                    ):
                        yield node, (
                            f"module-level '{target.id}' rebound via "
                            f"'global' without a lock"
                        )
            elif isinstance(node, ast.Delete):
                for target in node.targets:
                    if isinstance(target, ast.Subscript):
                        kind = receiver_kind(target.value)
                        if kind is not None:
                            yield node, f"{kind} mutated via del"

    def _block_mutations(
        self,
        body: list[ast.stmt],
        module: SourceModule,
        globals_: set[str],
        class_mutables: set[str],
        declared_global: set[str],
    ) -> Iterator[tuple[ast.AST, str]]:
        """Racy mutations in a statement block, honouring lock guards."""
        for statement in body:
            if isinstance(statement, ast.Global):
                declared_global.update(statement.names)
                continue
            if isinstance(statement, ast.With) and _lock_guarded(statement, module):
                continue  # everything under a lock is presumed safe
            if isinstance(
                statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue  # nested definitions are visited separately
            yield from self._statement_mutations(
                statement, globals_, class_mutables, declared_global
            )
            for attr in ("body", "orelse", "finalbody"):
                inner = getattr(statement, attr, None)
                if isinstance(inner, list):
                    yield from self._block_mutations(
                        inner, module, globals_, class_mutables, declared_global
                    )
            for handler in getattr(statement, "handlers", None) or []:
                yield from self._block_mutations(
                    handler.body, module, globals_, class_mutables, declared_global
                )

    def check_module(self, module: SourceModule) -> Iterator[Finding]:
        """Flag racy shared-state mutation inside every function body."""
        globals_ = _bound_mutables(module.tree.body, module)

        def visit(node: ast.AST, class_mutables: set[str]) -> Iterator[Finding]:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    yield from visit(child, _class_level_mutables(child, module))
                elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    declared: set[str] = set()
                    for racy, description in self._block_mutations(
                        list(child.body),
                        module,
                        globals_,
                        class_mutables,
                        declared,
                    ):
                        yield self.finding(
                            module,
                            racy,
                            f"{description} on a --jobs thread-pool code "
                            f"path; guard it with a lock, as the engine's "
                            f"caches do",
                        )
                    yield from visit(child, class_mutables)
                else:
                    yield from visit(child, class_mutables)

        yield from visit(module.tree, set())
