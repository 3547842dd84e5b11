"""STORE001: device state invisible to the cache keys built on its fingerprint."""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator

from repro.analysis.base import Finding, Project, Rule, SourceModule

#: The root of the device class hierarchy (its own empty ``_fingerprint_state``
#: is the documented default, not a violation).
_BASE_CLASS = "Device"

#: Instance attributes the protocol-level :meth:`Device.fingerprint` already
#: covers, so device classes need not re-emit them.
_PROTOCOL_ATTRS = frozenset({"name"})


@dataclass
class _ClassInfo:
    """What STORE001 needs to know about one class definition."""

    name: str
    module: SourceModule
    node: ast.ClassDef
    base_names: tuple[str, ...]
    #: ``self.X`` attributes assigned in ``__init__`` -> assignment node.
    init_attrs: dict[str, ast.AST] = field(default_factory=dict)
    #: Dataclass field names (annotated class-level assignments).
    dataclass_attrs: dict[str, ast.AST] = field(default_factory=dict)
    #: Whether the class body defines ``_fingerprint_state``.
    has_fingerprint: bool = False
    #: ``self.X`` names read anywhere inside ``_fingerprint_state``.
    fingerprint_refs: frozenset[str] = frozenset()


def _self_attribute_targets(fn: ast.FunctionDef) -> Iterator[tuple[str, ast.AST]]:
    """Yield ``(attr, node)`` for every ``self.attr = ...`` in ``fn``."""
    for node in ast.walk(fn):
        targets: list[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        for target in targets:
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                yield target.attr, node


def _self_attribute_reads(fn: ast.FunctionDef) -> frozenset[str]:
    """Every ``self.X`` attribute name referenced anywhere inside ``fn``."""
    return frozenset(
        node.attr
        for node in ast.walk(fn)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    )


def _is_dataclass_decorated(node: ast.ClassDef, module: SourceModule) -> bool:
    """Whether the class carries a ``dataclass`` decorator."""
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        name = module.dotted(target)
        if name and name.split(".")[-1] == "dataclass":
            return True
    return False


def _collect_class(module: SourceModule, node: ast.ClassDef) -> _ClassInfo:
    """Extract the attribute / fingerprint summary of one class body."""
    info = _ClassInfo(
        name=node.name,
        module=module,
        node=node,
        base_names=tuple(
            (module.dotted(base) or "").split(".")[-1] for base in node.bases
        ),
    )
    if _is_dataclass_decorated(node, module):
        for statement in node.body:
            if isinstance(statement, ast.AnnAssign) and isinstance(
                statement.target, ast.Name
            ):
                info.dataclass_attrs[statement.target.id] = statement
    for statement in node.body:
        if not isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if statement.name == "__init__" and isinstance(statement, ast.FunctionDef):
            for attr, assign in _self_attribute_targets(statement):
                info.init_attrs.setdefault(attr, assign)
        if statement.name == "_fingerprint_state" and isinstance(
            statement, ast.FunctionDef
        ):
            info.has_fingerprint = True
            info.fingerprint_refs = _self_attribute_reads(statement)
    return info


class FingerprintCoverageRule(Rule):
    """Cross-check each ``Device`` class's state against its fingerprint.

    The sweep engine's in-memory report cache, the store's result key
    (through :func:`repro.perf.store.devices_digest`) and its plan key
    (through the plan space digest) all hash
    :meth:`repro.core.device.Device.fingerprint`, which hashes what
    ``_fingerprint_state()`` emits.  Any behavioural attribute a device class's
    ``__init__`` (or dataclass body) sets but its ``_fingerprint_state``
    never references is invisible to those keys: two differently
    configured instances collide on one cache entry and replay *stale*
    results.  The rule resolves ``_fingerprint_state`` up the
    class hierarchy (by name, within the linted tree), so classes relying
    on an inherited fingerprint are checked against it.
    """

    id = "STORE001"
    title = "device attribute missing from _fingerprint_state"
    rationale = (
        "The engine's report cache and the store's result and plan keys "
        "hash Device.fingerprint(); constructor state that "
        "_fingerprint_state() does not emit cannot invalidate them, so "
        "differently configured devices silently share -- and replay "
        "stale -- reports and results."
    )

    def _device_classes(
        self, classes: dict[str, _ClassInfo]
    ) -> dict[str, _ClassInfo]:
        """The transitive subclasses of :data:`_BASE_CLASS` in the project."""

        def is_device(name: str, seen: frozenset[str]) -> bool:
            if name == _BASE_CLASS:
                return True
            info = classes.get(name)
            if info is None or name in seen:
                return False
            return any(
                is_device(base, seen | {name}) for base in info.base_names
            )

        return {
            name: info
            for name, info in classes.items()
            if name != _BASE_CLASS and is_device(name, frozenset())
        }

    def _inherited_refs(
        self, info: _ClassInfo, classes: dict[str, _ClassInfo]
    ) -> frozenset[str] | None:
        """``self.X`` reads of the nearest ``_fingerprint_state`` up the MRO.

        Returns None when no definition is visible in the linted tree
        (outside the base class's documented empty default).
        """
        queue = [info.name]
        seen: set[str] = set()
        refs: frozenset[str] | None = None
        while queue:
            name = queue.pop(0)
            if name in seen or name == _BASE_CLASS:
                continue
            seen.add(name)
            node = classes.get(name)
            if node is None:
                continue
            if node.has_fingerprint:
                # Union along the chain: an override that calls super()
                # still covers what the parent emitted.
                refs = (refs or frozenset()) | node.fingerprint_refs
            queue.extend(node.base_names)
        return refs

    def check(self, project: Project) -> Iterator[Finding]:
        """Flag every device class attribute its fingerprint cannot see."""
        classes: dict[str, _ClassInfo] = {}
        for module in project.modules:
            for node in ast.walk(module.tree):
                if isinstance(node, ast.ClassDef):
                    classes.setdefault(node.name, _collect_class(module, node))
        for name, info in sorted(self._device_classes(classes).items()):
            attrs = dict(info.dataclass_attrs)
            attrs.update(info.init_attrs)
            behavioural = {
                attr: node
                for attr, node in attrs.items()
                if attr not in _PROTOCOL_ATTRS and not attr.startswith("_")
            }
            if not behavioural:
                continue
            refs = self._inherited_refs(info, classes)
            for attr, node in sorted(behavioural.items()):
                if refs is not None and attr in refs:
                    continue
                reason = (
                    "no _fingerprint_state() is defined anywhere on its "
                    "class chain"
                    if refs is None
                    else "_fingerprint_state() never references it"
                )
                yield self.finding(
                    info.module,
                    node,
                    f"device class '{name}' sets attribute '{attr}' but "
                    f"{reason}; the store cannot invalidate entries when "
                    f"it changes",
                )
