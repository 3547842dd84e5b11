"""Every module-level import in ``src/`` is used by the module that makes it.

An import nobody reads still runs at start-up, still couples two modules
and still tells a reader a dependency exists that does not.  Neither
pyflakes nor ruff is part of the toolchain, so this guard parses every
module under ``src/`` and fails on a module-level import (including ones
under a top-level ``if``/``try``, such as ``if TYPE_CHECKING:``) whose
bound name the module never reads.  A name counts as read when it appears
as a variable anywhere in the module, inside a string annotation, or in
the module's ``__all__``.  ``from __future__`` imports are exempt.
"""

from __future__ import annotations

import ast
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"


def _module_imports(body: list[ast.stmt]):
    """Yield the import statements of a module body, entering top-level ``if``/``try``."""
    for node in body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif isinstance(node, ast.If):
            yield from _module_imports(node.body)
            yield from _module_imports(node.orelse)
        elif isinstance(node, ast.Try):
            for block in (node.body, node.orelse, node.finalbody):
                yield from _module_imports(block)
            for handler in node.handlers:
                yield from _module_imports(handler.body)


def _annotations(tree: ast.Module):
    """Yield every annotation expression in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.AnnAssign):
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg):
                if arg is not None and arg.annotation is not None:
                    yield arg.annotation
            if node.returns is not None:
                yield node.returns


def _names_read(tree: ast.Module) -> set[str]:
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    parsed = ast.parse(node.value, mode="eval")
                except SyntaxError:  # a Literal["..."] value, not a forward reference
                    continue
                names.update(n.id for n in ast.walk(parsed) if isinstance(n, ast.Name))
    for node in tree.body:
        if (
            isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            and isinstance(node.value, (ast.List, ast.Tuple))
        ):
            names.update(
                elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)
            )
    return names


def unused_imports(root: Path) -> list[str]:
    """``path:line name`` of each module-level import under ``root`` its module never reads."""
    unused = []
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        read = _names_read(tree)
        for node in _module_imports(tree.body):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.partition(".")[0]
                if alias.name != "*" and bound not in read:
                    unused.append(f"{path.relative_to(root)}:{node.lineno} {bound}")
    return unused


def test_src_has_no_unused_module_imports():
    unused = unused_imports(SRC)
    assert not unused, "module-level imports nothing reads:\n" + "\n".join(
        f"  {entry}" for entry in unused
    )


def test_scan_flags_only_unread_imports(tmp_path):
    (tmp_path / "mod.py").write_text(
        textwrap.dedent(
            """
            from __future__ import annotations

            import json
            import os.path
            from dataclasses import dataclass, field
            from typing import TYPE_CHECKING
            from collections import OrderedDict as Ordered

            if TYPE_CHECKING:
                from pathlib import Path, PurePath

            try:
                import tomllib
            except ImportError:
                import pickle

            __all__ = ["Ordered"]

            def load(path: "Path") -> dict:
                def inner():
                    import csv  # function-level: not a module import
                return json.loads(os.path.basename(path))
            """
        )
    )
    assert unused_imports(tmp_path) == [
        "mod.py:6 dataclass",
        "mod.py:6 field",
        "mod.py:11 PurePath",
        "mod.py:14 tomllib",
        "mod.py:16 pickle",
    ]
