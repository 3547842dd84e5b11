"""PURE001: experiment bodies doing I/O behind the result store's back."""

from __future__ import annotations

import ast
from typing import ClassVar, Iterator

from repro.analysis.base import Finding, ModuleRule, SourceModule

#: Canonical callee names that touch the filesystem or process environment.
_IMPURE_CALLS = frozenset(
    {
        "open",
        "os.getenv",
        "os.putenv",
        "os.listdir",
        "os.remove",
        "os.unlink",
        "os.rename",
        "os.replace",
        "os.makedirs",
        "os.mkdir",
        "os.scandir",
        "os.stat",
        "os.system",
        "subprocess.run",
        "subprocess.check_output",
        "subprocess.check_call",
        "subprocess.Popen",
    }
)

#: Impure canonical-name prefixes (any attribute under them is flagged).
_IMPURE_PREFIXES = ("tempfile.", "shutil.", "os.path.")

#: ``pathlib.Path`` methods that read or write the filesystem.  Matched by
#: attribute name on *any* receiver: inside an experiment body a
#: ``.read_text()`` is filesystem access no matter what it hangs off.
_PATH_IO_METHODS = frozenset(
    {
        "read_text",
        "write_text",
        "read_bytes",
        "write_bytes",
        "mkdir",
        "rmdir",
        "unlink",
        "touch",
        "glob",
        "rglob",
        "iterdir",
    }
)


def _is_experiment_decorator(module: SourceModule, node: ast.expr) -> bool:
    """Whether a decorator expression is the ``@experiment(...)`` registrar."""
    target = node.func if isinstance(node, ast.Call) else node
    name = module.dotted(target)
    return bool(name) and name.split(".")[-1] == "experiment"


class ImpureRunRule(ModuleRule):
    """Flag filesystem / environment access inside experiment ``run`` bodies.

    Cached experiment results are keyed purely on parameters, device
    fingerprints and the package's source digest; a ``run()`` that also reads files or
    ``os.environ`` has inputs the key never sees, so the store happily
    replays results computed under *different* external state.  All
    persistence belongs to the :class:`repro.perf.store.ResultStore` /
    CLI layer, which owns the artifacts directory and the cache key.
    """

    id = "PURE001"
    title = "experiment run() touches the filesystem or environment"
    rationale = (
        "Experiment results are cached by (params, package source "
        "digest); file or environment reads inside run() are "
        "inputs the cache key cannot see, so warm replays return results "
        "computed under different external state."
    )
    scope: ClassVar[tuple[str, ...]] = ("repro.experiments",)
    #: The CLI / catalog layer legitimately writes artifacts and docs.
    exempt: ClassVar[tuple[str, ...]] = (
        "repro.experiments.cli",
        "repro.experiments.catalog",
    )

    def _experiment_functions(
        self, module: SourceModule
    ) -> Iterator[ast.FunctionDef]:
        """Functions registered with ``@experiment`` (or simply named run)."""
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.FunctionDef):
                continue
            if node.name == "run" or any(
                _is_experiment_decorator(module, decorator)
                for decorator in node.decorator_list
            ):
                yield node

    def _impure_accesses(
        self, module: SourceModule, fn: ast.FunctionDef
    ) -> Iterator[tuple[ast.AST, str]]:
        """Yield (node, description) for each impure access inside ``fn``."""
        for node in ast.walk(fn):
            if isinstance(node, ast.Call):
                name = module.call_name(node)
                if name in _IMPURE_CALLS or (
                    name is not None and name.startswith(_IMPURE_PREFIXES)
                ):
                    yield node, f"call to '{name}'"
                elif (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr in _PATH_IO_METHODS
                ):
                    yield node, f"filesystem method '.{node.func.attr}()'"
            elif isinstance(node, ast.Attribute) and node.attr == "environ":
                name = module.dotted(node)
                if name == "os.environ":
                    yield node, "'os.environ' read"

    def check_module(self, module: SourceModule) -> Iterator[Finding]:
        """Flag impure access inside every experiment body of ``module``."""
        for fn in self._experiment_functions(module):
            for node, description in self._impure_accesses(module, fn):
                yield self.finding(
                    module,
                    node,
                    f"{description} inside experiment '{fn.name}()': state "
                    f"bypassing the ResultStore cannot reach the cache key",
                )
