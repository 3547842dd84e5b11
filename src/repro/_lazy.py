"""Lazy package re-exports (PEP 562): a name's module loads on first use.

A package ``__init__`` declares its re-exports once, grouped by the module
that defines them::

    __all__, __getattr__ = lazy_exports(__name__, {
        "repro.serve.fleet": ("FleetSimulator",),
    })

``import repro.serve`` then loads no submodule; ``repro.serve.FleetSimulator``
imports :mod:`repro.serve.fleet` and stores the class in the package's
globals, so later lookups never reach ``__getattr__`` again.  A package
``__init__`` never imports a sibling subsystem eagerly: start-up cost is
paid only for what a command touches (``docs/performance.md``).
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Mapping, Sequence


def lazy_exports(
    package: str, exports: Mapping[str, Sequence[str]]
) -> tuple[list[str], Callable[[str], Any]]:
    """``__all__`` and a module ``__getattr__`` re-exporting ``exports`` lazily.

    ``exports`` maps each defining module to the names the package
    re-exports from it.  An unknown name raises :class:`AttributeError`,
    so ``from package import submodule`` still falls back to the import
    system.
    """
    origin = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> Any:
        try:
            module = origin[name]
        except KeyError:
            raise AttributeError(f"module '{package}' has no attribute '{name}'") from None
        value = getattr(importlib.import_module(module), name)
        setattr(sys.modules[package], name, value)
        return value

    return list(origin), __getattr__
