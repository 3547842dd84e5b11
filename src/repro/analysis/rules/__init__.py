"""The shipped rule set, one module per rule, discovered dynamically.

Adding a rule is one file: drop a module defining a
:class:`repro.analysis.base.Rule` subclass (with a unique ``id``) into
this package and :func:`discover_rules` picks it up -- the CLI's
``--rules`` filter, the generated docs catalog and the test suite all
enumerate through here.
"""

from __future__ import annotations

import importlib
import pkgutil

from repro.analysis.base import Rule


def discover_rules() -> tuple[type[Rule], ...]:
    """Every concrete rule class shipped in this package, sorted by id.

    Scans the package's submodules for :class:`Rule` subclasses that
    declare an ``id``, enforcing id uniqueness (two rules claiming one id
    would make pragmas ambiguous).
    """
    by_id: dict[str, type[Rule]] = {}
    for info in sorted(pkgutil.iter_modules(__path__), key=lambda i: i.name):
        module = importlib.import_module(f"{__name__}.{info.name}")
        for obj in vars(module).values():
            if (
                isinstance(obj, type)
                and issubclass(obj, Rule)
                and obj.__module__ == module.__name__
                and getattr(obj, "id", "")
            ):
                existing = by_id.get(obj.id)
                if existing is not None and existing is not obj:
                    raise ValueError(
                        f"duplicate rule id '{obj.id}': "
                        f"{existing.__qualname__} and {obj.__qualname__}"
                    )
                by_id[obj.id] = obj
    return tuple(by_id[rule_id] for rule_id in sorted(by_id))


__all__ = ["discover_rules"]
