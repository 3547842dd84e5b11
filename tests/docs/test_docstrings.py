"""Lightweight pydocstyle-style check over the public API surface.

The repo promises (docs/architecture.md) that ``pydoc repro.core.device``,
``pydoc repro.serve.fleet`` etc. are usable references.  This test enforces
it without external tooling: every public module, class, function, method
and property on the enforced surface must carry a docstring whose summary
line ends in a period (or a reST ``::`` literal-block marker).
"""

import importlib
import inspect

import pytest

#: Modules whose public surface must be fully documented.
ENFORCED_MODULES = (
    "repro.core.device",
    "repro.sim.sweep",
    "repro.experiments.api",
    "repro.experiments.catalog",
    "repro.experiments.cli",
    "repro.perf",
    "repro.perf.store",
    "repro.perf.bench",
    "repro.plan",
    "repro.plan.space",
    "repro.plan.evaluate",
    "repro.plan.pareto",
    "repro.plan.render",
    "repro.serve",
    "repro.serve.request",
    "repro.serve.scheduler",
    "repro.serve.fleet",
    "repro.serve.control",
    "repro.serve.report",
    "repro.serve.traffic",
    "repro.serve.traffic.importer",
    "repro.serve.traffic.session",
    "repro.serve.traffic.streams",
    "repro.analysis",
    "repro.analysis.base",
    "repro.analysis.driver",
    "repro.analysis.report",
    "repro.analysis.rules",
)


def _class_members(qualname: str, cls: type):
    """Yield (qualname, object) for the public members defined on ``cls``."""
    for name, member in vars(cls).items():
        if name.startswith("_"):
            continue
        if isinstance(member, (staticmethod, classmethod)):
            member = member.__func__
        if inspect.isfunction(member) or isinstance(member, property):
            yield f"{qualname}.{name}", member


def _public_objects(module):
    """Yield every (qualname, object) the docstring rule applies to."""
    yield module.__name__, module
    for name, obj in vars(module).items():
        if name.startswith("_"):
            continue
        if not (inspect.isclass(obj) or inspect.isfunction(obj)):
            continue
        if getattr(obj, "__module__", None) != module.__name__:
            continue  # re-exports are checked where they are defined
        qualname = f"{module.__name__}.{name}"
        yield qualname, obj
        if inspect.isclass(obj):
            yield from _class_members(qualname, obj)


def _docstring_problem(obj) -> str | None:
    """Why ``obj``'s docstring violates the rule (None when it is fine)."""
    doc = inspect.getdoc(obj)
    if not doc or not doc.strip():
        return "has no docstring"
    summary = doc.strip().splitlines()[0].strip()
    if not (summary.endswith(".") or summary.endswith("::")):
        return f"summary line does not end with a period: {summary!r}"
    return None


@pytest.mark.parametrize("module_name", ENFORCED_MODULES)
def test_public_surface_is_documented(module_name):
    module = importlib.import_module(module_name)
    problems = [
        f"{qualname}: {problem}"
        for qualname, obj in _public_objects(module)
        if (problem := _docstring_problem(obj)) is not None
    ]
    assert not problems, "\n".join(problems)


def test_enforced_surface_is_nontrivial():
    """The checker itself sees a meaningful number of objects (no silent no-op)."""
    total = sum(
        len(list(_public_objects(importlib.import_module(m))))
        for m in ENFORCED_MODULES
    )
    assert total > 80, f"only {total} objects enforced; surface walk regressed?"
