"""Start-up imports: a command loads only the modules it uses.

Package ``__init__``s re-export lazily (``repro._lazy.lazy_exports``) and
never import a sibling subsystem eagerly, so ``import repro.serve`` pays
for the serving layer only.  Each check runs in a fresh interpreter, since
the test process has long since imported everything.  The checks assert
which modules load, never how long loading takes.
"""

from __future__ import annotations

from tests._fresh_interpreter import SRC, run_fresh

#: Modules the serving layer must not load: the experiment modules, the
#: bench harness, plan evaluation and the lint pass.
NOT_FOR_SERVING = (
    "repro.experiments",
    "repro.perf.bench",
    "repro.plan.evaluate",
    "repro.analysis",
)


def test_serving_imports_no_experiment_bench_plan_or_lint_module():
    loaded = run_fresh(
        """
        import json, sys
        import repro.serve
        for name in repro.serve.__all__:
            getattr(repro.serve, name)
        print(json.dumps(sorted(m for m in sys.modules if m.startswith("repro"))))
        """
    )
    assert "repro.serve.fleet" in loaded
    unexpected = [m for m in loaded if m.startswith(NOT_FOR_SERVING)]
    assert unexpected == [], f"import repro.serve loaded {unexpected}"


def test_package_import_loads_no_submodule():
    loaded = run_fresh(
        """
        import json, sys
        import repro, repro.core, repro.experiments, repro.perf, repro.plan, repro.serve
        print(json.dumps(sorted(m for m in sys.modules if m.startswith("repro"))))
        """
    )
    assert loaded == [
        "repro",
        "repro._lazy",
        "repro.core",
        "repro.experiments",
        "repro.perf",
        "repro.plan",
        "repro.serve",
    ]


def test_every_module_imports_first_without_a_cycle():
    """Each module imports cleanly into an interpreter holding no ``repro`` module.

    An import cycle between packages shows only when a module of the cycle
    is the first one imported; an eager package ``__init__`` that happens to
    import the cycle in a working order hides it from every other entry
    point.
    """
    modules = sorted(
        ".".join(path.relative_to(SRC).with_suffix("").parts).removesuffix(".__init__")
        for path in (SRC / "repro").rglob("*.py")
        if path.name != "__main__.py"
    )
    failures = run_fresh(
        f"""
        import importlib, json, sys
        failures = []
        for name in {modules!r}:
            for loaded in [m for m in sys.modules if m == "repro" or m.startswith("repro.")]:
                del sys.modules[loaded]
            try:
                importlib.import_module(name)
            except Exception as exc:
                failures.append(f"{{name}}: {{type(exc).__name__}}: {{exc}}")
        print(json.dumps(failures))
        """
    )
    assert len(modules) > 100
    assert failures == []
