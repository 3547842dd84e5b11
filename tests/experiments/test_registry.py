"""The committed experiment table: lookups import only what they need.

:data:`repro.experiments.registry.MODULES` names each experiment id's
module in artifact order, so the registry imports modules on first use.
These checks run in fresh interpreters, where no experiment module is
loaded yet.
"""

from __future__ import annotations

from repro.experiments.registry import MODULES

from tests._fresh_interpreter import run_fresh


def test_committed_table_matches_a_full_import():
    """Same ids, same order, same modules as importing every module of the package.

    The modules are imported in table order, then every other module of the
    package: an id missing from the table, a wrong module or a module's ids
    out of registration order fails.  The artifact order across modules is
    pinned by ``docs/experiments.md`` (``repro docs --check``).
    """
    registered = run_fresh(
        """
        import importlib, json, pkgutil
        import repro.experiments
        from repro.experiments.api import REGISTRY
        from repro.experiments.registry import MODULES
        for module in dict.fromkeys(MODULES.values()):
            importlib.import_module(f"repro.experiments.{module}")
        for info in pkgutil.iter_modules(repro.experiments.__path__):
            if info.name != "__main__":
                importlib.import_module(f"repro.experiments.{info.name}")
        print(json.dumps([[key, exp.fn.__module__] for key, exp in REGISTRY.items()]))
        """
    )
    table = [[key, f"repro.experiments.{module}"] for key, module in MODULES.items()]
    assert registered == table, (
        "error: repro.experiments.registry.MODULES is stale; list every registered "
        "experiment id with its module there, in artifact order"
    )


def test_one_lookup_imports_one_experiment_module():
    loaded = run_fresh(
        """
        import json, sys
        from repro.experiments import get_experiment
        from repro.experiments.registry import MODULES
        get_experiment("fig01")
        experiment_modules = {f"repro.experiments.{m}" for m in MODULES.values()}
        print(json.dumps(sorted(m for m in sys.modules if m in experiment_modules)))
        """
    )
    assert loaded == ["repro.experiments.fig01_gpu_latency"]


def test_membership_and_ids_import_no_experiment_module():
    loaded = run_fresh(
        """
        import json, sys
        from repro.experiments import EXPERIMENTS
        assert "fig19" in EXPERIMENTS and "nope" not in EXPERIMENTS
        assert len(list(EXPERIMENTS)) == len(EXPERIMENTS)
        print(json.dumps(sorted(m for m in sys.modules if m.startswith("repro.experiments."))))
        """
    )
    assert loaded == ["repro.experiments.api", "repro.experiments.registry"]


def test_threads_filling_the_registry_all_see_every_id_in_order():
    """Eight threads (more than the cores) fill an empty registry at once.

    A thread switch every microsecond interleaves the first-use imports;
    every thread must still see all 30 experiments, in artifact order.
    """
    seen = run_fresh(
        """
        import json, sys, threading
        from repro.experiments import EXPERIMENTS
        start = threading.Barrier(8)
        seen = [None] * 8
        def touch(index):
            start.wait()
            seen[index] = [exp.id for exp in EXPERIMENTS.values()]
        threads = [threading.Thread(target=touch, args=(i,)) for i in range(8)]
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(0.005)
        assert not any(thread.is_alive() for thread in threads)
        print(json.dumps(seen))
        """
    )
    assert len(MODULES) == 30
    assert seen == [list(MODULES)] * 8
