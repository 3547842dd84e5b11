"""Registry of every experiment: a committed id -> module table.

Each experiment module registers itself through the
:func:`repro.experiments.api.experiment` decorator when it is imported.
:data:`MODULES` names the module of every id, in the paper's artifact order
(the order ``repro run all`` executes), so the registry imports modules on
first use: looking up one id imports the one module that registers it, and
iterating the values imports every module, in that order.  Listing the ids
or testing membership imports nothing.

``tests/experiments/test_registry.py`` checks the table against a full
import of the package.
"""

from __future__ import annotations

import importlib
import threading
from typing import Any, Iterator, Mapping

from repro.experiments.api import (
    REGISTRY,
    Experiment,
    ExperimentResult,
    UnknownExperimentError,
)

#: Experiment id -> its module under ``repro.experiments``, in artifact order.
MODULES: dict[str, str] = {
    "fig01": "fig01_gpu_latency",
    "fig03": "fig03_runtime_breakdown",
    "fig04": "fig04_mac_utilization",
    "fig06": "fig06_fetch_sizes",
    "fig07": "fig07_footprint",
    "fig08": "fig08_optimal_format",
    "fig12": "fig12_reduction_tree",
    "fig13": "fig13_input_sparsity",
    "table02": "table02_related_work",
    "table03": "table03_mac_array",
    "fig15": "fig15_array_breakdown",
    "fig16": "fig16_cost",
    "fig17": "fig17_breakdown",
    "fig18": "fig18_latency_density",
    "fig19": "fig19_speedup_energy",
    "fig20a": "fig20a_psnr",
    "fig20b": "fig20b_batch",
    "ablation-noc": "ablation_noc",
    "ablation-compression": "ablation_compression",
    "serve-latency-sla": "serve_latency_sla",
    "serve-fleet-mix": "serve_fleet_mix",
    "serve-batch-policy": "serve_batch_policy",
    "serve-overload-sla": "serve_overload_sla",
    "serve-autoscale": "serve_autoscale",
    "serve-quality-shed": "serve_quality_shed",
    "serve-flash-crowd": "serve_flash_crowd",
    "serve-multi-tenant": "serve_multi_tenant",
    "serve-interactive": "serve_interactive",
    "plan-frontier": "plan_frontier",
    "plan-capacity": "plan_frontier",
}

#: Serialises first-use imports: ``repro run --jobs N`` reaches the registry
#: from several threads.
_import_lock = threading.Lock()


class _Registry(Mapping[str, Experiment]):
    """Experiment id -> :class:`Experiment`, importing each module on first use."""

    def __getitem__(self, key: str) -> Experiment:
        module = f"{__package__}.{MODULES[key]}"
        with _import_lock:
            importlib.import_module(module)
        return REGISTRY[key]

    def __contains__(self, key: object) -> bool:
        return key in MODULES

    def __iter__(self) -> Iterator[str]:
        return iter(MODULES)

    def __len__(self) -> int:
        return len(MODULES)


#: Experiment id -> :class:`Experiment`, in paper-artifact order.
EXPERIMENTS: Mapping[str, Experiment] = _Registry()


def get_experiment(key: str) -> Experiment:
    """Look up an experiment by id (case-insensitive), importing its module."""
    if key.lower() not in MODULES:
        raise UnknownExperimentError(key, sorted(MODULES))
    return EXPERIMENTS[key.lower()]


def run_experiment(key: str, **params: Any) -> ExperimentResult:
    """Run an experiment by id with typed parameter overrides."""
    return get_experiment(key).run(**params)


def experiments_by_tag(tag: str) -> list[Experiment]:
    """All experiments carrying ``tag``, in artifact order."""
    return [exp for exp in EXPERIMENTS.values() if tag in exp.tags]


def all_tags() -> list[str]:
    """Every tag in use, sorted."""
    return sorted({tag for exp in EXPERIMENTS.values() for tag in exp.tags})
