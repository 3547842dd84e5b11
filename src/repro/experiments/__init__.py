"""Experiment modules regenerating every table and figure of the evaluation.

Each module's ``run()`` returns its internal dataclasses and is registered
as a first-class :class:`repro.experiments.api.Experiment` (id, title, tags,
typed params).  ``Experiment.run`` wraps the same function into the uniform
:class:`repro.experiments.api.ExperimentResult` -- named columns, JSON-safe
rows, provenance -- consumed by the ``repro`` CLI, the benchmarks and the
artifact-publishing CI job.

Importing the package loads no experiment module.  The registry
(:mod:`repro.experiments.registry`) holds a committed id -> module table:
looking up one id imports that one module, and iterating the registry
imports every module in artifact order.
"""

from repro._lazy import lazy_exports

__all__, __getattr__ = lazy_exports(
    __name__,
    {
        "repro.experiments.api": (
            "BadParamError",
            "ExperimentResult",
            "Param",
            "UnknownExperimentError",
        ),
        "repro.experiments.registry": (
            "EXPERIMENTS",
            "experiments_by_tag",
            "get_experiment",
            "run_experiment",
        ),
    },
)
