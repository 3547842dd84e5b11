"""Determinism & cache-safety static analysis (the ``repro lint`` pass).

The subsystem turns the repo's load-bearing invariants -- seed
determinism, wall-clock-free results, fingerprint-complete store keys,
store-mediated experiment I/O, lock-guarded shared state -- into
machine-checked design rules over the package's own AST, in the spirit of
the design-rule checks hardware pipelines bake into their model flows.

Layout:

* :mod:`repro.analysis.base` -- :class:`Finding` / :class:`Rule` /
  :class:`ModuleRule` plus the parsed-module model with import-alias
  resolution;
* :mod:`repro.analysis.rules` -- one module per shipped rule (DET001,
  DET002, DET003, STORE001, PURE001, CONC001), discovered dynamically;
* :mod:`repro.analysis.driver` -- :func:`run_lint`: parse, check and
  apply inline ``# repro: lint-ignore[RULE-ID]`` pragmas;
* :mod:`repro.analysis.report` -- the CLI's table / json renderers.

See ``docs/linting.md`` for the rule catalog and the suppression
policy; CI gates every PR on a clean ``repro lint`` run.
"""

from repro._lazy import lazy_exports

__all__, __getattr__ = lazy_exports(
    __name__,
    {
        "repro.analysis.base": ("ModuleRule", "Rule"),
        "repro.analysis.driver": ("default_lint_root", "run_lint", "select_rules"),
        "repro.analysis.report": ("render_json", "render_table"),
        "repro.analysis.rules": ("discover_rules",),
    },
)
