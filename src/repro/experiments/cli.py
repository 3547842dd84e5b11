"""The ``repro`` command line: list, run, benchmark and cache-manage.

Usage::

    repro list [--tags frame-sim,hw-cost] [--format table|json]
    repro run <ids|tag:TAG|all> [--format table|json|csv] [--out DIR]
              [--jobs N] [--no-store] [per-experiment param flags]
    repro plan <spec> [--format table|json|csv] [--out PATH] [--check PATH]
               [--store DIR] [--no-store] [--jobs N] [--sla-ms X]
               [--min-attainment F]
    repro docs [--out PATH] [--check]
    repro lint [--format table|json] [--rules ID[,ID]] [--root PATH]
    repro bench [--quick] [--out PATH] [--validate PATH]
                [--compare A.json B.json] [--trend [--dir PATH]]
    repro cache <stats|clear|evict> [--dir PATH] [--format table|json]
                [--max-entries N] [--max-age-days D]

Examples::

    repro list --tags frame-sim
    repro run fig19 --models all --pruning-ratios 0,0.5,0.9
    repro run tag:serving --format json
    repro run all --format json --out artifacts/ --jobs 4
    repro run all --no-store          # force cold, bypass the result store
    repro plan tiny                   # Pareto frontier of the built-in tiny space
    repro plan reference --sla-ms 250 --min-attainment 0.99
    repro docs --check
    repro lint                        # determinism / cache-safety pass, exits 1 on findings
    repro lint --rules DET001,CONC001 --format json
    repro bench --quick --out bench/  # emit a BENCH_<rev>.json smoke point
    repro bench --compare BENCH_a.json BENCH_b.json
    repro cache stats --format json
    repro cache evict --max-entries 5000

``repro plan`` searches a fleet capacity-plan space (:mod:`repro.plan`):
every candidate (device mix, worker count, scheduler, control variant) is
simulated against the spec's traffic and scored, the Pareto frontier over
(cost/request, p99, energy/request) is reported, and ``--sla-ms`` /
``--min-attainment`` solve for the cheapest feasible point.  Evaluated
points are cached in the store's plan tier, so a warm re-run re-evaluates
nothing and ``--check`` compares it with an earlier output -- see
``docs/planning.md``.

Every selected experiment's typed parameters are exposed as ``--flag value``
options (``repro list --format json`` shows them); a flag applies to every
selected experiment declaring that parameter.  Unknown experiment ids,
unknown tags and malformed parameter values exit with status 2 and a
one-line message -- never a traceback.

``repro run`` reads and writes the persistent result store
(:mod:`repro.perf.store`) by default, so re-runs with an unchanged
simulation model skip cycle-level simulation entirely; ``--no-store``
bypasses it.  The command surface below is described declaratively by
:data:`COMMANDS`: it drives argument parsing and renders both this usage
text and the generated ``docs/experiments.md`` catalog, so a flag that is
not documented cannot be parsed and ``repro docs --check`` guards the
documented CLI against drift.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Sequence, TextIO

from repro.experiments.api import (
    BadParamError,
    Experiment,
    ExperimentResult,
    UnknownExperimentError,
)
from repro.experiments.registry import (
    EXPERIMENTS,
    all_tags,
    experiments_by_tag,
    get_experiment,
)

@dataclass(frozen=True)
class CommandOption:
    """One documented option of a CLI command (parser, usage and catalog).

    ``value`` is also the option's parse rule: an empty value is a boolean
    flag, ``a|b|c`` a closed choice, and N words take N values.
    """

    flag: str
    value: str
    help: str

    @property
    def syntax(self) -> str:
        """The option as written on a command line, e.g. ``--jobs N``."""
        return f"{self.flag} {self.value}".strip()


@dataclass(frozen=True)
class CommandSpec:
    """One ``repro`` subcommand: name, operands, summary and options.

    The argument parser reads these specs, and the usage screen and the CLI
    section of the generated experiment catalog are rendered from them, so
    the documented command surface cannot drift from the implemented one.
    An option listed as ``--<param>`` collects every other flag as a
    per-experiment parameter.
    """

    name: str
    summary: str
    operands: tuple[tuple[str, str], ...] = ()
    options: tuple[CommandOption, ...] = ()


#: The documented ``repro`` command surface, in help order.
COMMANDS: tuple[CommandSpec, ...] = (
    CommandSpec(
        "list",
        "list registered experiments",
        options=(
            CommandOption("--tags", "TAG[,TAG]", "only experiments carrying any given tag"),
            CommandOption("--format", "table|json", "json includes the typed parameter schemas"),
        ),
    ),
    CommandSpec(
        "run",
        "run experiments and render / write their results",
        operands=(("selectors", "experiment ids, tag:TAG groups, or 'all'"),),
        options=(
            CommandOption("--format", "table|json|csv", "output rendering"),
            CommandOption("--out", "DIR", "write one artifact file per experiment"),
            CommandOption("--jobs", "N", "run up to N experiments concurrently"),
            CommandOption("--no-store", "", "bypass the persistent result store (force cold simulation)"),
            CommandOption("--<param>", "VALUE", "any selected experiment's typed parameter"),
        ),
    ),
    CommandSpec(
        "plan",
        "search a fleet plan space and report its Pareto frontier",
        operands=(("spec", "built-in plan-space name (tiny, reference) or a JSON spec file"),),
        options=(
            CommandOption("--format", "table|json|csv", "output rendering (default: table)"),
            CommandOption("--out", "PATH", "write the rendered plan to a file instead of stdout"),
            CommandOption("--check", "PATH", "verify output matches a reference file (wall-clock field excluded)"),
            CommandOption("--store", "DIR", "result store caching evaluated points (default: $REPRO_STORE_DIR or .repro-store)"),
            CommandOption("--no-store", "", "bypass the persistent result store (force re-evaluation)"),
            CommandOption("--jobs", "N", "evaluate up to N candidates concurrently"),
            CommandOption("--sla-ms", "X", "constraint: cheapest point with p99 <= X milliseconds"),
            CommandOption("--min-attainment", "F", "constraint: require SLO attainment >= F (in [0, 1])"),
        ),
    ),
    CommandSpec(
        "trace",
        "validate and summarize a serving-log trace (see docs/scenarios.md)",
        operands=(("path", "trace file: .csv or .jsonl serving log"),),
        options=(
            CommandOption("--summarize", "", "print per-scenario / per-tenant breakdown tables"),
            CommandOption("--to-json", "", "re-emit the validated trace as lossless JSON lines on stdout"),
        ),
    ),
    CommandSpec(
        "docs",
        "regenerate the experiment catalog (docs/experiments.md)",
        options=(
            CommandOption("--out", "PATH", "where to write the catalog"),
            CommandOption("--check", "", "exit 1 if the checked-in catalog is stale"),
        ),
    ),
    CommandSpec(
        "lint",
        "run the determinism / cache-safety static-analysis pass",
        options=(
            CommandOption("--format", "table|json", "diagnostic rendering (default: table)"),
            CommandOption("--rules", "ID[,ID]", "run only the given rule ids (default: all)"),
            CommandOption("--root", "PATH", "tree to lint (default: the installed repro package sources)"),
        ),
    ),
    CommandSpec(
        "bench",
        "measure a BENCH_<rev>.json performance trajectory point",
        options=(
            CommandOption("--quick", "", "CI-smoke footprint (small sweep, 5 experiments)"),
            CommandOption("--out", "PATH", "output file or directory (default: checkout root)"),
            CommandOption("--validate", "PATH", "schema-check an existing BENCH file instead of measuring"),
            CommandOption("--compare", "A.json B.json", "print regression deltas between two BENCH documents (matched quick flags)"),
            CommandOption("--trend", "", "render the committed BENCH_*.json trajectory as one scoreboard row per point"),
            CommandOption("--dir", "PATH", "trend: directory holding the BENCH_*.json points (default: checkout root)"),
        ),
    ),
    CommandSpec(
        "cache",
        "inspect or prune the persistent result store",
        operands=(("action", "stats | clear | evict"),),
        options=(
            CommandOption("--dir", "PATH", "store directory (default: $REPRO_STORE_DIR or .repro-store)"),
            CommandOption("--format", "table|json", "stats output rendering"),
            CommandOption("--max-entries", "N", "evict: keep at most N newest entries"),
            CommandOption("--max-age-days", "D", "evict: drop entries older than D days"),
        ),
    ),
)


def _usage() -> str:
    """The usage screen, rendered from :data:`COMMANDS`."""
    lines = ["usage: repro <command> [options]", "", "commands:"]
    for spec in COMMANDS:
        lines.append(f"  {spec.name:<6} {spec.summary}")
        for name, help_text in spec.operands:
            lines.append(f"           {name:<21} {help_text}")
        for option in spec.options:
            lines.append(f"           {option.syntax:<21} {option.help}".rstrip())
    lines += ["", "run 'repro list' for the experiment ids and tags."]
    return "\n".join(lines)


class CLIError(Exception):
    """A user-facing CLI error: printed as one line, exits with status 2."""


#: Parsed options, keyed by flag: True, a value, or a tuple of values.
Options = dict[str, Any]
#: ``--<param> value`` tokens left for the selected experiments to resolve.
Params = list[tuple[str, str]]


def _parse(spec: CommandSpec, args: list[str]) -> tuple[list[str], Options, Params]:
    """Split ``args`` into operands, options and parameter tokens by ``spec``.

    Each option's kind comes from its documented value (see
    :class:`CommandOption`); values are given as ``--flag value`` or
    ``--flag=value``.  Flags missing from the spec are parameter tokens when
    it documents ``--<param>`` and a one-line error otherwise.
    """
    syntax = {option.flag: option.value.split() for option in spec.options}
    takes_params = syntax.pop("--<param>", None) is not None
    operands: list[str] = []
    options: Options = {}
    params: Params = []
    i = 0
    while i < len(args):
        token = args[i]
        i += 1
        if not token.startswith("--"):
            if not spec.operands:
                raise CLIError(f"unexpected argument '{token}'")
            operands.append(token)
            continue
        flag, inline, value = token.partition("=")
        if flag not in syntax and not takes_params:
            raise CLIError(f"unknown option '{flag}'; valid: {', '.join(syntax)}")
        words = syntax.get(flag, ["VALUE"])
        if not words:
            if inline:
                raise CLIError(f"{flag} takes no value")
            options[flag] = True
            continue
        need = len(words) - bool(inline)
        taken = args[i : i + need]
        i += need
        if len(taken) < need or any(word.startswith("--") for word in taken):
            raise CLIError(f"missing value for {flag} (expected {' '.join(words)})")
        values = ([value] if inline else []) + taken
        choices = words[0].split("|")
        if len(choices) > 1 and values[0] not in choices:
            raise CLIError(
                f"invalid {flag[2:]} '{values[0]}'; valid: {', '.join(choices)}"
            )
        if flag not in syntax:
            params.append((flag, values[0]))
        else:
            options[flag] = values[0] if len(values) == 1 else tuple(values)
    return operands, options, params


def _number(
    options: Options,
    flag: str,
    kind: type = int,
    low: float | None = None,
    high: float | None = None,
    strict: bool = False,
) -> Any:
    """``options[flag]`` as a finite ``kind`` in bounds, or None when absent.

    ``low`` is inclusive unless ``strict``; ``high`` is inclusive.
    """
    text = options.get(flag)
    if text is None:
        return None
    try:
        value = kind(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        expected = "an int" if kind is int else "a finite number"
        raise CLIError(f"{flag}: expected {expected}, got '{text}'")
    too_low = low is not None and (value <= low if strict else value < low)
    if too_low or (high is not None and value > high):
        if high is not None:
            raise CLIError(f"{flag} must be in [{low}, {high}], got {text}")
        raise CLIError(f"{flag} must be {'>' if strict else '>='} {low}, got {text}")
    return value


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point of the ``repro`` console script and ``python -m``."""
    args = list(sys.argv[1:] if argv is None else argv)
    try:
        if not args or args[0] in ("-h", "--help", "help"):
            print(_usage())
            return 0
        command, rest = args[0], args[1:]
        if command not in _HANDLERS and (
            command == "all" or command.lower() in EXPERIMENTS
        ):
            # Historical invocation styles keep working: ``repro fig19``,
            # ``repro all`` behave like ``repro run ...``.
            command, rest = "run", args
        if command not in _HANDLERS:
            known = ", ".join(f"'{spec.name}'" for spec in COMMANDS)
            raise CLIError(
                f"unknown command '{command}' (expected one of {known}); "
                f"run 'repro --help' for usage"
            )
        spec = next(spec for spec in COMMANDS if spec.name == command)
        return _HANDLERS[command](*_parse(spec, rest))
    except CLIError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


# -- repro list ---------------------------------------------------------------


def _cmd_list(_operands: list[str], options: Options, _params: Params) -> int:
    experiments = list(EXPERIMENTS.values())
    if "--tags" in options:
        wanted = {t for t in options["--tags"].split(",") if t}
        unknown = wanted - set(all_tags())
        if unknown:
            raise CLIError(
                f"unknown tag(s) {', '.join(sorted(unknown))}; "
                f"valid: {', '.join(all_tags())}"
            )
        experiments = [e for e in experiments if wanted & set(e.tags)]
    if options.get("--format") == "json":
        import json

        print(json.dumps([_describe(e) for e in experiments], indent=2))
        return 0
    print("Available experiments:")
    for exp in experiments:
        tags = ",".join(exp.tags)
        print(f"  {exp.id:<22} {tags:<28} {exp.title}")
    return 0


def _describe(exp: Experiment) -> dict[str, Any]:
    return {
        "id": exp.id,
        "title": exp.title,
        "tags": list(exp.tags),
        "params": [
            {
                "name": param.name,
                "flag": param.flag,
                "type": param.type_label,
                "default": param.to_json(param.default),
                "help": param.help,
            }
            for param in exp.params
        ],
    }


# -- repro docs ---------------------------------------------------------------


def _cmd_docs(_operands: list[str], options: Options, _params: Params) -> int:
    """Regenerate (or, with ``--check``, verify) the experiment catalog."""
    from repro.experiments.catalog import catalog_markdown, default_catalog_path

    path = Path(options["--out"]) if "--out" in options else default_catalog_path()
    generated = catalog_markdown()
    if "--check" in options:
        current = path.read_text() if path.exists() else None
        if current != generated:
            command = (
                "repro docs" if "--out" not in options else f"repro docs --out {path}"
            )
            print(
                f"error: {path} is stale; regenerate it with '{command}'",
                file=sys.stderr,
            )
            return 1
        print(f"{path} is up to date")
        return 0
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(generated)
    print(f"wrote {path}")
    return 0


# -- repro lint ---------------------------------------------------------------


def _cmd_lint(_operands: list[str], options: Options, _params: Params) -> int:
    """Run the determinism / cache-safety static-analysis pass.

    Exits 0 on a clean pass, 1 when findings remain, 2 on usage errors --
    the same contract the CI lint gate relies on.
    """
    from repro.analysis import default_lint_root, render_json, render_table, run_lint

    rule_ids = None
    if "--rules" in options:
        rule_ids = [r for r in options["--rules"].split(",") if r]
        if not rule_ids:
            raise CLIError("--rules needs at least one rule id")
    root = Path(options["--root"]) if "--root" in options else default_lint_root()
    if not root.is_dir():
        raise CLIError(f"no such lint root: {root}")
    try:
        report = run_lint(root, rule_ids=rule_ids)
    except ValueError as exc:
        raise CLIError(str(exc)) from None
    json_out = options.get("--format") == "json"
    print(render_json(report) if json_out else render_table(report))
    return 0 if report.clean else 1


# -- repro bench --------------------------------------------------------------


def _read_json_file(path: Path, what: str) -> Any:
    """Load one JSON file, surfacing any problem as a one-line CLI error."""
    import json

    try:
        return json.loads(path.read_text())
    except FileNotFoundError:
        raise CLIError(f"no such {what}: {path}") from None
    except OSError as exc:
        raise CLIError(f"cannot read {what} {path}: {exc}") from None
    except ValueError as exc:
        raise CLIError(f"{path} is not valid JSON: {exc}") from None


def _cmd_bench(_operands: list[str], options: Options, _params: Params) -> int:
    """Measure, schema-check (``--validate``), diff (``--compare``) or
    scoreboard (``--trend``) BENCH documents."""
    from repro.perf.bench import run_bench, validate_bench, write_bench

    if "--trend" in options:
        from repro.perf.bench import (
            default_bench_dir,
            load_bench_documents,
            render_trend,
            trend_report,
        )

        directory = (
            Path(options["--dir"]) if "--dir" in options else default_bench_dir()
        )
        if not directory.is_dir():
            raise CLIError(f"no such trend directory: {directory}")
        documents = [doc for _, doc in load_bench_documents(directory)]
        print(render_trend(trend_report(documents)))
        return 0 if documents else 1
    if "--compare" in options:
        from repro.perf.bench import compare_bench, render_compare

        baseline, current = (
            _read_json_file(Path(p), "BENCH file") for p in options["--compare"]
        )
        try:
            comparison = compare_bench(baseline, current)
        except ValueError as exc:
            raise CLIError(str(exc)) from None
        print(render_compare(comparison))
        return 0
    if "--validate" in options:
        path = Path(options["--validate"])
        document = _read_json_file(path, "BENCH file")
        problems = validate_bench(document)
        if problems:
            for problem in problems:
                print(f"error: {path}: {problem}", file=sys.stderr)
            return 1
        print(f"{path} conforms to bench schema v{document['schema_version']}")
        return 0
    document = run_bench(quick="--quick" in options)
    problems = validate_bench(document)
    if problems:  # pragma: no cover - emitter/schema drift is a bug
        raise CLIError(f"emitted document fails its own schema: {problems[0]}")
    path = write_bench(
        document, Path(options["--out"]) if "--out" in options else None
    )
    sweep = document["sweep"]
    print(f"wrote {path}")
    print(
        f"sweep: cold {sweep['cold_s']:.2f}s ({sweep['render_calls']} renders) "
        f"-> warm-memory {sweep['warm_memory_s']:.2f}s"
    )
    serving = document["serving"]
    print(
        f"serving: {serving['requests_per_wall_s']:.0f} requests/s simulated "
        f"({serving['time_compression']:.0f}x time compression)"
    )
    return 0


# -- repro cache --------------------------------------------------------------


def _cmd_cache(operands: list[str], options: Options, _params: Params) -> int:
    """Inspect or prune the persistent result store."""
    from repro.perf.store import ResultStore

    # Each action accepts exactly its own flags, so e.g. a `clear` carrying
    # an ignored eviction bound is rejected instead of wiping the store.
    action_flags = {
        "stats": ("--dir", "--format"),
        "clear": ("--dir",),
        "evict": ("--dir", "--max-entries", "--max-age-days"),
    }
    if len(operands) != 1:
        raise CLIError(f"cache needs one action: {' | '.join(action_flags)}")
    action = operands[0]
    if action not in action_flags:
        raise CLIError(
            f"unknown cache action '{action}'; valid: {', '.join(action_flags)}"
        )
    for flag in options:
        if flag not in action_flags[action]:
            raise CLIError(
                f"unknown option '{flag}' for 'cache {action}'; "
                f"valid: {', '.join(action_flags[action])}"
            )
    max_entries = _number(options, "--max-entries", low=0)
    max_age_days = _number(options, "--max-age-days", float, low=0)
    store = (
        ResultStore(Path(options["--dir"]))
        if "--dir" in options
        else ResultStore.default()
    )
    if action == "stats":
        stats = store.stats()
        if options.get("--format") == "json":
            import json

            print(json.dumps(stats.to_dict(), indent=2))
        else:
            print(f"store:          {stats.root}")
            print(f"code digest:    {stats.code_digest[:16]}")
            print(f"entries:        {stats.entries}")
            print(f"stale entries:  {stats.stale_entries} (other code digests)")
            print(f"size:           {stats.total_bytes / 1e6:.2f} MB")
        return 0
    if action == "clear":
        removed = store.clear()
        print(f"removed {removed} entries from {store.root}")
        return 0
    max_age_s = None if max_age_days is None else max_age_days * 86400.0
    try:
        removed = store.evict(max_entries=max_entries, max_age_s=max_age_s)
    except ValueError as exc:  # finite days can overflow to infinite seconds
        raise CLIError(f"--max-age-days: {exc}") from None
    print(f"evicted {removed} entries from {store.root}")
    return 0


# -- repro run ----------------------------------------------------------------


def _attach_store(store_dir: str | None = None):
    """Attach the persistent store (default, or rooted at ``store_dir``).

    The store rides on the shared process-wide engine, so serving
    experiments and figure sweeps read through the same cache the previous
    ``repro run`` populated.  Returns the attached
    :class:`~repro.perf.store.ResultStore`.
    """
    from repro.perf.store import ResultStore
    from repro.sim.sweep import get_default_engine

    store = ResultStore(Path(store_dir)) if store_dir else ResultStore.default()
    get_default_engine().attach_store(store)
    return store


def _configure_store(no_store: bool) -> None:
    """Attach (or detach, with ``--no-store``) the default persistent store."""
    if no_store:
        from repro.sim.sweep import get_default_engine

        get_default_engine().attach_store(None)
    else:
        _attach_store(None)


def _cmd_run(selectors: list[str], options: Options, params: Params) -> int:
    if not selectors:
        raise CLIError("no experiments selected; pass ids, tag:TAG or 'all'")
    fmt = options.get("--format", "table")
    jobs = _number(options, "--jobs", low=1) or 1
    experiments = _select(selectors)
    overrides = _resolve_param_flags(params, experiments)
    _configure_store("--no-store" in options)
    results = run_many(experiments, overrides, jobs=jobs)

    if "--out" in options:
        _write_artifacts(results, fmt, Path(options["--out"]))
    else:
        _print_results(results, fmt, sys.stdout)
    return 0


# -- repro plan ---------------------------------------------------------------


def _cmd_plan(operands: list[str], options: Options, _params: Params) -> int:
    """Search a fleet plan space: evaluate, reduce to the Pareto frontier."""
    import time

    from repro.experiments.api import _repo_version
    from repro.plan import (
        OBJECTIVES,
        cheapest_feasible,
        evaluate_space,
        load_space,
        pareto_frontier,
        space_digest,
    )
    from repro.plan.render import normalize_result_json, plan_point_dict, render_plan

    if len(operands) != 1:
        raise CLIError(
            "pass exactly one plan spec (a built-in name or a JSON spec file)"
        )
    fmt = options.get("--format", "table")
    jobs = _number(options, "--jobs", low=1) or 1
    sla_ms = _number(options, "--sla-ms", float, low=0, strict=True)
    min_attainment = _number(options, "--min-attainment", float, low=0, high=1)
    no_store = "--no-store" in options
    if no_store and "--store" in options:
        raise CLIError("--no-store and --store are mutually exclusive")

    try:
        space = load_space(operands[0])
    except ValueError as exc:
        raise CLIError(str(exc)) from exc

    if no_store:
        _configure_store(True)
        store = None
    else:
        store = _attach_store(options.get("--store"))

    # Provenance wall time: reported beside the results, never part of them.
    start = time.perf_counter()  # repro: lint-ignore[DET002]
    evaluation = evaluate_space(space, store=store, jobs=jobs)
    wall_time_s = time.perf_counter() - start  # repro: lint-ignore[DET002] provenance only
    frontier = pareto_frontier(evaluation.points)
    evaluated = len(evaluation.points)

    constraint: dict[str, Any] | None = None
    if sla_ms is not None or min_attainment is not None:
        solution = cheapest_feasible(
            evaluation.points,
            max_p99_s=None if sla_ms is None else sla_ms / 1000.0,
            min_attainment=min_attainment,
        )
        if solution is None:
            bounds = []
            if sla_ms is not None:
                bounds.append(f"p99 <= {sla_ms:g} ms")
            if min_attainment is not None:
                bounds.append(f"attainment >= {min_attainment:g}")
            raise CLIError(
                f"infeasible constraint: no evaluated point has "
                f"{' and '.join(bounds)} "
                f"({evaluated} points evaluated)"
            )
        constraint = {
            "sla_ms": sla_ms,
            "min_attainment": min_attainment,
            "solution": plan_point_dict(solution),
        }

    document: dict[str, Any] = {
        "spec": space.name,
        "space": space.canonical(),
        "space_digest": space_digest(space),
        "evaluated": evaluated,
        "objectives": list(OBJECTIVES),
        "frontier": [plan_point_dict(point) for point in frontier],
        "constraint": constraint,
        "provenance": {
            "repo_version": _repo_version(),
            "wall_time_s": wall_time_s,
        },
    }

    print(
        f"plan {space.name}: {evaluated} points evaluated "
        f"({evaluation.fresh} fresh, {evaluation.cached} cached)"
    )
    text = render_plan(document, fmt)
    text = text if text.endswith("\n") else text + "\n"
    if "--out" in options:
        path = Path(options["--out"])
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
        print(f"wrote {path}")
    else:
        sys.stdout.write(text)
    if "--check" in options:
        reference = Path(options["--check"])
        if not reference.exists():
            print(f"error: {reference}: missing reference file", file=sys.stderr)
            return 1
        if normalize_result_json(reference.read_text()) != normalize_result_json(text):
            print(f"error: {reference}: plan output differs", file=sys.stderr)
            return 1
        print(f"plan output matches {reference}")
    return 0


def _cmd_trace(operands: list[str], options: Options, _params: Params) -> int:
    """Validate a serving-log trace; summarize or re-emit it."""
    from repro.serve.traffic import TraceFormatError, load_trace, trace_to_jsonl

    summarize, to_json = "--summarize" in options, "--to-json" in options
    if len(operands) != 1:
        raise CLIError("pass exactly one trace file (.csv or .jsonl)")
    if summarize and to_json:
        raise CLIError("--summarize and --to-json are mutually exclusive")
    try:
        trace = load_trace(operands[0])
    except TraceFormatError as exc:
        raise CLIError(str(exc)) from None
    except OSError as exc:
        raise CLIError(f"{operands[0]}: {exc.strerror or exc}") from None
    if to_json:
        sys.stdout.write(trace_to_jsonl(trace.requests))
        return 0
    summary = trace.summary()
    print(
        f"trace {summary['path']}: {summary['requests']} requests over "
        f"{summary['duration_s']:.3f}s ({summary['offered_rps']:.2f} rps, "
        f"format {summary['format']})"
    )
    print(
        f"  deadlines: {summary['with_deadline']}/{summary['requests']}"
        f"  pinned: {summary['pinned']}"
        f"  tenants: {len(summary['tenants'])}"
        f"  sessions: {summary['sessions']}"
    )
    if summarize:
        print(f"\n  {'scenario':<40} {'count':>7} {'share':>7}")
        for row in summary["scenarios"]:
            print(f"  {row['label']:<40} {row['count']:>7} {row['share']:>6.1%}")
        if summary["tenants"]:
            print(f"\n  {'tenant':<16} {'count':>7}")
            for tenant, count in summary["tenants"].items():
                print(f"  {tenant:<16} {count:>7}")
    return 0


def _select(selectors: list[str]) -> list[Experiment]:
    """Resolve ids / ``tag:`` groups / ``all`` into a deduped run list."""
    chosen: dict[str, Experiment] = {}
    for selector in selectors:
        if selector == "all":
            chosen.update(EXPERIMENTS)
        elif selector.startswith("tag:"):
            tag = selector[len("tag:"):]
            matches = experiments_by_tag(tag)
            if not matches:
                raise CLIError(
                    f"no experiments tagged '{tag}'; valid tags: {', '.join(all_tags())}"
                )
            chosen.update({exp.id: exp for exp in matches})
        else:
            try:
                exp = get_experiment(selector)
            except UnknownExperimentError as exc:
                raise CLIError(str(exc)) from None
            chosen[exp.id] = exp
    return list(chosen.values())


def _resolve_param_flags(
    params: Params, experiments: list[Experiment]
) -> dict[str, dict[str, Any]]:
    """Map ``--flag value`` pairs onto each selected experiment's params."""
    by_flag: dict[str, list[tuple[Experiment, Any]]] = {}
    for exp in experiments:
        for param in exp.params:
            by_flag.setdefault(param.flag, []).append((exp, param))
    overrides: dict[str, dict[str, Any]] = {exp.id: {} for exp in experiments}
    for flag, text in params:
        if flag not in by_flag:
            valid = ", ".join(sorted(by_flag)) or "(none for this selection)"
            raise CLIError(f"unknown parameter '{flag}'; valid: {valid}")
        for exp, param in by_flag[flag]:
            try:
                overrides[exp.id][param.name] = param.parse(text)
            except BadParamError as exc:
                raise CLIError(str(exc)) from None
    return overrides


def _result_store():
    """The persistent store attached to the shared engine (None when off)."""
    from repro.sim.sweep import get_default_engine

    return get_default_engine().store


def _cached_result(exp: Experiment, payload: dict[str, Any]) -> ExperimentResult:
    """Rebuild a byte-identical :class:`ExperimentResult` from a store payload.

    The rendered table was persisted verbatim, so ``to_table`` (including
    custom renderers over ``raw``, which is not serializable) reproduces
    the cold run's bytes; provenance keeps the *producing* run's wall time.
    """
    import dataclasses
    import json

    table = payload["table"]
    result = ExperimentResult.from_json(json.dumps(payload["result"]))
    return dataclasses.replace(result, _renderer=lambda _result: table)


def run_many(
    experiments: list[Experiment],
    overrides: dict[str, dict[str, Any]] | None = None,
    jobs: int = 1,
) -> list[ExperimentResult]:
    """Run experiments (optionally concurrently), preserving selection order.

    Results are deterministic regardless of ``jobs``: experiments share the
    process-wide cached sweep engine, whose caches are thread-safe, and every
    experiment's output depends only on its own parameters.

    When the shared engine carries a persistent store, whole results are
    cached through it (:class:`repro.perf.store.ExperimentResultKey`): a
    warm invocation replays the serialized result -- rendered table
    included, so output is byte-identical -- without re-running the
    experiment at all.  A parameter change, version bump, re-registered
    device or any edit to the package source invalidates the entry.
    """
    from repro.perf.store import experiment_result_key

    overrides = overrides or {}
    store = _result_store()

    def one(exp: Experiment) -> ExperimentResult:
        try:
            key = (
                experiment_result_key(exp, overrides.get(exp.id, {}))
                if store is not None
                else None
            )
            if key is not None:
                payload = store.get(key)
                if payload is not None:
                    try:
                        return _cached_result(exp, payload)
                    except (KeyError, TypeError, ValueError):
                        pass  # malformed payload: fall through and re-run
            result = exp.run(**overrides.get(exp.id, {}))
            if key is not None:
                store.put(
                    key,
                    {"result": result.to_dict(), "table": result.to_table()},
                )
            return result
        except (ValueError, KeyError) as exc:
            # Domain errors on user-supplied values (e.g. an unknown scene or
            # a non-positive array dimension) surface as one-line CLI errors,
            # not tracebacks; genuine bugs still raise.
            message = exc.args[0] if exc.args else str(exc)
            raise CLIError(f"{exp.id}: {message}") from exc

    if jobs <= 1 or len(experiments) <= 1:
        return [one(exp) for exp in experiments]
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(one, experiments))


# -- output -------------------------------------------------------------------


def _render(result: ExperimentResult, fmt: str) -> str:
    if fmt == "json":
        return result.to_json()
    if fmt == "csv":
        return result.to_csv()
    return result.to_table()


def _print_results(results: list[ExperimentResult], fmt: str, out: TextIO) -> None:
    if fmt == "json":
        import json

        print(json.dumps([r.to_dict() for r in results], indent=2), file=out)
        return
    for result in results:
        if fmt == "table":
            print(
                f"===== {result.experiment_id}: {result.title} "
                f"({result.provenance.wall_time_s:.1f}s) =====",
                file=out,
            )
            print(result.to_table(), file=out)
        else:
            print(f"# {result.experiment_id}: {result.title}", file=out)
            print(result.to_csv(), file=out, end="")
        print(file=out)


_EXTENSIONS = {"table": "txt", "json": "json", "csv": "csv"}


def _write_artifacts(
    results: list[ExperimentResult], fmt: str, out_dir: Path
) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    for result in results:
        path = out_dir / f"{result.experiment_id}.{_EXTENSIONS[fmt]}"
        text = _render(result, fmt)
        path.write_text(text if text.endswith("\n") else text + "\n")
        print(f"wrote {path}")


#: ``repro <command>`` -> handler of its parsed operands, options and params.
_HANDLERS = {
    "list": _cmd_list,
    "run": _cmd_run,
    "plan": _cmd_plan,
    "trace": _cmd_trace,
    "docs": _cmd_docs,
    "lint": _cmd_lint,
    "bench": _cmd_bench,
    "cache": _cmd_cache,
}


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    sys.exit(main())
