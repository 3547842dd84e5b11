"""First-class Experiment API: typed params, uniform results, one registry.

Every paper artifact (figure / table / ablation) is an :class:`Experiment`:
an id, a title, a set of tags, a typed parameter schema and a ``run``
function; the schema is read off ``run``'s signature (:func:`derive_params`).
Running an experiment always produces one uniform shape, the
:class:`ExperimentResult` -- named columns, JSON-safe row dicts and
provenance metadata (parameter values, config fingerprint, wall time, repo
version) -- regardless of which dataclasses the experiment uses internally.

Modules register through the :func:`experiment` decorator::

    @experiment(
        "fig99",
        title="My new study",
        tags=("frame-sim",),
        params={"device": "registry name of the GPU"},
        columns=(
            Column("model", "<14"),
            Column("latency [ms]", ">14.1f", key="latency_ms"),
        ),
    )
    def run(device: str = "rtx-2080-ti") -> list[MyRow]:
        ...

and instantly get CLI flags (``repro run fig99 --device rtx-4090``), the
shared table renderer, JSON / CSV artifacts and parallel execution.  The
decorated function itself is returned unchanged, so ``module.run(...)``
still hands back the raw dataclasses for tests and notebooks.

The module also hosts the process-wide registry the decorator populates;
:mod:`repro.experiments.registry` imports each experiment module on first
lookup (which triggers its registration) and holds the lookup helpers.
"""

from __future__ import annotations

import csv
import enum
import hashlib
import inspect
import io
import json
import re
import threading
import time
import typing
from dataclasses import dataclass, field, fields, is_dataclass
from typing import Any, Callable, Iterable, Mapping, Sequence

from repro.sparse.formats import Precision

#: Version stamped into every result's provenance (kept in sync with
#: ``repro.__version__`` by a test; imported lazily to avoid cycles).
def _repo_version() -> str:
    """The package version stamped into result provenance."""
    from repro import __version__

    return __version__


class ExperimentError(Exception):
    """Base class for experiment API errors."""


class UnknownExperimentError(ExperimentError, KeyError):
    """An experiment id was not found in the registry."""

    def __init__(self, key: str, valid: Sequence[str]):
        """Remember the unknown key and the valid ids for the message."""
        self.key = key
        self.valid = tuple(valid)
        super().__init__(f"unknown experiment '{key}'; valid ids: {', '.join(valid)}")

    def __str__(self) -> str:  # KeyError would repr() the message
        return self.args[0]


class BadParamError(ExperimentError, ValueError):
    """A parameter value could not be parsed / validated."""


# -- typed parameters ---------------------------------------------------------


def _parse_precision(text: str) -> Precision:
    """Parse a precision mode from flag text ('int8', 'INT8', '8', ...)."""
    try:
        return Precision[text.upper().replace("-", "_")]
    except KeyError:
        try:
            return Precision(int(text.removeprefix("int").removeprefix("INT")))
        except (KeyError, ValueError) as exc:
            valid = ", ".join(p.name for p in Precision)
            raise BadParamError(
                f"invalid precision '{text}'; valid: {valid}"
            ) from exc


@dataclass(frozen=True)
class Param:
    """One typed experiment parameter, auto-exposed as a CLI flag.

    ``type`` is the *element* type (one of :data:`PARAM_TYPES`);
    ``repeated`` parameters are tuples of elements and parse from
    comma-separated flag values (``--pruning-ratios 0,0.5,0.9``).
    :func:`experiment` derives these from ``run``'s signature.
    """

    name: str
    type: type = str
    default: Any = None
    help: str = ""
    repeated: bool = False

    @property
    def flag(self) -> str:
        """The CLI flag exposing this parameter."""
        return "--" + self.name.replace("_", "-")

    @property
    def type_label(self) -> str:
        """Human-readable type, e.g. ``float,...`` for a repeated float."""
        label = self.type.__name__
        return f"{label},..." if self.repeated else label

    def parse(self, text: str) -> Any:
        """Parse a CLI flag value into this parameter's type."""
        if self.repeated:
            parts = [p for p in text.split(",") if p != ""]
            if not parts:
                raise BadParamError(f"{self.flag}: expected comma-separated values")
            return tuple(self._element_from_text(part) for part in parts)
        return self._element_from_text(text)

    def coerce(self, value: Any) -> Any:
        """Validate / convert a programmatic value (strings are parsed)."""
        if isinstance(value, str):
            return self.parse(value)
        if self.repeated:
            try:
                return tuple(self._coerce_element(v) for v in value)
            except TypeError as exc:
                raise BadParamError(
                    f"{self.name}: expected a sequence of {self.type.__name__}"
                ) from exc
        return self._coerce_element(value)

    def to_json(self, value: Any) -> Any:
        """JSON-safe representation of a coerced value (for provenance)."""
        if self.repeated:
            return [_jsonify(v) for v in value]
        return _jsonify(value)

    # -- element conversion ---------------------------------------------------

    def _element_from_text(self, text: str) -> Any:
        try:
            if self.type is Precision:
                return _parse_precision(text)
            return self.type(text)
        except (ValueError, TypeError) as exc:
            raise BadParamError(
                f"{self.flag}: invalid {self.type.__name__} '{text}'"
            ) from exc

    def _coerce_element(self, value: Any) -> Any:
        if isinstance(value, str):
            return self._element_from_text(value)
        if self.type is float and isinstance(value, (int, float)):
            return float(value)
        if not isinstance(value, self.type):
            raise BadParamError(
                f"{self.name}: expected {self.type.__name__}, got {value!r}"
            )
        return value


#: Element types an argument's hint must name for it to become a parameter.
PARAM_TYPES = (str, int, float, Precision)


def _param_type(hint: Any) -> tuple[type, bool] | None:
    """``(element type, repeated)`` of a parameter hint, else None."""
    if hint in PARAM_TYPES:
        return hint, False
    args = typing.get_args(hint)
    if typing.get_origin(hint) is tuple and args[1:] == (...,):
        return (args[0], True) if args[0] in PARAM_TYPES else None
    return None


def derive_params(fn: Callable[..., Any], helps: Mapping[str, str]) -> tuple[Param, ...]:
    """The typed parameters of ``fn``, read off its signature.

    Every keyword argument whose hint :func:`_param_type` accepts becomes a
    :class:`Param`, in signature order, with the signature's default and the
    help text from ``helps``; other arguments (an ``engine``, a ``config``)
    stay programmatic-only.  Raises a one-line :class:`ExperimentError` for a
    help entry that names no parameter, a parameter without help and a
    parameter without a default.
    """
    where = f"{fn.__module__}.{fn.__qualname__}"
    hints = typing.get_type_hints(fn)
    params = []
    for arg in inspect.signature(fn).parameters.values():
        kind = _param_type(hints.get(arg.name))
        keyword = arg.kind in (arg.POSITIONAL_OR_KEYWORD, arg.KEYWORD_ONLY)
        if kind is None or not keyword:
            continue
        if arg.name not in helps:
            raise ExperimentError(f"{where}: parameter '{arg.name}' has no help text")
        if arg.default is arg.empty:
            raise ExperimentError(f"{where}: parameter '{arg.name}' has no default")
        params.append(Param(arg.name, kind[0], arg.default, helps[arg.name], kind[1]))
    unknown = sorted(set(helps) - {p.name for p in params})
    if unknown:
        raise ExperimentError(
            f"{where}: help for '{unknown[0]}' names no str/int/float/Precision argument"
        )
    return tuple(params)


# -- the shared table renderer ------------------------------------------------

_PAD_RE = re.compile(r"^([<>^]?\d+)")


@dataclass(frozen=True)
class Column:
    """One column of the shared fixed-width table renderer.

    ``spec`` is the format spec applied to each cell (``"<14"``,
    ``">14.1f"``, ``">14,"`` or ``""`` for free-form last columns); the
    header is padded with the spec's alignment + width.  Cells come from
    ``value(item)`` when given, otherwise from the row's ``key or header``
    entry (a mapping row) or attribute (any other row).  A ``None`` cell
    renders as ``-``.
    """

    header: str
    spec: str = ""
    key: str | None = None
    value: Callable[[Any], Any] | None = None
    header_spec: str | None = None

    def cell(self, item: Any) -> str:
        """The formatted cell of one row object (``-`` for a missing value)."""
        if self.value is not None:
            value = self.value(item)
        else:
            name = self.key or self.header
            value = item[name] if isinstance(item, Mapping) else getattr(item, name)
        if value is None:
            return format("-", self.header_pad)
        return format(value, self.spec)

    @property
    def header_pad(self) -> str:
        """Alignment + width spec applied to the header cell."""
        if self.header_spec is not None:
            return self.header_spec
        match = _PAD_RE.match(self.spec)
        return match.group(1) if match else ""


def render_grid(
    columns: Sequence[Column], items: Iterable[Any], header: bool = True
) -> str:
    """The one fixed-width table formatter every experiment shares."""
    lines = []
    if header:
        lines.append(" ".join(format(c.header, c.header_pad) for c in columns))
    for item in items:
        lines.append(" ".join(c.cell(item) for c in columns))
    return "\n".join(lines)


# -- uniform results ----------------------------------------------------------


def _jsonify(value: Any) -> Any:
    """Flatten dataclasses / enums / mappings into JSON-safe values."""
    if is_dataclass(value) and not isinstance(value, type):
        return {f.name: _jsonify(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, enum.Enum):
        return value.name
    if isinstance(value, Mapping):
        return {
            (k.name if isinstance(k, enum.Enum) else str(k)): _jsonify(v)
            for k, v in value.items()
        }
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    return value


def default_items(raw: Any) -> Sequence[Any]:
    """Interpret a run() return value as a sequence of row objects."""
    if isinstance(raw, (list, tuple)):
        return raw
    return [raw]


@dataclass(frozen=True)
class Provenance:
    """Where a result came from: enough to reproduce or cache-key it."""

    experiment_id: str
    params: dict[str, Any]
    config_fingerprint: str
    wall_time_s: float
    repo_version: str

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe provenance mapping."""
        return {
            "experiment_id": self.experiment_id,
            "params": self.params,
            "config_fingerprint": self.config_fingerprint,
            "wall_time_s": self.wall_time_s,
            "repo_version": self.repo_version,
        }


def config_fingerprint(experiment_id: str, params: Mapping[str, Any]) -> str:
    """Stable hash of (experiment, param values, repo version)."""
    canonical = json.dumps(
        {"id": experiment_id, "params": params, "version": _repo_version()},
        sort_keys=True,
        default=str,
    )
    return hashlib.sha1(canonical.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class ExperimentResult:
    """The one uniform result shape: columns + row dicts + provenance.

    ``raw`` keeps the experiment's internal dataclasses for programmatic
    consumers (tests, notebooks); it is excluded from serialization and
    equality, as is the table renderer bound at run time.
    """

    experiment_id: str
    title: str
    columns: tuple[str, ...]
    rows: tuple[dict[str, Any], ...]
    provenance: Provenance
    raw: Any = field(default=None, compare=False, repr=False)
    _renderer: Callable[["ExperimentResult"], str] | None = field(
        default=None, compare=False, repr=False
    )

    # -- renderers ------------------------------------------------------------

    def to_table(self) -> str:
        """Fixed-width text table (byte-identical to the historical output)."""
        if self._renderer is not None:
            return self._renderer(self)
        generic = tuple(
            Column(name, "", value=lambda row, n=name: str(row.get(n, "")))
            for name in self.columns
        )
        return render_grid(generic, self.rows)

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe mapping of the result (without ``raw``)."""
        return {
            "experiment_id": self.experiment_id,
            "title": self.title,
            "columns": list(self.columns),
            "rows": [dict(row) for row in self.rows],
            "provenance": self.provenance.to_dict(),
        }

    def to_json(self, indent: int = 2) -> str:
        """The result as a JSON document."""
        return json.dumps(self.to_dict(), indent=indent)

    def to_csv(self) -> str:
        """Rows as CSV (nested values rendered as compact JSON)."""
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(self.columns)
        for row in self.rows:
            writer.writerow(
                [
                    value
                    if isinstance(value, (str, int, float, bool)) or value is None
                    else json.dumps(value)
                    for value in (row.get(name) for name in self.columns)
                ]
            )
        return buffer.getvalue()

    @classmethod
    def from_json(cls, text: str) -> "ExperimentResult":
        """Rebuild a result (minus ``raw``) from its JSON serialization."""
        data = json.loads(text)
        return cls(
            experiment_id=data["experiment_id"],
            title=data["title"],
            columns=tuple(data["columns"]),
            rows=tuple(data["rows"]),
            provenance=Provenance(**data["provenance"]),
        )


# -- the experiment itself ----------------------------------------------------


@dataclass(frozen=True)
class Experiment:
    """A registered, parameterizable, serializable paper artifact."""

    id: str
    title: str
    fn: Callable[..., Any]
    tags: tuple[str, ...] = ()
    params: tuple[Param, ...] = ()
    #: Column specs for the shared grid renderer (None -> ``render`` is used).
    columns: tuple[Column, ...] | None = None
    #: Whether the grid renderer emits a header line.
    header: bool = True
    #: Custom table renderer over the raw result, for irregular layouts.
    render: Callable[[Any], str] | None = None
    #: Raw result -> sequence of row objects (default: the result itself).
    items: Callable[[Any], Sequence[Any]] = default_items

    def param(self, name: str) -> Param:
        """Look up one of the experiment's typed parameters by name."""
        for param in self.params:
            if param.name == name:
                return param
        raise BadParamError(
            f"{self.id}: unknown parameter '{name}'; "
            f"valid: {', '.join(p.name for p in self.params) or '(none)'}"
        )

    def resolve_params(self, overrides: Mapping[str, Any]) -> dict[str, Any]:
        """Defaults merged with validated/coerced overrides."""
        for name in overrides:
            self.param(name)  # raises BadParamError on unknown names
        return {
            p.name: (
                p.coerce(overrides[p.name]) if p.name in overrides else p.default
            )
            for p in self.params
        }

    def run(self, **overrides: Any) -> ExperimentResult:
        """Execute with typed params and wrap into an :class:`ExperimentResult`."""
        values = self.resolve_params(overrides)
        # Provenance wall-time is wall-clock by design; a warm replay keeps
        # the producing run's value, so replays stay byte-identical.
        start = time.perf_counter()  # repro: lint-ignore[DET002]
        raw = self.fn(**values)
        wall_time_s = time.perf_counter() - start  # repro: lint-ignore[DET002] provenance only
        rows = tuple(_jsonify(item) for item in self.items(raw))
        columns = tuple(rows[0].keys()) if rows else ()
        params_json = {p.name: p.to_json(values[p.name]) for p in self.params}
        provenance = Provenance(
            experiment_id=self.id,
            params=params_json,
            config_fingerprint=config_fingerprint(self.id, params_json),
            wall_time_s=wall_time_s,
            repo_version=_repo_version(),
        )
        return ExperimentResult(
            experiment_id=self.id,
            title=self.title,
            columns=columns,
            rows=rows,
            provenance=provenance,
            raw=raw,
            _renderer=self._bind_renderer(),
        )

    def _bind_renderer(self) -> Callable[[ExperimentResult], str] | None:
        """The table renderer a result of this experiment should carry."""
        if self.render is not None:
            return lambda result: self.render(result.raw)
        if self.columns is not None:
            return lambda result: render_grid(
                self.columns, self.items(result.raw), header=self.header
            )
        return None


# -- the registry -------------------------------------------------------------

#: Experiment id -> :class:`Experiment`, in registration order (imported
#: modules only; :data:`repro.experiments.registry.EXPERIMENTS` is the
#: complete, ordered view).
REGISTRY: dict[str, Experiment] = {}

#: Guards :data:`REGISTRY`: modules register on first lookup, which
#: ``repro run --jobs N`` makes from several threads.
_registry_lock = threading.Lock()


def register(exp: Experiment) -> Experiment:
    """Add an experiment to the registry (ids are unique)."""
    with _registry_lock:
        if exp.id in REGISTRY:
            raise ExperimentError(f"duplicate experiment id '{exp.id}'")
        REGISTRY[exp.id] = exp
    return exp


def experiment(
    id: str,
    *,
    title: str,
    tags: Sequence[str] = (),
    params: Mapping[str, str] = {},
    columns: Sequence[Column] | None = None,
    header: bool = True,
    render: Callable[[Any], str] | None = None,
    items: Callable[[Any], Sequence[Any]] = default_items,
) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
    """Register a run() function as an :class:`Experiment`.

    ``params`` maps each parameter's name to its help text; the types and
    defaults come from ``run``'s signature (see :func:`derive_params`).
    Returns the function unchanged (so direct module-level calls keep their
    raw return types) and attaches the registered experiment as
    ``fn.experiment``.
    """

    def decorate(fn: Callable[..., Any]) -> Callable[..., Any]:
        exp = register(
            Experiment(
                id=id,
                title=title,
                fn=fn,
                tags=tuple(tags),
                params=derive_params(fn, params),
                columns=tuple(columns) if columns is not None else None,
                header=header,
                render=render,
                items=items,
            )
        )
        fn.experiment = exp
        return fn

    return decorate

