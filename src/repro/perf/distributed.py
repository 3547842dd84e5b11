"""Deterministic store-backed sharding of experiment sets and plan spaces.

The persistent :class:`~repro.perf.store.ResultStore` is safe for
concurrent writers (atomic replace, content addressing), which makes one
more scaling step possible: fanning a single evaluation out across
*machines*.  This module supplies the three pieces of that step, all built
on the store's content addresses:

* **Sharding** -- :func:`shard_index` / :meth:`Shard.contains` partition
  cache keys (whole-experiment
  :class:`~repro.perf.store.ExperimentResultKey` or plan-point
  :class:`~repro.perf.store.PlanPointKey` digests) into ``count``
  disjoint, collectively complete shards.  The assignment hashes the
  *content address*, so it is identical across runs, machines and
  platforms for the same simulated content -- no coordinator, no shared
  state, no ordering assumptions.
* **Shard selection** -- :func:`shard_experiments` picks the subset of an
  experiment list owned by one :class:`Shard`, and
  :func:`repro.plan.evaluate.evaluate_space` accepts a ``shard`` that
  evaluates only the plan points whose content address it owns.
* **Assembly** -- shard runs export their stores as portable pack files
  (:meth:`~repro.perf.store.ResultStore.export_pack`);
  :func:`assemble_packs` merges them into one store
  (:meth:`~repro.perf.store.ResultStore.merge_from`: last-write-wins on
  identical content, loud conflict detection otherwise), after which a
  store-warm replay reproduces the full evaluation's output --
  byte-identical to a serial cold run except for the provenance
  wall-clock field, which :func:`normalize_result_json` masks for
  comparisons.

The ``repro shard`` / ``repro assemble`` CLI commands
(:mod:`repro.experiments.cli`) wrap these into the two halves of a CI
matrix recipe; ``docs/distributed.md`` documents the full scaling ladder.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Mapping, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.api import Experiment
    from repro.perf.store import ExperimentResultKey, MergeStats, ResultStore

#: Hex digits of a content digest the shard assignment hashes.  16 digits
#: (64 bits) keep the modulo unbiased for any practical shard count while
#: accepting both full SHA-1 digests and the 16-digit params fingerprints.
_SHARD_DIGEST_DIGITS = 16


def _key_digest(key: Any) -> str:
    """The hex content digest of ``key`` (a digest string or a store key)."""
    digest = getattr(key, "digest", key)
    if not isinstance(digest, str) or not digest:
        raise TypeError(f"not a shardable cache key: {key!r}")
    return digest


def shard_index(key: Any, count: int) -> int:
    """The shard (in ``[0, count)``) owning ``key``.

    ``key`` is a store cache key (:class:`~repro.perf.store.StoreKey`,
    :class:`~repro.perf.store.ExperimentResultKey`) or its hex ``digest``
    string.  The assignment is a pure function of the digest's leading 64
    bits, so it is stable across processes, machines and platforms --
    every runner computing its own shard membership agrees without
    coordination.
    """
    if count < 1:
        raise ValueError(f"shard count must be >= 1, got {count}")
    return int(_key_digest(key)[:_SHARD_DIGEST_DIGITS], 16) % count


@dataclass(frozen=True)
class Shard:
    """One member of an ``index``-of-``count`` partition of cache keys.

    Exactly one index in ``[0, count)`` contains any key, which is what
    makes shards disjoint and collectively complete.
    """

    index: int
    count: int

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ValueError(f"shard count must be >= 1, got {self.count}")
        if not 0 <= self.index < self.count:
            raise ValueError(
                f"shard index must be in [0, {self.count}), got {self.index}"
            )

    def contains(self, key: Any) -> bool:
        """Whether this shard owns ``key`` (a store key or digest string)."""
        return shard_index(key, self.count) == self.index


def experiment_result_key(
    exp: "Experiment", overrides: Mapping[str, Any] | None = None
) -> "ExperimentResultKey":
    """Content address of one experiment invocation under ``overrides``.

    This is the key the CLI's result tier caches whole experiments under;
    sharding an experiment set partitions these digests, so a parameter
    override (which changes the params fingerprint) may move an experiment
    to a different shard -- deterministically, as long as every shard and
    the assembling run pass the same overrides.
    """
    from repro.experiments.api import config_fingerprint
    from repro.perf.store import ExperimentResultKey, environment_digest

    values = exp.resolve_params(overrides or {})
    params_json = {p.name: p.to_json(values[p.name]) for p in exp.params}
    return ExperimentResultKey(
        experiment_id=exp.id,
        params_fingerprint=config_fingerprint(exp.id, params_json),
        environment_digest=environment_digest(),
    )


def shard_experiments(
    experiments: Sequence["Experiment"],
    shard: Shard,
    overrides: Mapping[str, Mapping[str, Any]] | None = None,
) -> list["Experiment"]:
    """The subset of ``experiments`` owned by ``shard``, in input order.

    Membership hashes each experiment's result-store cache key
    (:func:`experiment_result_key`), so the split is deterministic,
    disjoint across shards and complete over them -- N shard runs cover
    every experiment exactly once.
    """
    overrides = overrides or {}
    return [
        exp
        for exp in experiments
        if shard.contains(experiment_result_key(exp, overrides.get(exp.id, {})))
    ]


def assemble_packs(
    store: "ResultStore", packs: Sequence[Any], strict: bool = True
) -> "MergeStats":
    """Merge shard pack files (or store directories) into ``store``.

    Returns the accumulated :class:`~repro.perf.store.MergeStats`; under
    ``strict`` (the default) a genuine conflict -- the same cache key
    carrying different content, which means the shards simulated with
    diverging code or state -- raises
    :class:`~repro.perf.store.PackConflictError` instead of silently
    keeping either side.
    """
    from repro.perf.store import MergeStats

    total = MergeStats()
    for pack in packs:
        total = total.combined(store.merge_from(pack, strict=strict))
    return total


#: The one volatile field of a serialized experiment result: provenance
#: wall-clock, which records the *producing* run's measurement.
_WALL_TIME_RE = re.compile(r'("wall_time_s":\s*)[-+0-9.eE]+')


def normalize_result_json(text: str) -> str:
    """``text`` with the volatile provenance wall-clock field zeroed.

    A store-warm replay is byte-identical to the run that produced the
    entries -- but two independent *producing* runs (a serial cold run
    vs. N shard runs) measure different wall times.  Substituting only
    the ``wall_time_s`` number leaves every other byte intact, so
    comparing normalized documents still pins bit-exactness of all
    simulated content; ``repro assemble --check`` and the CI assemble
    job compare through this.
    """
    return _WALL_TIME_RE.sub(r"\g<1>0.0", text)
