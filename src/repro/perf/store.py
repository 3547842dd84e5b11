"""Content-addressed on-disk store of experiment results, plan points and assets.

The store keeps three entry kinds, each a cache of work that costs far
more than reading a JSON file back:

* whole **experiment results** (:class:`ExperimentResultKey`, keyed on the
  experiment's parameter fingerprint and the registered devices'
  fingerprints), so a warm ``repro run all`` is byte-identical to the cold
  run without re-running any experiment;
* evaluated **capacity-plan points** (:class:`PlanPointKey`);
* fitted hash-grid **assets** (:class:`GridAssetKey`).

Single frame simulations are not stored: a
:class:`~repro.sim.sweep.SweepEngine` memoises their reports in memory,
and simulating a frame costs less than a store round trip.

The **code digest** (:func:`code_digest`) hashes the source of the
``repro`` package and partitions the store by it, so any edit to the code
that produced an entry -- a simulation model, an experiment's logic, a
validation guard, the serialization itself -- turns every entry of every
kind into a miss.  The code digest cannot see a device registered at
runtime (:func:`repro.core.device.register_device`): its code lives in the
caller's script.  So every key that names devices also hashes their
fingerprints.

Every kind follows one key protocol (:class:`ContentKey`): a ``kind`` plus
dataclass fields, hashed in declaration order into the digest that names
the file.  Every kind is read and written by the one
:meth:`ResultStore.get` / :meth:`ResultStore.put` pair, as one document
shape ``{code_digest, created_s, key, payload}`` whose payload is a JSON
mapping the caller encodes and decodes.  Entries are single JSON files
written atomically (temp file + ``os.replace``), so concurrent ``--jobs``
writers never corrupt the store: the worst case under a write race is one
computation performed twice, with bit-identical content winning either
way.  Corrupt or truncated files are treated as misses and cleaned up
lazily.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, ClassVar, Iterator, Mapping

from repro.core.device import canonical_digest
from repro.validate import require_nonnegative

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.api import Experiment

#: Environment variable overriding the default store location.
STORE_DIR_ENV = "REPRO_STORE_DIR"

#: Directory name of the default store inside the repository checkout.
DEFAULT_STORE_DIRNAME = ".repro-store"


def _source_digest(root: Path) -> str:
    """SHA-256 over the relative POSIX path and bytes of each ``.py`` in ``root``."""
    digest = hashlib.sha256()
    for rel, path in sorted(
        (path.relative_to(root).as_posix(), path) for path in root.rglob("*.py")
    ):
        data = path.read_bytes()
        digest.update(f"{rel}\0{len(data)}\0".encode())
        digest.update(data)
    return digest.hexdigest()


@functools.cache
def code_digest() -> str:
    """Digest of the imported ``repro`` package's source (computed once).

    The store partitions its entries by this digest, so an entry is only
    ever read back by the code that wrote it.
    """
    return _source_digest(Path(__file__).resolve().parents[1])


class ContentKey:
    """The one key protocol every store entry kind follows.

    A key is a frozen dataclass with a class-level ``kind`` (the directory
    its entries live under inside a code-digest partition).  Its digest
    hashes every field in declaration order, and :meth:`ResultStore.put`
    records the same fields as the stored document's ``"key"`` block.
    """

    kind: ClassVar[str]
    __dataclass_fields__: ClassVar[dict[str, dataclasses.Field[Any]]]

    @property
    def digest(self) -> str:
        """The key's SHA-1 content address (the stored file's basename)."""
        return canonical_digest(dataclasses.astuple(self))


@dataclass(frozen=True)
class ExperimentResultKey(ContentKey):
    """Content address of one whole experiment result (the result tier).

    ``params_fingerprint`` is the Experiment API's config fingerprint
    (experiment id + typed parameter values + repo version);
    ``devices_digest`` hashes every registered device's fingerprint
    (:func:`devices_digest`), so re-registering a device under a used name
    misses.  Code edits are covered by the store's code-digest partition.
    The payload is the
    serialized :class:`~repro.experiments.api.ExperimentResult` plus its
    rendered table (see ``repro.experiments.cli``).
    """

    experiment_id: str
    params_fingerprint: str
    devices_digest: str

    kind = "result"


@dataclass(frozen=True)
class PlanPointKey(ContentKey):
    """Content address of one evaluated capacity-plan point (the plan tier).

    ``space_digest`` hashes everything a plan evaluation's outcome depends
    on besides the candidate itself and the code: the search axes, the
    fingerprints of the space's devices, the traffic spec and the
    cost-model constants.  ``point_digest`` hashes
    the candidate (fleet, scheduler, control variant).
    """

    space_digest: str
    point_digest: str

    kind = "plan"


@dataclass(frozen=True)
class GridAssetKey(ContentKey):
    """Content address of one fitted hash-grid table set (the asset tier).

    Fitting a hash grid to a procedural scene is deterministic: the tables
    are a pure function of the scene's field parameters
    (:meth:`repro.nerf.scenes.SyntheticScene.fingerprint`) and the grid
    configuration, so they can be reused across runs, experiments and
    renderers; fitting-algorithm edits are covered by the store's
    code-digest partition.  The payload is ``{"tables": [...]}``,
    one entry per level: base64 of the table's raw little-endian float64
    bytes, which reloads the exact IEEE-754 doubles.
    """

    scene_fingerprint: str
    grid_fingerprint: str

    kind = "asset"


def devices_digest() -> str:
    """One digest over the fingerprint of every registered device.

    Fingerprints are memoised per registry factory
    (:func:`repro.core.device.device_fingerprint`), so ``register_device``
    under a used name is seen while every other lookup stays cheap.
    """
    from repro.core.device import DEVICE_REGISTRY, device_fingerprint

    return canonical_digest(
        {name: device_fingerprint(name) for name in sorted(DEVICE_REGISTRY)}
    )


def experiment_result_key(
    exp: "Experiment", overrides: Mapping[str, Any] | None = None
) -> ExperimentResultKey:
    """Content address of one experiment invocation under ``overrides``.

    This is the key ``run_many`` caches whole experiment results under: a
    parameter override changes the params fingerprint, so it gets its own
    entry.
    """
    from repro.experiments.api import config_fingerprint

    values = exp.resolve_params(overrides or {})
    params_json = {p.name: p.to_json(values[p.name]) for p in exp.params}
    return ExperimentResultKey(
        experiment_id=exp.id,
        params_fingerprint=config_fingerprint(exp.id, params_json),
        devices_digest=devices_digest(),
    )


# -- the store itself ----------------------------------------------------------


@dataclass(frozen=True)
class StoreStats:
    """Snapshot of a store's on-disk contents (``repro cache stats``)."""

    root: str
    code_digest: str
    entries: int
    total_bytes: int
    stale_entries: int

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe mapping of the snapshot."""
        return dataclasses.asdict(self)


class ResultStore:
    """A directory of content-addressed store entries of every kind.

    Layout: ``root/<code_digest[:16]>/<kind>/<digest[:2]>/<digest>.json``;
    the two-level fan-out keeps directories small at fleet-sweep entry
    counts.  Entries in other code-digest partitions are stale: never read,
    and reaped by :meth:`evict`.  All operations tolerate concurrent
    readers and writers (atomic replace, corrupt-as-miss), making the store
    safe under ``repro run --jobs``.
    """

    def __init__(self, root: Path | str) -> None:
        """Bind the store to ``root`` (created lazily on first write)."""
        self.root = Path(root)
        self._write_warned = False

    @classmethod
    def default(cls) -> "ResultStore":
        """The store CLI runs use: ``$REPRO_STORE_DIR`` or ``<checkout>/.repro-store``.

        Falls back to a CWD-relative ``.repro-store`` when the package does
        not run from a source checkout (plain site-packages install).
        """
        env = os.environ.get(STORE_DIR_ENV)
        if env:
            return cls(Path(env))
        checkout = Path(__file__).resolve().parents[3]
        if (checkout / "pyproject.toml").exists():
            return cls(checkout / DEFAULT_STORE_DIRNAME)
        return cls(Path(DEFAULT_STORE_DIRNAME))

    # -- pathing ---------------------------------------------------------------

    def _partition_dir(self) -> Path:
        return self.root / code_digest()[:16]

    def path_for(self, key: ContentKey) -> Path:
        """On-disk location of ``key``'s entry."""
        digest = key.digest
        return self._partition_dir() / key.kind / digest[:2] / f"{digest}.json"

    def _entry_files(self, current_only: bool = True) -> Iterator[Path]:
        base = self._partition_dir() if current_only else self.root
        if not base.exists():
            return
        yield from sorted(base.rglob("*.json"))

    def _is_current(self, path: Path) -> bool:
        return path.relative_to(self.root).parts[0] == code_digest()[:16]

    # -- read / write ----------------------------------------------------------

    def get(self, key: ContentKey) -> dict[str, Any] | None:
        """The payload stored under ``key``, or None (missing, stale or unreadable).

        A truncated / corrupt / foreign file is a miss and is unlinked, so
        the slot heals on the next :meth:`put`.
        """
        path = self.path_for(key)
        try:
            document = json.loads(path.read_text())
        except FileNotFoundError:
            return None
        except (OSError, ValueError):
            try:
                path.unlink(missing_ok=True)
            except OSError:  # pragma: no cover - unwritable store
                pass
            return None
        if (
            not isinstance(document, dict)
            or document.get("code_digest") != code_digest()
        ):
            return None
        payload = document.get("payload")
        return payload if isinstance(payload, dict) else None

    def put(self, key: ContentKey, payload: dict[str, Any]) -> Path:
        """Atomically persist ``payload`` under ``key``; returns the entry path.

        Readers never see partial files.  An unwritable store (read-only CI
        cache, bogus ``$REPRO_STORE_DIR``) degrades to cold computation
        instead of crashing the run: the first failure prints one warning
        to stderr, subsequent ones are silent, and the entry simply is not
        persisted.
        """
        path = self.path_for(key)
        document = {
            "code_digest": code_digest(),
            "created_s": time.time(),
            "key": dataclasses.asdict(key),
            "payload": payload,
        }
        try:
            self._atomic_write(path, document)
        except OSError as exc:
            if not self._write_warned:
                self._write_warned = True
                print(
                    f"warning: result store {self.root} is not writable "
                    f"({exc}); continuing without persistence",
                    file=sys.stderr,
                )
        return path

    # perfbench/tracing.py wraps these per-tier names and fails if one is missing.
    get_asset = get_result = get_plan = get
    put_asset = put_result = put_plan = put

    @staticmethod
    def _atomic_write(path: Path, document: dict[str, Any]) -> None:
        """Write one JSON document via unique temp file + ``os.replace``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        # Unique temp name per writer; os.replace is atomic on POSIX and
        # Windows, so readers only ever see complete entries.
        tmp = path.with_suffix(f".tmp-{os.getpid()}-{os.urandom(4).hex()}")
        tmp.write_text(json.dumps(document))
        os.replace(tmp, path)

    # -- maintenance -----------------------------------------------------------

    def stats(self) -> StoreStats:
        """Entry counts and on-disk footprint, split current vs. stale code."""
        entries = 0
        total_bytes = 0
        stale = 0
        for path in self._entry_files(current_only=False):
            try:
                size = path.stat().st_size
            except OSError:  # pragma: no cover - racing eviction
                continue
            total_bytes += size
            if self._is_current(path):
                entries += 1
            else:
                stale += 1
        return StoreStats(
            root=str(self.root),
            code_digest=code_digest(),
            entries=entries,
            total_bytes=total_bytes,
            stale_entries=stale,
        )

    def clear(self) -> int:
        """Delete every entry (all code digests); returns the count."""
        removed = 0
        for path in self._entry_files(current_only=False):
            try:
                path.unlink()
                removed += 1
            except OSError:  # pragma: no cover - racing writer
                continue
        return removed

    def evict(
        self,
        max_entries: int | None = None,
        max_age_s: float | None = None,
    ) -> int:
        """Drop stale-code entries, then the oldest beyond the given bounds.

        ``max_entries`` keeps at most that many newest current-code
        entries; ``max_age_s`` drops entries older than the horizon.  Either
        bound may be None; negative or non-finite bounds are rejected (a
        negative slice would silently doom the whole store, a NaN age would
        silently drop the bound).  Entries of other code digests are always
        evicted.  Returns the number of files removed.
        """
        if max_entries is not None:
            require_nonnegative("max_entries", max_entries)
        if max_age_s is not None:
            require_nonnegative("max_age_s", max_age_s)
        removed = 0
        for path in self._entry_files(current_only=False):
            if not self._is_current(path):
                try:
                    path.unlink()
                    removed += 1
                except OSError:  # pragma: no cover - racing writer
                    pass
        aged: list[tuple[float, Path]] = []
        for path in self._entry_files():
            try:
                aged.append((path.stat().st_mtime, path))
            except OSError:  # pragma: no cover - racing eviction
                continue
        aged.sort()  # oldest first
        now = time.time()
        doomed: list[Path] = []
        if max_age_s is not None:
            doomed.extend(p for mtime, p in aged if now - mtime > max_age_s)
        if max_entries is not None and len(aged) > max_entries:
            doomed.extend(p for _, p in aged[: len(aged) - max_entries])
        for path in dict.fromkeys(doomed):
            try:
                path.unlink()
                removed += 1
            except OSError:  # pragma: no cover - racing writer
                continue
        return removed
