"""Content-addressed fitness cache.

Fitness evaluation dominates the wall clock of every pipeline in this
reproduction (search, minimization, epistasis, subset sweeps), and the
same edit-sets are evaluated over and over -- within one run (elitism,
delta-debugging rounds) and across runs (re-running an experiment, or
resuming a checkpointed search).  This module provides the cache the whole
evaluation runtime shares:

* :func:`canonical_edit_key` / :func:`canonical_edit_hash` -- an
  order-insensitive identity for an edit list.  GEVO's ``f(S)`` semantics
  (Algorithms 1 and 2) treat an edit collection as a *multiset*: the
  replay order is normalised by the evaluators (discovery order for
  ``EditSetEvaluator``), so two permutations of the same edits denote the
  same variant and must share one cache entry.  Duplicated edits are kept
  (applying ``copy`` twice is not the same as applying it once), which is
  why the key is a sorted tuple rather than a frozen set.
* :class:`FitnessCache` -- a two-tier cache: an always-on in-memory dict
  plus an optional disk-persisted tier that survives across runs.  Keys
  are ``(workload id, arch name, canonical edit-set hash)`` so one cache
  file can serve many workloads and architectures at once.

Disk persistence is pluggable through the :class:`CacheStore` interface:

* :class:`JsonCacheStore` -- a single version-tagged JSON document,
  written atomically; every flush rewrites the whole file, which is fine
  for small caches and keeps the file greppable.
* :class:`~repro.runtime.sqlite_store.SqliteCacheStore` -- one row per
  entry in a WAL-mode SQLite database; each flush upserts only the
  entries added or changed since the last one, so flush cost is
  O(new entries), not O(cache size).  The right tier for long sweeps;
  SQLite serialises concurrent writers from several processes itself.

:func:`make_cache_store` picks a backend from an explicit name, the
path's extension (``.sqlite`` / ``.sqlite3`` / ``.db``), or the on-disk
file's magic bytes; a directory is not a cache path.  All stores treat
a cache file as disposable acceleration state: corrupt or incompatible
files behave like empty ones.
``inf`` runtimes of invalid variants round-trip through JSON's
``Infinity`` literal in either backend.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import time
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Set, Tuple, Union

from ..errors import CacheError
from ..gevo.edits import Edit
from ..gevo.fitness import CaseResult, FitnessResult

#: Bump when the on-disk layout or the key derivation changes.
CACHE_FORMAT_VERSION = 1

#: File extensions that select the SQLite backend under ``backend="auto"``.
SQLITE_EXTENSIONS = (".sqlite", ".sqlite3", ".db")

#: First bytes of every SQLite database file.
SQLITE_MAGIC = b"SQLite format 3\x00"


# -- canonical edit-set identity ------------------------------------------------------

def canonical_edit_key(edits: Sequence[Edit]) -> Tuple[str, ...]:
    """Order-insensitive, duplicate-preserving identity of an edit list.

    ``repr`` of :meth:`Edit.key` is stable for the primitive types edit
    keys are built from (strings, ints, floats, nested tuples) and gives a
    total order even across heterogeneous key shapes, which plain tuple
    comparison does not.
    """
    return tuple(sorted(repr(edit.key()) for edit in edits))


def canonical_edit_hash(edits: Sequence[Edit]) -> str:
    """Hex digest of :func:`canonical_edit_key`, usable as a file-safe id.

    Invariant: the hash is **order-insensitive** over the edit multiset --
    any permutation of the same edit list produces the same digest, so
    permuted genomes share one cache entry -- and **duplicate-preserving**
    (two copies of an edit hash differently from one).
    """
    payload = "\n".join(canonical_edit_key(edits)).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()


def _atomic_write(path: str, writer, *, durable: bool = False) -> None:
    """Run *writer(handle)* against a temp file, then rename over *path*.

    A crash mid-write never damages an existing file at *path*; readers
    see either the old content or the new, never a torn mix.  The single
    implementation behind the JSON cache tier, checkpoints and the
    sweep record/report writers (pinned
    by the crash tests in ``tests/runtime/test_durability.py``).

    With ``durable=True`` the temp file is fsynced before the rename and
    the containing directory after it, so the new content (and the
    directory entry pointing at it) survive a *power loss*, not just a
    process kill.  Plain rename-atomicity only guarantees that some
    whole version of the file exists after a crash; without the fsyncs
    the filesystem may journal the rename before the data blocks,
    leaving a zero-length or truncated file after power failure.
    Checkpoints opt in (irreplaceable search state); cache flushes do
    not (disposable acceleration state -- losing a flush only costs
    re-evaluation).
    """
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    descriptor, temp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(descriptor, "w", encoding="utf-8") as handle:
            writer(handle)
            if durable:
                handle.flush()
                os.fsync(handle.fileno())
        os.replace(temp_path, path)
        if durable:
            _fsync_directory(directory)
    except BaseException:
        if os.path.exists(temp_path):
            os.unlink(temp_path)
        raise


def _fsync_directory(directory: str) -> None:
    """Persist a directory's entries (i.e. a just-completed rename)."""
    try:
        descriptor = os.open(directory, os.O_RDONLY)
    except OSError:
        return  # e.g. platforms that cannot open directories; best effort
    try:
        os.fsync(descriptor)
    except OSError:
        pass
    finally:
        os.close(descriptor)


def atomic_write_text(path: str, text: str, *, durable: bool = False) -> None:
    """Atomically write *text* to *path* (tmp file + rename)."""
    _atomic_write(path, lambda handle: handle.write(text), durable=durable)


def atomic_write_json(path: str, document, *, durable: bool = False,
                      **dump_kwargs) -> None:
    """Atomically serialise *document* as JSON to *path* (streaming)."""
    _atomic_write(path, lambda handle: json.dump(document, handle, **dump_kwargs),
                  durable=durable)


@dataclass(frozen=True)
class CacheKey:
    """Identity of one fitness evaluation: what ran, where, with which edits."""

    workload_id: str
    arch_name: str
    edit_hash: str

    def to_string(self) -> str:
        return f"{self.workload_id}|{self.arch_name}|{self.edit_hash}"

    @classmethod
    def from_string(cls, text: str) -> "CacheKey":
        workload_id, arch_name, edit_hash = text.rsplit("|", 2)
        return cls(workload_id, arch_name, edit_hash)


# -- FitnessResult (de)serialisation --------------------------------------------------

def result_to_dict(result: FitnessResult) -> Dict[str, object]:
    return {
        "valid": result.valid,
        "runtime_ms": result.runtime_ms,
        "cases": [
            {"name": case.name, "passed": case.passed,
             "runtime_ms": case.runtime_ms, "message": case.message}
            for case in result.cases
        ],
    }


def result_from_dict(data: Dict[str, object]) -> FitnessResult:
    cases = [CaseResult(name=case["name"], passed=case["passed"],
                        runtime_ms=case["runtime_ms"], message=case.get("message", ""))
             for case in data.get("cases", [])]
    return FitnessResult(valid=data["valid"], runtime_ms=data["runtime_ms"], cases=cases)


# -- storage backends -----------------------------------------------------------------

class CacheStore:
    """Persistence strategy for a :class:`FitnessCache`.

    A store maps key strings (``CacheKey.to_string()``) to serialised
    :class:`FitnessResult` payloads.  Contract:

    * :meth:`load` returns everything currently on disk; missing, corrupt
      or version-incompatible files load as *empty* (a cache is disposable
      acceleration state, never irreplaceable).
    * :meth:`flush` persists the cache atomically with respect to readers
      and crashes: an interrupted flush must leave the previous on-disk
      state loadable.
    * Stores may ignore ``dirty_keys`` (the JSON tier rewrites the whole
      document anyway) or use it to write incrementally (the SQLite tier
      upserts only those rows).
    """

    backend = "store"
    #: Suggested minimum seconds between hot-path flushes (see
    #: :meth:`FitnessCache.maybe_save`).  Stores with O(dirty) flush cost
    #: can afford 0; stores with O(cache) flush cost should rate-limit.
    flush_interval = 5.0

    def __init__(self, path: str):
        self.path = path
        #: Entries written by the most recent :meth:`flush` (observability
        #: hook; the incremental-flush tests pin the SQLite tier with it).
        self.last_flush_count = 0

    def load(self) -> Dict[str, Dict[str, object]]:
        raise NotImplementedError

    def flush(self, entries: Dict[CacheKey, FitnessResult],
              dirty_keys: Set[CacheKey]) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Release any resources (connections); idempotent."""


def read_json_cache_document(path: str) -> Optional[Dict[str, Dict[str, object]]]:
    """Entries of the JSON cache document at *path*, or ``None``.

    ``None`` means "not a usable cache document": missing, unreadable,
    unparseable, or an incompatible format version (stale data, not an
    error).  A valid-but-empty cache returns ``{}``.  Shared by the JSON
    tier's :meth:`JsonCacheStore.load` and the SQLite tier's one-time
    migration, so the two readers cannot drift apart.
    """
    if not os.path.exists(path):
        return None
    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except (ValueError, OSError):
        return None
    if not isinstance(document, dict) or document.get("version") != CACHE_FORMAT_VERSION:
        return None
    entries = document.get("entries", {})
    return entries if isinstance(entries, dict) else None


class JsonCacheStore(CacheStore):
    """The original single-document JSON tier.

    Every flush serialises the full entry map and atomically replaces the
    file (tmp file + rename), so a crash mid-write never damages the
    previous document.  Simple and human-readable, but flush cost grows
    with the cache: prefer the SQLite tier past a few thousand entries.
    """

    backend = "json"
    flush_interval = 5.0

    def load(self) -> Dict[str, Dict[str, object]]:
        # A corrupt or incompatible document behaves like an empty cache
        # (and is replaced wholesale on the next flush).
        entries = read_json_cache_document(self.path)
        return entries if entries is not None else {}

    def flush(self, entries, dirty_keys) -> None:
        document = {
            "version": CACHE_FORMAT_VERSION,
            "entries": {key.to_string(): result_to_dict(result)
                        for key, result in entries.items()},
        }
        atomic_write_json(self.path, document)
        self.last_flush_count = len(entries)


def make_cache_store(path: str, backend: Optional[str] = None) -> CacheStore:
    """Build the cache store for *path*.

    ``backend`` may be ``"json"``, ``"sqlite"`` or ``None``/``"auto"``.
    Auto-detection prefers, in order: a SQLite file extension
    (``.sqlite`` / ``.sqlite3`` / ``.db``), the SQLite magic bytes of an
    existing file at *path*, and finally the JSON tier.  An existing JSON
    cache opened with the SQLite backend is migrated in place on first
    open (see :class:`~repro.runtime.sqlite_store.SqliteCacheStore`).
    A directory at *path* (most likely a sharded cache from an older
    version) raises :class:`~repro.errors.CacheError` under every backend.
    """
    if os.path.isdir(path):
        raise CacheError(
            f"cache path {path!r} is a directory; a cache is a single JSON or "
            "SQLite file (a directory here is probably a sharded cache from an "
            "older version -- point --cache at a file instead)")
    if backend in (None, "auto"):
        extension = os.path.splitext(path)[1].lower()
        if extension in SQLITE_EXTENSIONS:
            backend = "sqlite"
        elif _file_has_sqlite_magic(path):
            backend = "sqlite"
        else:
            backend = "json"
    if backend == "json":
        return JsonCacheStore(path)
    if backend == "sqlite":
        from .sqlite_store import SqliteCacheStore

        return SqliteCacheStore(path)
    raise ValueError(f"unknown cache backend {backend!r} "
                     "(expected 'auto', 'json' or 'sqlite')")


def _file_has_sqlite_magic(path: str) -> bool:
    try:
        with open(path, "rb") as handle:
            return handle.read(len(SQLITE_MAGIC)) == SQLITE_MAGIC
    except OSError:
        return False


# -- the cache ------------------------------------------------------------------------

@dataclass
class CacheStats:
    """Hit/miss accounting for one :class:`FitnessCache`."""

    hits: int = 0
    misses: int = 0
    #: Entries that were already present when the disk tier was loaded.
    loaded: int = 0
    stores: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def summary(self) -> str:
        return (f"{self.hits} hits / {self.misses} misses "
                f"({self.hit_rate:.0%} hit rate, {self.loaded} preloaded)")


class FitnessCache:
    """In-memory fitness cache with an optional persistent disk tier.

    With ``path=None`` the cache is purely in-memory (the default for
    tests and one-shot runs).  With a path, :meth:`load` pre-populates the
    memory tier from disk and :meth:`save` writes new/changed entries back
    through the configured :class:`CacheStore`; saving is a no-op unless
    entries were added or overwritten since the last write.

    ``backend`` selects the disk tier (``"auto"``/``"json"``/``"sqlite"``,
    see :func:`make_cache_store`); a pre-built store can be passed as
    ``store=`` instead of a path.
    """

    def __init__(self, path: Optional[str] = None, *, backend: Optional[str] = None,
                 store: Optional[CacheStore] = None, autoload: bool = True):
        if store is not None:
            self._store: Optional[CacheStore] = store
        elif path is not None:
            self._store = make_cache_store(path, backend)
        else:
            self._store = None
        self.stats = CacheStats()
        self._entries: Dict[CacheKey, FitnessResult] = {}
        self._dirty_keys: Set[CacheKey] = set()
        self._last_save = 0.0
        if self._store is not None and autoload:
            self.load()

    @property
    def path(self) -> Optional[str]:
        return self._store.path if self._store is not None else None

    @property
    def store(self) -> Optional[CacheStore]:
        return self._store

    @property
    def backend(self) -> Optional[str]:
        return self._store.backend if self._store is not None else None

    @property
    def _dirty(self) -> bool:
        return bool(self._dirty_keys)

    # -- lookup ------------------------------------------------------------------------
    def get(self, key: CacheKey) -> Optional[FitnessResult]:
        result = self._entries.get(key)
        if result is None:
            self.stats.misses += 1
        else:
            self.stats.hits += 1
        return result

    def peek(self, key: CacheKey) -> Optional[FitnessResult]:
        """Lookup without touching the hit/miss counters."""
        return self._entries.get(key)

    def put(self, key: CacheKey, result: FitnessResult) -> None:
        existing = self._entries.get(key)
        if existing is None:
            self.stats.stores += 1
            self._dirty_keys.add(key)
        elif existing != result:
            # Overwriting with a different result must persist too -- the
            # original implementation only marked new keys dirty, so a
            # changed entry silently evaporated at the next save.
            self._dirty_keys.add(key)
        self._entries[key] = result

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: CacheKey) -> bool:
        return key in self._entries

    # -- persistence -------------------------------------------------------------------
    def load(self) -> int:
        """Merge entries from the disk tier into the memory tier.

        Returns the number of entries loaded; a missing file loads zero
        entries (first run with a fresh cache path).
        """
        if self._store is None:
            return 0
        loaded = 0
        for key_text, payload in self._store.load().items():
            try:
                key = CacheKey.from_string(key_text)
                result = result_from_dict(payload)
            except (ValueError, KeyError, TypeError):
                continue
            if key not in self._entries:
                self._entries[key] = result
                loaded += 1
        self.stats.loaded += loaded
        return loaded

    def save(self, *, force: bool = False) -> bool:
        """Write new/changed entries through the disk tier when dirty."""
        if self._store is None or (not self._dirty_keys and not force):
            return False
        dirty = set(self._entries) if force else set(self._dirty_keys)
        self._store.flush(self._entries, dirty)
        self._dirty_keys.clear()
        self._last_save = time.monotonic()
        return True

    def maybe_save(self, min_interval_seconds: Optional[float] = None) -> bool:
        """Save, but at most once per *min_interval_seconds*.

        The interval defaults to the store's own ``flush_interval``: the
        JSON tier rewrites the whole file per save, so hot-path flushes
        are rate-limited (an unclean exit loses at most the last
        interval's entries); the SQLite tier upserts only dirty rows, so
        it flushes every time and an unclean exit loses nothing already
        handed to ``put``.
        """
        if min_interval_seconds is None:
            min_interval_seconds = (self._store.flush_interval
                                    if self._store is not None else 0.0)
        if time.monotonic() - self._last_save < min_interval_seconds:
            return False
        return self.save()

    def close(self) -> None:
        """Flush pending entries and release the disk tier's resources."""
        self.save()
        if self._store is not None:
            self._store.close()

    # -- bulk import/export (used by checkpoints) --------------------------------------
    def export_entries(self, *, workload_id: Optional[str] = None,
                       arch_name: Optional[str] = None) -> Dict[str, Dict[str, object]]:
        """Serialise entries, optionally restricted to one key namespace.

        Checkpoints pass the owning engine's workload/arch so a search
        sharing a big multi-leg cache (a sweep) snapshots only the
        entries it can actually hit, instead of re-serialising every
        other leg's results into every checkpoint.
        """
        return {key.to_string(): result_to_dict(result)
                for key, result in self._entries.items()
                if (workload_id is None or key.workload_id == workload_id)
                and (arch_name is None or key.arch_name == arch_name)}

    def import_entries(self, entries: Dict[str, Dict[str, object]]) -> int:
        imported = 0
        for key_text, payload in entries.items():
            key = CacheKey.from_string(key_text)
            if key not in self._entries:
                self._entries[key] = result_from_dict(payload)
                self._dirty_keys.add(key)
                imported += 1
        return imported
