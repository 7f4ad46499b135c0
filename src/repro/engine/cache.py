"""Content-addressed on-disk result cache for the simulation engine.

Every cacheable unit of work (a workload on an architecture, a DSE design
point) is described by a *fingerprint*: a canonical JSON document covering
everything the result depends on — layer shapes, operand content (either the
generative coordinates of a synthetic workload or a digest of the raw
tensors), the full accelerator configuration, the energy table, the
installed numpy's version, and a schema version bumped whenever the models
change meaning.  The SHA-256 of that document addresses a pickle
file under the cache root, so

* two logically identical requests always share one entry, regardless of
  which entry point produced them;
* any change to an input produces a different key — there is no staleness
  to manage and never a need to "invalidate" entries by hand;
* bumping :data:`SCHEMA_VERSION` orphans (but does not delete) entries from
  older model revisions, and so does installing another numpy;
  ``ResultCache.clear()`` removes everything.

The cache is safe for concurrent writers — including writers in *different
processes* (the service's process-mode worker tier points every forked
worker at the same root): entries are written to a unique temporary file
and atomically renamed into place, so readers only ever see complete
entries.  Write failures (disk full, permissions, a vanished root) degrade
to cache-less operation: :meth:`ResultCache.put` swallows the ``OSError``
and counts it in ``write_failures`` rather than failing the simulation
that produced the value.

An optional ``max_entries`` bound turns the store into an LRU cache: every
hit touches the entry's mtime, and a put that pushes the store over the
bound evicts the least-recently-used entries.  Long-lived processes — the
simulation service foremost — can therefore leave the cache on without the
spool growing without bound.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import os
import pickle
import tempfile
import threading
from pathlib import Path
from typing import Any, Iterator, Optional, Tuple

import numpy as np

from repro import obs

# Bump when a model change alters what any cached metric means.
SCHEMA_VERSION = 3

#: Named in every key: synthesis draws from numpy's ``Generator`` streams and
#: relies on ``partition``'s tie order, which NumPy does not promise to keep
#: from one release to the next (NEP 19).
NUMPY_VERSION = np.__version__

_log = obs.get_logger("repro.engine.cache")

_WRITE_FAILURES = obs.counter(
    "repro_cache_write_failures_total",
    "Disk cache writes that failed with OSError.",
    ("tier",),
)
_CORRUPT_ENTRIES = obs.counter(
    "repro_cache_corrupt_entries_total",
    "Unreadable disk cache entries deleted and treated as misses.",
)

_ENV_CACHE_DIR = "REPRO_CACHE_DIR"
_DISABLED = {"", "0", "off", "none", "disabled"}


def default_cache_dir() -> Optional[Path]:
    """Cache root from the ``REPRO_CACHE_DIR`` environment variable.

    Unset (or set to ``0``/``off``/``none``) means the on-disk cache is
    disabled and the engine only memoises in memory.
    """
    raw = os.environ.get(_ENV_CACHE_DIR)
    if raw is None or raw.strip().lower() in _DISABLED:
        return None
    return Path(raw).expanduser()


@functools.lru_cache(maxsize=None)
def _identity_fields(kind: type) -> Optional[Tuple[str, ...]]:
    """Field names of dataclass type ``kind``; ``None`` for any other type."""
    if not dataclasses.is_dataclass(kind):
        return None
    return tuple(field.name for field in dataclasses.fields(kind))


def describe(value: Any) -> Any:
    """Reduce ``value`` to a canonical JSON-compatible description.

    Dataclasses become sorted field dicts, numpy scalars become Python
    scalars, and numpy arrays become a content digest (shape, dtype, SHA-256
    of the raw bytes) so large tensors are fingerprinted without being
    embedded in the key document.
    """
    kind = type(value)
    names = _identity_fields(kind)
    if names is not None:
        return {
            "__dataclass__": kind.__name__,
            "fields": {name: describe(getattr(value, name)) for name in names},
        }
    if isinstance(value, np.ndarray):
        return {
            "__ndarray__": hashlib.sha256(
                np.ascontiguousarray(value).tobytes()
            ).hexdigest(),
            "shape": list(value.shape),
            "dtype": str(value.dtype),
        }
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, dict):
        return {str(key): describe(item) for key, item in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [describe(item) for item in value]
    if isinstance(value, float):
        # repr round-trips exactly, so equal floats hash equally and nothing
        # is lost to formatting.
        return repr(value)
    if value is None or isinstance(value, (bool, int, str)):
        return value
    raise TypeError(f"cannot fingerprint value of type {kind.__name__}")


_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


class Canonical:
    """One key part rendered once, to pass to many :func:`fingerprint` calls.

    Only a top-level part may be pre-rendered: :func:`describe` rejects a
    ``Canonical`` nested inside a part, so it is never hashed as a string.
    """

    __slots__ = ("text",)

    def __init__(self, text: str) -> None:
        self.text = text


def canonical(value: Any) -> Canonical:
    """``value``'s description as the compact sorted JSON a key embeds."""
    return Canonical(_ENCODER.encode(describe(value)))


def fingerprint(kind: str, **parts: Any) -> str:
    """SHA-256 key of one cacheable unit of work.

    The hashed document is ``{"kind", "numpy", "parts": describe(parts),
    "schema"}`` as compact sorted JSON, assembled from each part's
    rendering; a part already rendered by :func:`canonical` is not rendered
    again.
    """
    rendered = []
    for name in sorted(parts):
        part = parts[name]
        if not isinstance(part, Canonical):
            part = canonical(part)
        rendered.append(f"{_ENCODER.encode(name)}:{part.text}")
    document = (
        f'{{"kind":{_ENCODER.encode(kind)},"numpy":{_ENCODER.encode(NUMPY_VERSION)},'
        f'"parts":{{{",".join(rendered)}}},"schema":{SCHEMA_VERSION}}}'
    )
    return hashlib.sha256(document.encode("utf-8")).hexdigest()


class ResultCache:
    """Pickle-per-entry store addressed by :func:`fingerprint` keys.

    Entries live at ``root/<key[:2]>/<key>.pkl`` (the two-character shard
    keeps directories small).  Unreadable entries are treated as misses and
    deleted, so a truncated write or a pickle from an incompatible code
    revision degrades to recomputation, never to an error.

    ``max_entries`` (optional) bounds the store: hits refresh an entry's
    mtime and a put beyond the bound evicts least-recently-used entries,
    counted in ``evictions``.  The entry count is tracked incrementally
    (one full scan at construction), and eviction clears 10% headroom
    below the bound, so the full-tree scan amortises over many puts
    instead of running on every one.
    """

    def __init__(self, root: Path | str, max_entries: Optional[int] = None) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError("max_entries must be positive (or None for unbounded)")
        self.root = Path(root).expanduser()
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.write_failures = 0
        # Guards the counters, the entry count and eviction — never the
        # get/put payload I/O itself, which is already safe concurrently
        # (reads of complete files, writes via tempfile + atomic rename).
        self._lock = threading.Lock()
        # Approximate when other processes write the same root concurrently;
        # every eviction scan resets it to the true count.
        self._approx_entries = (
            sum(1 for _ in self._entries()) if max_entries is not None else 0
        )

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.pkl"

    def get(self, key: str) -> Optional[Any]:
        """The cached value under ``key``, or ``None`` on a miss.

        Unreadable entries (truncated writes, incompatible pickles) are
        deleted and reported as misses, never raised.
        """
        path = self._path(key)
        try:
            with path.open("rb") as handle:
                value = pickle.load(handle)
        except FileNotFoundError:
            with self._lock:
                self.misses += 1
            return None
        except Exception as error:
            path.unlink(missing_ok=True)
            with self._lock:
                self.misses += 1
            _CORRUPT_ENTRIES.inc()
            _log.warning(
                "cache_entry_corrupt", key=key, path=str(path), error=str(error)
            )
            return None
        with self._lock:
            self.hits += 1
        if self.max_entries is not None:
            # Touch the entry so LRU eviction sees it as recently used.
            try:
                os.utime(path)
            except OSError as error:
                # Losing one LRU touch only skews eviction order slightly.
                _log.debug("cache_touch_failed", key=key, error=str(error))
        return value

    def put(self, key: str, value: Any) -> None:
        """Store ``value`` under ``key`` (atomic rename; LRU-evicts past the bound).

        An ``OSError`` (disk full, permissions, root removed underneath a
        long-lived worker) is swallowed and counted in ``write_failures``:
        losing one cache entry is recoverable, failing the job that
        computed the value is not.  Pickling errors still raise — they are
        caller bugs, not environment weather.
        """
        path = self._path(key)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        except OSError as error:
            with self._lock:
                self.write_failures += 1
            _WRITE_FAILURES.inc(tier="disk")
            _log.warning(
                "cache_write_failed", key=key, path=str(path), error=str(error)
            )
            return
        is_new = self.max_entries is not None and not path.exists()
        try:
            with os.fdopen(fd, "wb") as handle:
                pickle.dump(value, handle, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp_name, path)
        except OSError as error:
            Path(tmp_name).unlink(missing_ok=True)
            with self._lock:
                self.write_failures += 1
            _WRITE_FAILURES.inc(tier="disk")
            _log.warning(
                "cache_write_failed", key=key, path=str(path), error=str(error)
            )
            return
        except BaseException:
            Path(tmp_name).unlink(missing_ok=True)
            raise
        if self.max_entries is not None:
            with self._lock:
                if is_new:
                    self._approx_entries += 1
                over = self._approx_entries > self.max_entries
            if over:
                self._evict(keep=path)

    def _evict(self, keep: Optional[Path] = None) -> None:
        """Delete LRU entries down to the bound minus 10% headroom.

        The headroom means the next ``max_entries // 10`` puts proceed
        without rescanning the tree — the scan cost amortises instead of
        recurring on every put at capacity.  One evictor runs at a time;
        the engine's hot paths never wait on it.
        """
        with self._lock:
            self._do_evict(keep)

    def _do_evict(self, keep: Optional[Path]) -> None:
        entries = []
        for entry in self._entries():
            try:
                entries.append((entry.stat().st_mtime, entry))
            # Raced with another writer's eviction: the entry is simply
            # gone, which is the outcome eviction wanted anyway (and
            # self._lock is held here, so no log call either).
            except OSError:  # lint-ok: no-silent-except
                continue
        target = max(1, (self.max_entries or 0) - (self.max_entries or 0) // 10)
        excess = len(entries) - target
        remaining = len(entries)
        if excess > 0:
            entries.sort()
            for _, entry in entries:
                if excess <= 0:
                    break
                if keep is not None and entry == keep:
                    continue
                entry.unlink(missing_ok=True)
                self.evictions += 1
                remaining -= 1
                excess -= 1
        self._approx_entries = remaining

    def __contains__(self, key: str) -> bool:
        return self._path(key).exists()

    def _entries(self) -> Iterator[Path]:
        if not self.root.exists():
            return iter(())
        return self.root.glob("??/*.pkl")

    def __len__(self) -> int:
        return sum(1 for _ in self._entries())

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = 0
        for path in list(self._entries()):
            path.unlink(missing_ok=True)
            removed += 1
        with self._lock:
            self._approx_entries = 0
        return removed
