"""Content-addressed on-disk result cache for the simulation engine.

Every cacheable unit of work (a workload on an architecture, a DSE design
point) is described by a *fingerprint*: a canonical JSON document covering
everything the result depends on — layer shapes, operand content (either the
generative coordinates of a synthetic workload or a digest of the raw
tensors), the full accelerator configuration, the installed numpy's version,
and :data:`MODEL_DIGEST`, a digest of the model code that computes it.  The
SHA-256 of that document keys one row of a SQLite file under the cache root,
so

* two logically identical requests always share one row, regardless of
  which entry point produced them;
* any change to an input produces a different key — there is no staleness
  to manage and never a need to "invalidate" rows by hand;
* any edit to the model source orphans (but does not delete) every older
  row, and so does installing another numpy; ``ResultCache.clear()``
  removes everything.

A row holds the JSON of a result's fields, never code, so reading a shared
cache runs nothing.  The processes of one host may share a root (the
service's process-mode workers do): SQLite's write-ahead log lets readers
read while a writer commits.  Faults — an unwritable root, a file that is not
a database, a full disk, a Python without ``_sqlite3`` — degrade to no cache:
reads miss and failed writes are counted, never raised.  An optional
``max_entries`` bound makes the store an LRU cache, so a long-lived service
can leave it on without the file growing without bound.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import os
import sys
import threading
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs

#: Packages under ``repro`` that compute no cached value: service payloads
#: live in memory only, obs only records, devtools lints and the experiment
#: drivers only read cells.
_NOT_MODEL = frozenset({"service", "obs", "devtools", "experiments"})


def model_digest(package: Path) -> str:
    """SHA-256 of the model source: every ``.py`` file under ``package`` (the
    ``repro`` directory) outside the :data:`_NOT_MODEL` packages.

    The files are hashed in order of their relative POSIX paths, each as its
    path followed by its bytes (NUL-terminated, which neither may contain).
    """
    digest = hashlib.sha256()
    for relative, path in sorted(
        (path.relative_to(package).as_posix(), path) for path in package.rglob("*.py")
    ):
        if relative.split("/", 1)[0] not in _NOT_MODEL:
            digest.update(relative.encode("utf-8") + b"\0")
            digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()


#: Named in every key, so a key names the code that computed its value.  It
#: is computed once at import: forked pool and service workers inherit it,
#: and a result of the code a process loaded is never filed under the digest
#: of source edited since.
MODEL_DIGEST = model_digest(Path(__file__).resolve().parents[1])

#: Named in every key: synthesis draws from numpy's ``Generator`` streams and
#: relies on ``partition``'s tie order, which NumPy does not promise to keep
#: from one release to the next (NEP 19).
NUMPY_VERSION = np.__version__

_log = obs.get_logger("repro.engine.cache")

_WRITE_FAILURES = obs.counter(
    "repro_cache_write_failures_total",
    "Disk cache writes that failed (an unusable root or file, a full disk).",
    ("tier",),
)
_CORRUPT_ENTRIES = obs.counter(
    "repro_cache_corrupt_entries_total",
    "Disk cache rows whose JSON did not decode, deleted and treated as misses.",
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

    The hashed document is ``{"kind", "model", "numpy", "parts":
    describe(parts)}`` as compact sorted JSON, assembled from each part's
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
        f'{{"kind":{_ENCODER.encode(kind)},"model":{_ENCODER.encode(MODEL_DIGEST)},'
        f'"numpy":{_ENCODER.encode(NUMPY_VERSION)},"parts":{{{",".join(rendered)}}}}}'
    )
    return hashlib.sha256(document.encode("utf-8")).hexdigest()


#: A row: a key, the JSON of its value, and the LRU stamp of a bounded store
#: (0 in an unbounded one).  WAL with ``synchronous=NORMAL`` fsyncs no
#: commit: a power loss may drop the last commits but cannot corrupt the file.
_SETUP = """PRAGMA journal_mode=WAL; PRAGMA synchronous=NORMAL;
CREATE TABLE IF NOT EXISTS cells
    (key TEXT PRIMARY KEY, value TEXT NOT NULL, used INTEGER NOT NULL);"""

#: One past the newest stamp: what a bounded store's write or hit sets.
_NEXT_STAMP = "(SELECT IFNULL(MAX(used), 0) + 1 FROM cells)"

#: Keys one statement binds: SQLite's host-parameter limit before 3.32.
_CHUNK = 999


def _faults() -> Tuple[type, ...]:
    """What a store degrades on: an unusable root, a Python without
    ``_sqlite3``, and any SQLite error once the module has loaded."""
    sqlite3 = sys.modules.get("sqlite3")
    return (OSError, ImportError) + ((sqlite3.Error,) if sqlite3 else ())


def _chunks(statement: str, keys: Sequence[str]):
    """``statement WHERE key IN (?, …)`` over ``keys``, in runs one
    statement binds: ``(query, keys)`` pairs."""
    for start in range(0, len(keys), _CHUNK):
        chunk = keys[start : start + _CHUNK]
        yield f"{statement} WHERE key IN ({', '.join('?' * len(chunk))})", chunk


class ResultCache:
    """One SQLite file of JSON rows, ``root/cells.sqlite``, addressed by
    :func:`fingerprint` keys.

    :meth:`get_many` reads keys in one query per 999 and :meth:`put_many`
    writes rows in one transaction.  A row that does not decode is deleted,
    counted and missed.  Each thread of each process opens its own
    connection on first use.

    ``max_entries`` (optional) bounds the store: writes and hits stamp a
    row's ``used`` one past the newest stamp, and the write that passes the
    bound deletes the least recently used rows beyond it, counted in
    ``evictions``.
    """

    def __init__(self, root: Path | str, max_entries: Optional[int] = None) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError("max_entries must be positive (or None for unbounded)")
        self.root = Path(root).expanduser()
        self.path = self.root / "cells.sqlite"
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.write_failures = 0
        self._warned = False
        # Guards the counters only: no query runs under it.
        self._lock = threading.Lock()
        self._connections: Dict[Tuple[int, int], Any] = {}

    def _connection(self) -> Any:
        """This thread's connection, opened (and ``sqlite3`` loaded) on its
        first use in this process.

        The store keeps every connection it opens, keyed by process and
        thread: a forked child never uses one it inherited, nor closes one
        by collecting it, as SQLite requires.  A thread that reuses a
        finished thread's identifier takes over its connection.
        """
        key = (os.getpid(), threading.get_ident())
        connection = self._connections.get(key)
        if connection is None:
            import sqlite3

            self.root.mkdir(parents=True, exist_ok=True)
            connection = sqlite3.connect(
                self.path, timeout=10.0, isolation_level=None, check_same_thread=False
            )
            try:
                connection.executescript(_SETUP)
            except BaseException:
                connection.close()
                raise
            self._connections[key] = connection
        return connection

    def _fault(self, event: str, error: BaseException, write: bool = False) -> None:
        """Count and log a read or write the store could not make: a warning
        the first time per store, then at debug level."""
        with self._lock:
            self.write_failures += write
            first, self._warned = not self._warned, True
        if write:
            _WRITE_FAILURES.inc(tier="disk")
        log = _log.warning if first else _log.debug
        log(event, path=str(self.path), error=str(error))

    def _write(self, work: Callable[[Any], Any]) -> Any:
        """``work(connection)`` in one ``BEGIN IMMEDIATE … COMMIT``; what it
        returns, or ``None`` after a counted write failure."""
        try:
            connection = self._connection()
            connection.execute("BEGIN IMMEDIATE")
            try:
                result = work(connection)
                connection.execute("COMMIT")
            finally:
                if connection.in_transaction:
                    connection.execute("ROLLBACK")
        except _faults() as error:
            self._fault("cache_write_failed", error, write=True)
            return None
        return result

    def get_many(self, keys: Sequence[str]) -> List[Optional[Any]]:
        """The value under each of ``keys``, in order; ``None`` for a miss,
        which is also what a read the store cannot make returns."""
        found: Dict[str, str] = {}
        try:
            connection = self._connection()
            for query, chunk in _chunks("SELECT key, value FROM cells", keys):
                found.update(connection.execute(query, chunk))
        except _faults() as error:
            self._fault("cache_read_failed", error)
        values: List[Optional[Any]] = []
        corrupt: List[str] = []
        for key in keys:
            try:
                values.append(json.loads(found[key]) if key in found else None)
            except ValueError:
                corrupt.append(key)
                values.append(None)
        hit = [key for key, value in zip(keys, values) if value is not None]
        used = hit if self.max_entries is not None else []
        if corrupt:
            _CORRUPT_ENTRIES.inc(len(corrupt))
            _log.warning("cache_entries_corrupt", path=str(self.path), keys=corrupt)
        if corrupt or used:
            self._write(functools.partial(_refresh, corrupt, used))
        with self._lock:
            self.hits += len(hit)
            self.misses += len(keys) - len(hit)
        return values

    def put_many(self, pairs: Sequence[Tuple[str, Any]]) -> None:
        """Store every ``(key, value)`` pair, JSON-encoded, in one write
        transaction.  An encoding error raises (a caller's bug); a write the
        store cannot make is counted in ``write_failures``, never raised."""
        rows = [(key, _ENCODER.encode(value)) for key, value in pairs]
        evicted = self._write(functools.partial(_insert, rows, self.max_entries))
        with self._lock:
            self.evictions += evicted or 0

    def __len__(self) -> int:
        return self._connection().execute("SELECT COUNT(*) FROM cells").fetchone()[0]

    def clear(self) -> int:
        """Delete every row; returns how many were removed."""
        deleted = self._write(lambda connection: connection.execute("DELETE FROM cells"))
        return deleted.rowcount if deleted is not None else 0


def _refresh(corrupt: List[str], used: List[str], connection: Any) -> None:
    """Delete the ``corrupt`` rows and stamp the ``used`` ones newest."""
    for statement, keys in (
        ("DELETE FROM cells", corrupt),
        (f"UPDATE cells SET used = {_NEXT_STAMP}", used),
    ):
        for query, chunk in _chunks(statement, keys):
            connection.execute(query, chunk)


def _insert(rows: List[Tuple[str, str]], bound: Optional[int], connection: Any) -> int:
    """Write ``rows``; past ``bound``, delete the least recently used rows
    beyond it.  Returns how many were deleted."""
    stamp = connection.execute(f"SELECT {_NEXT_STAMP}").fetchone()[0] if bound else 0
    connection.executemany(
        "INSERT OR REPLACE INTO cells VALUES (?, ?, ?)",
        [(key, text, stamp) for key, text in rows],
    )
    if not bound:
        return 0
    excess = connection.execute("SELECT COUNT(*) FROM cells").fetchone()[0] - bound
    connection.execute(
        "DELETE FROM cells WHERE key IN (SELECT key FROM cells ORDER BY used LIMIT ?)",
        (max(excess, 0),),
    )
    return max(excess, 0)
