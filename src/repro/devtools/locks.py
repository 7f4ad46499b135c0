"""Dynamic concurrency checking: tracked locks, lock-order graph, I/O audit.

The static half of the locking contract lives in the lint rule
``no-lock-held-io`` (lexical, per file).  This module is the dynamic
half: :class:`TrackedLock` / :class:`TrackedRLock` are drop-in wrappers
around the real primitives that report every acquisition to a
:class:`LockTracker`, which

* maintains each thread's stack of currently-held locks;
* aggregates acquisitions into a *site-level* lock-order graph — a lock's
  site is the ``file:line`` that created it, so every ``JobQueue``
  instance's lock collapses onto one node — and reports cycles in that
  graph as potential deadlocks (:meth:`LockTracker.cycles`);
* records filesystem/subprocess activity performed while the current
  thread holds any tracked lock (:attr:`LockTracker.io_violations`),
  via a process-wide ``sys.addaudithook`` that is a no-op whenever no
  tracker is active.

:func:`track_locks` wires it into live code without touching production
sources: for each target module it swaps the module's ``threading``
binding for a proxy whose ``Lock()`` / ``RLock()`` return tracked
wrappers (everything else delegates to the real module), so every lock
*created* by that module during the window is tracked.  The test suite's
``--track-locks`` flag runs the service concurrency suites under it and
fails on any lock-order cycle — the 64-way burst tests double as a
deadlock detector.
"""

from __future__ import annotations

import contextlib
import importlib
import sys
import threading
from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple

#: Modules whose lock sites the service concurrency suites patch.
DEFAULT_TARGET_MODULES: Tuple[str, ...] = (
    "repro.service.jobs",
    "repro.service.worker",
    "repro.service.coalesce",
    "repro.service.server",
    "repro.engine.core",
    "repro.engine.cache",
    "repro.obs.metrics",
    "repro.obs.trace",
    "repro.obs.logging",
)

#: Audit events treated as I/O for the held-across-I/O check.
_IO_AUDIT_EVENTS: FrozenSet[str] = frozenset(
    {
        "open",
        "os.rename",
        "os.remove",
        "os.rmdir",
        "os.mkdir",
        "os.utime",
        "os.truncate",
        "subprocess.Popen",
        "shutil.copyfile",
        "shutil.rmtree",
        "shutil.move",
        "sqlite3.connect",
    }
)

# The process-wide audit hook is installed once and can never be removed
# (CPython contract), so it consults this slot and returns immediately
# while no tracker is active.
_ACTIVE_TRACKER: Optional["LockTracker"] = None
_AUDIT_HOOK_INSTALLED = False


@dataclass
class IoViolation:
    """One I/O event observed while the acting thread held tracked locks."""

    event: str
    held_sites: Tuple[str, ...]
    thread: str
    detail: str = ""

    def format(self) -> str:
        """The violation as one human-readable line."""
        held = ", ".join(self.held_sites)
        suffix = f" ({self.detail})" if self.detail else ""
        return f"{self.event} on thread {self.thread!r} while holding [{held}]{suffix}"


@dataclass
class _HeldEntry:
    """One acquisition on a thread's stack (reentrant acquisitions too)."""

    lock_id: int
    site: str
    reentrant: bool = False


class LockTracker:
    """Aggregates lock acquisitions into a site-level order graph.

    Thread-safety: the edge map and violation list are guarded by a real
    (untracked) lock; each per-thread held stack is only mutated by its
    owning thread, and only ever *read* by that same thread (the audit
    hook and the acquisition path both run on the acting thread).
    """

    def __init__(self) -> None:
        self.active = False
        self._guard = threading.Lock()
        self._edges: Dict[str, set] = {}
        self._edge_examples: Dict[Tuple[str, str], str] = {}
        self._held: Dict[int, List[_HeldEntry]] = {}
        self.io_violations: List[IoViolation] = []
        self.acquisitions = 0

    # -- acquisition bookkeeping (called from the acting thread) ---------------

    def on_acquired(self, lock: "TrackedLock") -> None:
        """Record that the current thread acquired ``lock``."""
        ident = threading.get_ident()
        stack = self._held.setdefault(ident, [])
        reentrant = any(entry.lock_id == id(lock) for entry in stack)
        new_edges: List[Tuple[str, str]] = []
        if not reentrant:
            seen = set()
            for entry in stack:
                if entry.lock_id == id(lock) or entry.site in seen:
                    continue
                seen.add(entry.site)
                # A same-site edge (two *instances* from one creation site
                # nested) is kept: it is a real ordering hazard.
                new_edges.append((entry.site, lock.site))
        stack.append(_HeldEntry(id(lock), lock.site, reentrant=reentrant))
        with self._guard:
            self.acquisitions += 1
            for source, target in new_edges:
                self._edges.setdefault(source, set()).add(target)
                self._edge_examples.setdefault(
                    (source, target),
                    f"thread {threading.current_thread().name!r}",
                )

    def on_released(self, lock: "TrackedLock") -> None:
        """Record that the current thread released ``lock`` once."""
        stack = self._held.get(threading.get_ident())
        if not stack:
            return
        for index in range(len(stack) - 1, -1, -1):
            if stack[index].lock_id == id(lock):
                del stack[index]
                return

    def held_sites(self) -> Tuple[str, ...]:
        """Sites of the locks the *current* thread holds, outermost first."""
        stack = self._held.get(threading.get_ident(), [])
        sites = []
        for entry in stack:
            if not entry.reentrant:
                sites.append(entry.site)
        return tuple(sites)

    def record_io(self, event: str, detail: str = "") -> None:
        """Record an I/O event if the current thread holds tracked locks."""
        held = self.held_sites()
        if not held:
            return
        violation = IoViolation(
            event=event,
            held_sites=held,
            thread=threading.current_thread().name,
            detail=detail,
        )
        with self._guard:
            self.io_violations.append(violation)

    # -- reporting --------------------------------------------------------------

    def graph(self) -> Dict[str, Tuple[str, ...]]:
        """The observed lock-order graph: site -> sites acquired under it."""
        with self._guard:
            return {
                source: tuple(sorted(targets))
                for source, targets in sorted(self._edges.items())
            }

    def cycles(self) -> List[Tuple[str, ...]]:
        """Every cycle in the site-level order graph (potential deadlocks).

        Computed as the strongly-connected components with more than one
        node, plus any site with a self-edge (two *instances* from one
        creation site acquired nested — still an ordering hazard).
        Returns ``[]`` when the observed order is acyclic, i.e. a global
        lock order exists.
        """
        graph = self.graph()
        index_counter = [0]
        indices: Dict[str, int] = {}
        lowlinks: Dict[str, int] = {}
        on_stack: Dict[str, bool] = {}
        stack: List[str] = []
        components: List[Tuple[str, ...]] = []

        def strongconnect(root: str) -> None:
            # Iterative Tarjan: (node, child iterator) frames.
            work: List[Tuple[str, Iterator[str]]] = []
            indices[root] = lowlinks[root] = index_counter[0]
            index_counter[0] += 1
            stack.append(root)
            on_stack[root] = True
            work.append((root, iter(graph.get(root, ()))))
            while work:
                node, children = work[-1]
                advanced = False
                for child in children:
                    if child not in indices:
                        indices[child] = lowlinks[child] = index_counter[0]
                        index_counter[0] += 1
                        stack.append(child)
                        on_stack[child] = True
                        work.append((child, iter(graph.get(child, ()))))
                        advanced = True
                        break
                    if on_stack.get(child):
                        lowlinks[node] = min(lowlinks[node], indices[child])
                if advanced:
                    continue
                work.pop()
                if work:
                    parent = work[-1][0]
                    lowlinks[parent] = min(lowlinks[parent], lowlinks[node])
                if lowlinks[node] == indices[node]:
                    component = []
                    while True:
                        member = stack.pop()
                        on_stack[member] = False
                        component.append(member)
                        if member == node:
                            break
                    components.append(tuple(sorted(component)))

        nodes = set(graph) | {t for targets in graph.values() for t in targets}
        for node in sorted(nodes):
            if node not in indices:
                strongconnect(node)
        cycles = [component for component in components if len(component) > 1]
        for node in sorted(nodes):
            if node in graph.get(node, ()):
                cycles.append((node,))
        return cycles

    def report(self) -> Dict[str, Any]:
        """Graph, cycles and I/O violations as one JSON-able summary."""
        return {
            "acquisitions": self.acquisitions,
            "graph": {k: list(v) for k, v in self.graph().items()},
            "cycles": [list(cycle) for cycle in self.cycles()],
            "io_violations": [
                violation.format() for violation in self.io_violations
            ],
        }


class TrackedLock:
    """A ``threading.Lock`` drop-in that reports to a :class:`LockTracker`."""

    _factory = staticmethod(threading.Lock)

    def __init__(self, tracker: LockTracker, site: Optional[str] = None) -> None:
        self._inner = self._factory()
        self._tracker = tracker
        self.site = site if site is not None else _caller_site()

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        """Acquire the underlying lock; record the acquisition on success."""
        acquired = self._inner.acquire(blocking, timeout)
        if acquired:
            self._tracker.on_acquired(self)
        return acquired

    def release(self) -> None:
        """Release the underlying lock and pop it from the thread's stack."""
        self._inner.release()
        self._tracker.on_released(self)

    def locked(self) -> bool:
        """Whether the underlying lock is currently held."""
        return self._inner.locked()

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc_info: Any) -> None:
        self.release()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<TrackedLock site={self.site!r} locked={self.locked()}>"


class TrackedRLock(TrackedLock):
    """A ``threading.RLock`` drop-in that reports to a :class:`LockTracker`.

    Implements the private ``Condition`` integration surface
    (``_release_save`` / ``_acquire_restore`` / ``_is_owned``) by
    delegating to the wrapped RLock, with the tracker's per-thread stack
    kept consistent across a ``Condition.wait``'s full release.
    """

    _factory = staticmethod(threading.RLock)

    def locked(self) -> bool:
        """Whether the underlying RLock is currently held by any thread."""
        # RLock.locked() exists from 3.12; probe portably before that.
        inner_locked = getattr(self._inner, "locked", None)
        if inner_locked is not None:
            return inner_locked()
        if self._inner.acquire(blocking=False):  # pragma: no cover - <3.12
            self._inner.release()
            return False
        return True  # pragma: no cover - <3.12

    def _release_save(self) -> Any:
        state = self._inner._release_save()
        # A full release drops every reentrant level at once.
        stack = self._tracker._held.get(threading.get_ident(), [])
        for index in range(len(stack) - 1, -1, -1):
            if stack[index].lock_id == id(self):
                del stack[index]
        return state

    def _acquire_restore(self, state: Any) -> None:
        self._inner._acquire_restore(state)
        self._tracker.on_acquired(self)

    def _is_owned(self) -> bool:
        return self._inner._is_owned()


def _caller_site(depth: int = 2) -> str:
    """``file:line`` of the frame that created a lock, for site aggregation."""
    frame = sys._getframe(depth)
    filename = frame.f_code.co_filename.rsplit("/", 1)[-1]
    return f"{filename}:{frame.f_lineno}"


class _ThreadingProxy:
    """A per-module stand-in for ``threading`` with tracked lock factories.

    Everything except ``Lock`` and ``RLock`` delegates to the real
    module, so ``Condition``, ``Event``, ``Thread`` and friends behave
    identically — a ``Condition(self._lock)`` built over a tracked lock
    uses the wrapper's acquire/release and stays tracked.
    """

    def __init__(self, tracker: LockTracker) -> None:
        self._tracker = tracker

    def Lock(self) -> TrackedLock:
        """A tracked ``threading.Lock``, sited at the caller."""
        return TrackedLock(self._tracker, _caller_site())

    def RLock(self) -> TrackedRLock:
        """A tracked ``threading.RLock``, sited at the caller."""
        return TrackedRLock(self._tracker, _caller_site())

    def __getattr__(self, name: str) -> Any:
        return getattr(threading, name)


def _audit_hook(event: str, args: Tuple[Any, ...]) -> None:
    tracker = _ACTIVE_TRACKER
    if tracker is None or not tracker.active:
        return
    if event not in _IO_AUDIT_EVENTS:
        return
    detail = ""
    if args:
        first = args[0]
        if isinstance(first, (str, bytes)):
            detail = first if isinstance(first, str) else first.decode(
                "utf-8", "replace"
            )
    try:
        tracker.record_io(event, detail)
    # The hook runs inside arbitrary I/O calls; a raising audit hook would
    # turn every open() into a crash, so diagnostics must never propagate.
    # lint-ok: no-silent-except
    except Exception:  # pragma: no cover - diagnostics must never break IO
        pass


def _ensure_audit_hook() -> None:
    global _AUDIT_HOOK_INSTALLED
    if not _AUDIT_HOOK_INSTALLED:
        sys.addaudithook(_audit_hook)
        _AUDIT_HOOK_INSTALLED = True


@contextlib.contextmanager
def track_locks(
    modules: Sequence[str] = DEFAULT_TARGET_MODULES,
    track_io: bool = True,
) -> Iterator[LockTracker]:
    """Patch ``modules``' lock creation sites and yield the tracker.

    Within the context, every ``threading.Lock()`` / ``threading.RLock()``
    evaluated *inside one of the target modules* returns a tracked
    wrapper.  Pre-existing lock instances are untouched — callers should
    construct the objects under test inside the window.  On exit the
    modules' real ``threading`` bindings are restored and the tracker is
    deactivated (its collected graph stays readable).

    ``track_io=False`` skips the audit-hook I/O surveillance (the hook
    itself is installed lazily and is inert outside the window either
    way).
    """
    global _ACTIVE_TRACKER
    tracker = LockTracker()
    imported = []
    for name in modules:
        try:
            imported.append(importlib.import_module(name))
        except ImportError as error:
            raise ImportError(
                f"track_locks target module {name!r} is not importable"
            ) from error
    originals = {}
    for module in imported:
        originals[module] = module.__dict__.get("threading")
        module.threading = _ThreadingProxy(tracker)
    previous_tracker = _ACTIVE_TRACKER
    if track_io:
        _ensure_audit_hook()
        _ACTIVE_TRACKER = tracker
    tracker.active = True
    try:
        yield tracker
    finally:
        tracker.active = False
        if track_io:
            _ACTIVE_TRACKER = previous_tracker
        for module, original in originals.items():
            if original is None:
                del module.threading
            else:
                module.threading = original
