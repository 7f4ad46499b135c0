"""Request coalescing and the payload fast path for the simulation service.

Two duplicate-suppression tiers sit between ``POST /jobs`` and the worker
tier, both keyed by the same content hash (:func:`payload_key` — a
:func:`repro.engine.cache.fingerprint` over the scenario name and its
*normalised* parameters, so every equivalent spelling of a request maps to
one key):

* the **fast path** (:class:`PayloadStore`): a finished payload for the key
  is returned straight from the store — the job record is born ``done`` and
  never touches the queue or a worker;
* **coalescing** (:class:`RequestCoalescer`): an identical request already
  *in flight* attaches as a *follower* of the running job (its *leader*)
  instead of enqueueing a second simulation.  When the leader finishes, the
  :class:`CoalescingSink` fans the one result out to every follower — all
  of them receive the bitwise-identical payload.

The store holds only payloads this process computed, in memory.  A payload
key names a scenario by its name and parameters and, like every
:func:`~repro.engine.cache.fingerprint`, the model source's digest, but not
the scenario's definition: the digest skips this package, so a payload kept
across a restart could answer for a scenario that has since been redefined.
A restarted service answers a repeat through a worker instead, from the
engine's content-addressed cache, whose keys name every model input.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Optional, Tuple

from repro import obs
from repro.engine.cache import fingerprint
from repro.service.jobs import JobQueue

#: Finished payloads the fast path keeps; the least recently used go first.
PAYLOAD_STORE_ENTRIES = 256

_FAST_PATH_HITS = obs.counter(
    "repro_fast_path_hits_total",
    "Requests answered straight from the payload store (job born done).",
)
_COALESCED = obs.counter(
    "repro_coalesced_total",
    "Requests attached as followers of an identical in-flight job.",
)


def payload_key(scenario: str, params: Dict[str, Any]) -> str:
    """Content hash of one (scenario, normalised parameters) request.

    Parameters must already be normalised (defaults applied, names
    canonicalised) — :meth:`repro.service.scenarios.Scenario.validate` does
    that at submission time — so every equivalent request spelling
    fingerprints identically.
    """
    return fingerprint("service-payload", scenario=scenario, params=params)


class PayloadStore:
    """This process's finished scenario payloads, keyed by :func:`payload_key`.

    A bounded in-memory LRU dict of :data:`PAYLOAD_STORE_ENTRIES` entries.
    ``hits`` counts fast-path answers — every ``get`` that returned a
    payload — which the service reports as ``fast_path_hits``.
    """

    def __init__(self) -> None:
        self._memory: Dict[str, Any] = {}
        self._lock = threading.Lock()
        self.hits = 0

    def get(self, key: str) -> Optional[Any]:
        """The stored payload for ``key``, or ``None`` on a miss."""
        with self._lock:
            if key not in self._memory:
                return None
            # Reinsert so the hit entry becomes most recently used.
            value = self._memory.pop(key)
            self._memory[key] = value
            self.hits += 1
            _FAST_PATH_HITS.inc()
            return value

    def put(self, key: str, payload: Any) -> None:
        """Store a finished payload under ``key``, evicting LRU entries."""
        with self._lock:
            self._memory.pop(key, None)
            self._memory[key] = payload
            while len(self._memory) > PAYLOAD_STORE_ENTRIES:
                del self._memory[next(iter(self._memory))]


class RequestCoalescer:
    """Tracks in-flight request groups: one leader, any number of followers.

    All bookkeeping happens under one lock so that attaching a follower and
    settling a group can never interleave halfway.  The coalescer never
    touches the queue itself — callers (the service's submit/cancel paths
    and the :class:`CoalescingSink`) drive the job-state transitions.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._leader_by_key: Dict[str, str] = {}
        self._group_by_leader: Dict[str, Tuple[str, List[str]]] = {}
        self._leader_by_follower: Dict[str, str] = {}
        self.coalesced = 0  # followers ever attached

    def attach(self, key: str, job_id: str) -> Optional[str]:
        """Attach ``job_id`` to the in-flight group for ``key``.

        Returns the leader's job id when the job became a *follower*, or
        ``None`` when no group was in flight and the job is now the
        *leader* of a fresh group (the caller must then actually enqueue
        it).
        """
        with self._lock:
            leader = self._leader_by_key.get(key)
            if leader is not None:
                self._group_by_leader[leader][1].append(job_id)
                self._leader_by_follower[job_id] = leader
                self.coalesced += 1
                _COALESCED.inc()
                return leader
            self._leader_by_key[key] = job_id
            self._group_by_leader[job_id] = (key, [])
            return None

    def leading(self, key: str) -> bool:
        """Whether an in-flight group already exists for ``key``."""
        with self._lock:
            return key in self._leader_by_key

    def key_of(self, leader_id: str) -> Optional[str]:
        """The key of the group ``leader_id`` leads, or ``None``."""
        with self._lock:
            group = self._group_by_leader.get(leader_id)
            return group[0] if group is not None else None

    def settle(self, leader_id: str) -> List[str]:
        """Close the group led by ``leader_id``; returns its followers.

        Called exactly when the leader's result (or failure) is recorded.
        Returns ``[]`` when the job led no group — e.g. it was a follower,
        or its group was already settled.
        """
        with self._lock:
            group = self._group_by_leader.pop(leader_id, None)
            if group is None:
                return []
            key, followers = group
            self._leader_by_key.pop(key, None)
            for follower in followers:
                self._leader_by_follower.pop(follower, None)
            return followers

    def detach(self, job_id: str) -> Optional[str]:
        """Remove a cancelled job from its group.

        A cancelled *follower* is simply dropped.  A cancelled *leader*
        hands its group to its oldest follower — the returned job id, which
        the caller must enqueue so the promoted leader actually runs.
        Returns ``None`` when nothing needs promoting.
        """
        with self._lock:
            leader = self._leader_by_follower.pop(job_id, None)
            if leader is not None:
                _, followers = self._group_by_leader[leader]
                followers.remove(job_id)
                return None
            group = self._group_by_leader.pop(job_id, None)
            if group is None:
                return None
            key, followers = group
            self._leader_by_key.pop(key, None)
            if not followers:
                return None
            promoted, remaining = followers[0], followers[1:]
            self._leader_by_follower.pop(promoted, None)
            self._leader_by_key[key] = promoted
            self._group_by_leader[promoted] = (key, remaining)
            for follower in remaining:
                self._leader_by_follower[follower] = promoted
            return promoted

    def in_flight(self) -> int:
        """How many groups (leaders) are currently in flight."""
        with self._lock:
            return len(self._group_by_leader)


class CoalescingSink:
    """The completion surface worker pools record results through.

    Wraps the queue's ``mark_done`` / ``mark_failed`` with the group
    settlement a coalescing service needs: the leader's payload is stored
    for the fast path *before* any state flips (so a racing duplicate
    submission finds it), then the leader and every follower settle with
    the one identical payload.  A pool wired straight to the
    :class:`~repro.service.jobs.JobQueue` (no coalescing) keeps working —
    the queue itself exposes the same two methods.
    """

    def __init__(
        self,
        queue: JobQueue,
        coalescer: RequestCoalescer,
        payloads: PayloadStore,
    ) -> None:
        self.queue = queue
        self.coalescer = coalescer
        self.payloads = payloads

    def mark_done(self, job_id: str, result: Any):
        """Record the result and fan it out to every coalesced follower."""
        key = self.coalescer.key_of(job_id)
        if key is not None:
            self.payloads.put(key, result)
        followers = self.coalescer.settle(job_id)
        job = self.queue.mark_done(job_id, result)
        for follower in followers:
            # Cancelled followers stay cancelled (mark_done guards terminal
            # states); everyone else receives the identical payload object.
            self.queue.mark_done(follower, result)
        return job

    def mark_failed(self, job_id: str, error: str):
        """Record the failure and propagate it to every coalesced follower."""
        followers = self.coalescer.settle(job_id)
        job = self.queue.mark_failed(job_id, error)
        for follower in followers:
            self.queue.mark_failed(follower, error)
        return job
