"""Simulation-as-a-service: async job queue, scenario registry, HTTP API.

This subsystem turns the batched :class:`~repro.engine.SimulationEngine`
into a long-lived service: many concurrent simulation and DSE requests
multiplex over **one warm engine and one shared content-addressed cache**,
instead of each paying engine construction and cold caches in its own
process.  It is standard-library only — ``http.server``, ``json``,
``threading`` — so ``repro serve`` boots with zero new runtime
dependencies.

The pieces (each its own module, composable without the HTTP layer):

* :mod:`repro.service.jobs` — :class:`JobQueue`: thread-safe priority
  queue with job states (queued → running → done/failed, plus queued-job
  cancellation and a running → queued requeue arc for worker-death
  retries), JSON-serializable records, and an optional on-disk journal
  that survives restarts.
* :mod:`repro.service.scenarios` — :class:`ScenarioRegistry`: named,
  parameter-validated request shapes covering the repo's catalogue (single
  layer, full network, DSE sweep, paper-figure regeneration).
* :mod:`repro.service.coalesce` — the duplicate-suppression tier:
  :class:`PayloadStore` (the fast path: an in-memory store answering a
  repeat of a request this process already finished, without a worker),
  :class:`RequestCoalescer` (identical in-flight requests collapse to one
  simulation) and :class:`CoalescingSink` (fans the one result out to
  every coalesced follower).  Across restarts, repeats are answered by a
  worker from the engine's content-addressed cache.
* :mod:`repro.service.worker` — the worker tier: :class:`WorkerPool`
  (threads on one warm engine, the equivalence oracle) and
  :class:`ProcessWorkerPool` (forked engine processes sharing the on-disk
  cache, with crash detection and retry-once).
* :mod:`repro.service.server` — :class:`SimulationService` (the
  transport-free composition root) and :class:`ServiceServer` /
  :func:`create_server` (the stdlib HTTP binding), including
  backpressure: a bounded queue rejects with 429 + ``Retry-After``
  (:class:`QueueFullError`).
* :mod:`repro.service.client` — :class:`ServiceClient`: the
  ``submit``/``wait``/``result`` SDK used by tests, examples and
  ``repro submit``; retries 429s transparently
  (:class:`BackpressureError`).

Every tier reports into :mod:`repro.obs` — the service enables the
process-global metrics registry and tracer at construction, mints a
``trace_id`` per submission, and serves ``GET /metrics`` (Prometheus text)
plus ``GET /jobs/<id>/trace`` (the per-job span timeline).  See
``docs/observability.md``.

Quickstart (in one process; see ``examples/service_client.py``)::

    from repro.service import ServiceClient, create_server

    with create_server(port=0, num_workers=2) as server:
        client = ServiceClient(server.url)
        payload = client.run("network", {"network": "alexnet"})
        print(payload["network_speedup"])

See ``docs/service.md`` for the request lifecycle and API reference.
"""

from repro.service.client import (
    BackpressureError,
    JobFailedError,
    ServiceClient,
    ServiceError,
)
from repro.service.coalesce import (
    CoalescingSink,
    PayloadStore,
    RequestCoalescer,
    payload_key,
)
from repro.service.jobs import (
    CANCELLED,
    DONE,
    FAILED,
    JOB_STATES,
    QUEUED,
    RUNNING,
    Job,
    JobQueue,
    UnknownJobError,
)
from repro.service.scenarios import (
    Parameter,
    Scenario,
    ScenarioError,
    ScenarioRegistry,
    default_registry,
)
from repro.service.server import (
    SERVICE_MODES,
    QueueFullError,
    ServiceServer,
    SimulationService,
    create_server,
)
from repro.service.worker import ProcessWorkerPool, WorkerPool, engine_config_of

__all__ = [
    "CANCELLED",
    "DONE",
    "FAILED",
    "JOB_STATES",
    "QUEUED",
    "RUNNING",
    "SERVICE_MODES",
    "BackpressureError",
    "CoalescingSink",
    "Job",
    "JobFailedError",
    "JobQueue",
    "Parameter",
    "PayloadStore",
    "ProcessWorkerPool",
    "QueueFullError",
    "RequestCoalescer",
    "Scenario",
    "ScenarioError",
    "ScenarioRegistry",
    "ServiceClient",
    "ServiceError",
    "ServiceServer",
    "SimulationService",
    "UnknownJobError",
    "WorkerPool",
    "create_server",
    "default_registry",
    "engine_config_of",
    "payload_key",
]
