"""The HTTP front end: simulation-as-a-service on the standard library.

``ThreadingHTTPServer`` + ``json`` — no new runtime dependencies.  The API
is deliberately small:

==========================  ====================================================
``POST /jobs``              submit ``{"scenario", "params", "priority"}``;
                            parameters are validated *before* queueing (400 on
                            an unknown scenario or bad parameters), so the
                            queue only ever holds runnable jobs.  Returns 202
                            with the queued job record — or 200 with an
                            already-``done`` record when the payload cache
                            answered on the fast path, or 429 with a
                            ``Retry-After`` header when the queue is at its
                            bound (backpressure).
``GET /jobs``               every job record, newest first (results elided).
``GET /jobs/<id>``          one job record: state, timestamps, error.
``GET /jobs/<id>/trace``    the job's span timeline (admission → queue →
                            run, engine/cache spans nested under run).
``DELETE /jobs/<id>``       cancel a *queued* job (running jobs finish).
``GET /results/<id>``       the result payload; 409 while the job is still
                            queued/running, 410 if it failed or was cancelled.
``GET /scenarios``          the scenario catalogue with parameter schemas.
``GET /healthz``            liveness: 200 once the service accepts jobs.
``GET /stats``              engine cache hit-rate, queue depth, coalesce and
                            fast-path counters, per-worker liveness.
``GET /metrics``            every metric family in Prometheus text format
                            (see :mod:`repro.obs` and docs/observability.md).
==========================  ====================================================

:class:`SimulationService` is the transport-free composition root (queue +
registry + worker tier + coalescer + engine) — the tests and the in-process
example use it directly; :class:`ServiceServer` binds it to a socket.  The
worker tier comes in two modes (``mode="thread"`` | ``"process"``, see
:mod:`repro.service.worker`); every request path above behaves identically
in both, which is what the equivalence tests pin.
"""

from __future__ import annotations

import json
import math
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro import obs
from repro.engine import SimulationEngine
from repro.obs import Span
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
    Job,
    JobQueue,
    UnknownJobError,
)
from repro.service.scenarios import ScenarioError, ScenarioRegistry, default_registry
from repro.service.worker import ProcessWorkerPool, WorkerPool, engine_config_of

SERVICE_MODES = ("thread", "process")

_SUBMISSIONS = obs.counter(
    "repro_submissions_total",
    "Admitted submissions by tier (fast_path, coalesced, enqueued).",
    ("tier",),
)
_BACKPRESSURE = obs.counter(
    "repro_backpressure_rejections_total",
    "Submissions rejected because the queue was at its depth bound.",
)
_HTTP_REQUESTS = obs.counter(
    "repro_http_requests_total",
    "HTTP requests served, by method, endpoint and status code.",
    ("method", "endpoint", "status"),
)
_QUEUE_DEPTH = obs.gauge(
    "repro_queue_depth", "Jobs currently waiting to be claimed."
)
_BUSY_WORKERS = obs.gauge(
    "repro_busy_workers", "Workers currently executing a job."
)


class QueueFullError(RuntimeError):
    """The queue is at its configured depth bound; retry after a delay.

    The HTTP layer renders this as ``429 Too Many Requests`` with a
    ``Retry-After`` header — which the client SDK surfaces (and retries)
    as :class:`repro.service.client.BackpressureError`.
    """

    def __init__(self, message: str, retry_after: float) -> None:
        super().__init__(message)
        self.retry_after = retry_after


def _public_record(job: Job) -> Dict[str, Any]:
    """A job record with the (possibly large) result payload elided."""
    record = job.to_record()
    record["has_result"] = record.pop("result") is not None
    return record


class SimulationService:
    """Queue + registry + coalescer + worker tier over one shared cache.

    Everything the HTTP layer exposes is a method here, so the service can
    also be driven in-process (tests, notebooks, the example script)
    without a socket.

    Args:
        engine: the shared engine (thread mode runs jobs on it directly;
            process mode derives each worker's engine configuration from it
            via :func:`~repro.service.worker.engine_config_of`, so all
            workers share its on-disk cache root).  Defaults to a serial
            engine on ``REPRO_CACHE_DIR``: worker threads never fork pools.
        registry: the scenario catalogue (defaults to the built-in one).
        num_workers: worker threads or processes draining the queue.
        journal_dir: persist job records here; queued/running jobs resume
            on restart.
        mode: ``"thread"`` (one warm in-process engine, the equivalence
            oracle) or ``"process"`` (N forked engine workers).
        max_queue_depth: bound on jobs *waiting* in the queue; beyond it
            :meth:`submit` raises :class:`QueueFullError` (the HTTP
            layer turns that into 429 + ``Retry-After``).  Fast-path and
            coalesced submissions never count against the bound — they
            consume no worker.  ``None`` disables backpressure.
        observability: turn on the process-wide metrics registry and
            tracer (:func:`repro.obs.enable`) so ``/metrics`` and
            ``/jobs/<id>/trace`` have something to report.  ``False``
            leaves :mod:`repro.obs` in whatever state the embedder chose.
    """

    def __init__(
        self,
        engine: Optional[SimulationEngine] = None,
        registry: Optional[ScenarioRegistry] = None,
        num_workers: int = 2,
        journal_dir: Union[None, str, Path] = None,
        mode: str = "thread",
        max_queue_depth: Optional[int] = None,
        observability: bool = True,
    ) -> None:
        if mode not in SERVICE_MODES:
            raise ValueError(
                f"mode must be one of {', '.join(SERVICE_MODES)}; got {mode!r}"
            )
        if max_queue_depth is not None and max_queue_depth < 1:
            raise ValueError("max_queue_depth must be positive (or None)")
        if observability:
            # Before anything else records (journal load, pool forks): the
            # forked worker processes inherit the enabled flag.
            obs.enable()
        self.engine = engine if engine is not None else SimulationEngine()
        self.registry = registry if registry is not None else default_registry()
        self.mode = mode
        self.max_queue_depth = max_queue_depth
        self.queue = (
            JobQueue.load(journal_dir) if journal_dir is not None else JobQueue()
        )
        self.coalescer = RequestCoalescer()
        self.payloads = PayloadStore()
        self.sink = CoalescingSink(self.queue, self.coalescer, self.payloads)
        if mode == "process":
            self.workers: Any = ProcessWorkerPool(
                self.queue,
                self.registry,
                engine_config_of(self.engine),
                num_workers=num_workers,
                sink=self.sink,
            )
        else:
            self.workers = WorkerPool(
                self.queue,
                self.registry,
                self.engine,
                num_workers=num_workers,
                sink=self.sink,
            )
        self._rejections = 0
        self._lock = threading.Lock()
        # Point-in-time gauges read at /metrics collection.  Latest
        # composition root wins — ephemeral test services rebind freely.
        _QUEUE_DEPTH.set_callback(self.queue.depth)
        _BUSY_WORKERS.set_callback(
            lambda: self.workers.stats()["busy_workers"]
        )

    # -- lifecycle --------------------------------------------------------------

    def start(self) -> None:
        """Start the worker tier."""
        self.workers.start()

    def stop(self) -> None:
        """Stop the worker tier (no claimed job is left in ``running``)."""
        self.workers.stop()

    # -- operations (the HTTP surface, transport-free) --------------------------

    def submit(
        self,
        scenario: str,
        params: Optional[Dict[str, Any]] = None,
        priority: int = 0,
    ) -> Job:
        """Validate, deduplicate, and (maybe) enqueue one scenario invocation.

        Raises :class:`ScenarioError` on an unknown scenario or invalid
        parameters — nothing unrunnable ever reaches the queue.  The job is
        stored with *normalised* parameters (defaults applied), so its
        cache fingerprint is canonical.  A ``trace_id`` is minted here —
        admission is the root of every job's timeline.  Three admission
        tiers, in order:

        1. **fast path** — the payload store already holds this request's
           finished result: the returned job is born ``done``;
        2. **coalesce** — an identical request is in flight: the job
           attaches as a follower and receives the leader's payload;
        3. **enqueue** — a genuinely new request: claimable by workers,
           subject to the ``max_queue_depth`` bound
           (:class:`QueueFullError` beyond it).  An identical leader that
           finished during admission is caught by a second look at the
           payload store instead of running again.
        """
        trace_id = obs.new_trace_id()
        admission_start = time.monotonic()
        normalised = self.registry.get(scenario).validate(params)
        key = payload_key(scenario, normalised)
        payload = self.payloads.get(key)
        if payload is not None:
            job = self.queue.submit_done(
                scenario,
                normalised,
                priority=priority,
                result=payload,
                trace_id=trace_id,
            )
            _SUBMISSIONS.inc(tier="fast_path")
            self._record_admission(job, admission_start, tier="fast_path")
            return job
        will_coalesce = self.coalescer.leading(key)
        if (
            not will_coalesce
            and self.max_queue_depth is not None
            and self.queue.depth() >= self.max_queue_depth
        ):
            with self._lock:
                self._rejections += 1
            _BACKPRESSURE.inc()
            retry_after = self.retry_after()
            raise QueueFullError(
                f"queue depth is at its bound ({self.max_queue_depth}); "
                f"retry in {retry_after}s",
                retry_after=retry_after,
            )
        job = self.queue.submit(
            scenario, normalised, priority=priority, hold=True, trace_id=trace_id
        )
        leader = self.coalescer.attach(key, job.id)
        if leader is not None:
            tier = "coalesced"
        elif (payload := self.payloads.get(key)) is not None:
            self.sink.mark_done(job.id, payload)
            tier = "fast_path"
        else:
            self.queue.enqueue(job.id)
            tier = "enqueued"
        _SUBMISSIONS.inc(tier=tier)
        self._record_admission(job, admission_start, tier=tier)
        return job

    def _record_admission(self, job: Job, start: float, tier: str) -> None:
        """Record the admission span — validation through job creation.

        Its end is pinned to the job's own ``submitted_mono`` stamp so the
        admission and queue-wait spans tile exactly on the timeline.
        """
        if obs.enabled() and job.trace_id is not None:
            obs.record_span(
                Span(
                    trace_id=job.trace_id,
                    name="admission",
                    start=min(start, job.submitted_mono),
                    end=job.submitted_mono,
                    attrs={"tier": tier, "scenario": job.scenario},
                )
            )

    def retry_after(self) -> int:
        """Suggested client back-off, from queue depth and recent job times.

        ``ceil(depth x average recent job duration / workers)`` clamped to
        [1, 60] seconds — a rough drain-time estimate, deliberately coarse:
        its purpose is spacing retries, not scheduling them.
        """
        durations = [
            job.duration_s
            for job in self.queue.jobs()[:20]
            if job.state == DONE and job.duration_s is not None
        ]
        average = (sum(durations) / len(durations)) if durations else 1.0
        estimate = math.ceil(
            (self.queue.depth() + 1) * average / self.workers.num_workers
        )
        return max(1, min(60, int(estimate)))

    def job(self, job_id: str) -> Job:
        """The current record of one job."""
        return self.queue.get(job_id)

    def trace(self, job_id: str) -> Dict[str, Any]:
        """The per-job timeline assembled from spans and the job's stamps.

        The three top-level phases — ``admission`` (HTTP admission through
        job creation), ``queue`` (waiting for a worker), ``run`` (claim to
        settle) — are derived from the job record's own monotonic stamps,
        so they tile exactly: their durations sum to the timeline's total.
        Engine and cache spans recorded during execution (in this process
        or shipped back from a forked worker) nest as children of ``run``.
        All offsets are seconds relative to the timeline origin (the start
        of admission).
        """
        job = self.queue.get(job_id)
        document: Dict[str, Any] = {
            "id": job.id,
            "trace_id": job.trace_id,
            "scenario": job.scenario,
            "state": job.state,
            "complete": job.is_terminal,
            "spans": [],
            "duration_s": None,
            "job_duration_s": job.duration_s,
        }
        stored = (
            obs.trace_store().spans_for(job.trace_id)
            if job.trace_id is not None
            else []
        )
        admission = next((s for s in stored if s.name == "admission"), None)
        origin = admission.start if admission is not None else job.submitted_mono

        def entry(
            name: str, start: float, end: float, attrs: Optional[Dict[str, Any]]
        ) -> Dict[str, Any]:
            record = {
                "name": name,
                "start_s": start - origin,
                "end_s": end - origin,
                "duration_s": max(0.0, end - start),
            }
            if attrs:
                record["attrs"] = attrs
            return record

        spans: List[Dict[str, Any]] = []
        if admission is not None:
            spans.append(
                entry(
                    "admission", admission.start, job.submitted_mono, admission.attrs
                )
            )
        end = None
        if job.started_mono is not None:
            spans.append(entry("queue", job.submitted_mono, job.started_mono, None))
            if job.finished_mono is not None:
                run = entry("run", job.started_mono, job.finished_mono, None)
                run["children"] = [
                    entry(span.name, span.start, span.end, span.attrs)
                    for span in stored
                    if span.name != "admission"
                ]
                spans.append(run)
                end = job.finished_mono
        elif job.finished_mono is not None:
            # Settled without ever running: a fast-path job (born done) or
            # a job cancelled while queued.
            if job.finished_mono > job.submitted_mono:
                spans.append(entry("queue", job.submitted_mono, job.finished_mono, None))
            end = job.finished_mono
        if end is not None:
            document["duration_s"] = end - origin
        document["spans"] = spans
        return document

    def cancel(self, job_id: str) -> Job:
        """Cancel a queued job; promotes a follower if a leader dies queued.

        Cancelling a coalesced group's *leader* while it is still queued
        promotes its oldest follower to leader (and actually enqueues it),
        so the rest of the group still gets a result.
        """
        job = self.queue.cancel(job_id)
        if job.state == CANCELLED:
            promoted = self.coalescer.detach(job_id)
            if promoted is not None:
                self.queue.enqueue(promoted)
        return job

    def stats(self) -> Dict[str, Any]:
        """Engine, queue, worker-tier and coalescing counters, JSON-able."""
        with self._lock:
            rejections = self._rejections
        return {
            "engine": self.engine.stats(),
            "queue": {
                "depth": self.queue.depth(),
                "max_depth": self.max_queue_depth,
                "jobs": self.queue.counts(),
                "journal_errors": self.queue.journal_errors,
            },
            "workers": self.workers.stats(),
            "service": {
                "mode": self.mode,
                "coalesced": self.coalescer.coalesced,
                "coalesced_in_flight": self.coalescer.in_flight(),
                "fast_path_hits": self.payloads.hits,
                "backpressure_rejections": rejections,
            },
        }

    def health(self) -> Dict[str, Any]:
        """Liveness summary: scenario count, worker-tier size and mode."""
        return {
            "status": "ok",
            "scenarios": len(self.registry),
            "workers": self.workers.num_workers,
            "mode": self.mode,
        }


class _Handler(BaseHTTPRequestHandler):
    """Routes requests onto ``self.server.service``; JSON in, JSON out."""

    server_version = "ReproService/1.0"

    @property
    def service(self) -> SimulationService:
        return self.server.service  # type: ignore[attr-defined]

    def log_message(self, format: str, *args: Any) -> None:
        if getattr(self.server, "verbose", False):  # quiet by default
            super().log_message(format, *args)

    # -- response helpers -------------------------------------------------------

    def _count_request(self, status: int) -> None:
        head, _ = self._route()
        _HTTP_REQUESTS.inc(
            method=self.command, endpoint=head or "unknown", status=str(status)
        )

    def _send_json(
        self,
        status: int,
        payload: Any,
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        body = json.dumps(payload).encode("utf-8")
        self._count_request(status)
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _send_text(self, status: int, text: str, content_type: str) -> None:
        body = text.encode("utf-8")
        self._count_request(status)
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_error_json(self, status: int, message: str, **extra: Any) -> None:
        self._send_json(status, {"error": message, **extra})

    def _read_body(self) -> Dict[str, Any]:
        length = int(self.headers.get("Content-Length") or 0)
        raw = self.rfile.read(length) if length else b""
        if not raw:
            return {}
        document = json.loads(raw.decode("utf-8"))
        if not isinstance(document, dict):
            raise ValueError("request body must be a JSON object")
        return document

    def _route(self) -> Tuple[str, Optional[str]]:
        parts = [part for part in self.path.split("?", 1)[0].split("/") if part]
        if len(parts) == 3 and parts[0] == "jobs" and parts[2] == "trace":
            # The one three-segment endpoint: /jobs/<id>/trace.
            return "jobs-trace", parts[1]
        if len(parts) > 2:
            # No other endpoint is deeper than two segments; a longer path
            # (e.g. /jobs/<id>/result) must 404, not act on its prefix.
            return "", None
        head = parts[0] if parts else ""
        tail = parts[1] if len(parts) > 1 else None
        return head, tail

    # -- verbs ------------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        head, tail = self._route()
        try:
            if head == "healthz" and tail is None:
                self._send_json(200, self.service.health())
            elif head == "stats" and tail is None:
                self._send_json(200, self.service.stats())
            elif head == "scenarios" and tail is None:
                self._send_json(200, {"scenarios": self.service.registry.describe()})
            elif head == "metrics" and tail is None:
                self._send_text(
                    200,
                    obs.render_prometheus(obs.registry()),
                    "text/plain; version=0.0.4; charset=utf-8",
                )
            elif head == "jobs" and tail is None:
                records = [_public_record(job) for job in self.service.queue.jobs()]
                self._send_json(200, {"jobs": records})
            elif head == "jobs":
                self._send_json(200, _public_record(self.service.job(tail)))
            elif head == "jobs-trace" and tail is not None:
                self._send_json(200, self.service.trace(tail))
            elif head == "results" and tail is not None:
                self._send_result(tail)
            else:
                self._send_error_json(404, f"no such endpoint: {self.path}")
        except UnknownJobError:
            self._send_error_json(404, f"unknown job {tail!r}")

    def _send_result(self, job_id: str) -> None:
        job = self.service.job(job_id)
        if job.state == DONE:
            self._send_json(
                200,
                {
                    "id": job.id,
                    "scenario": job.scenario,
                    "state": job.state,
                    "result": job.result,
                },
            )
        elif job.state in (FAILED, CANCELLED):
            self._send_error_json(
                410,
                f"job {job.id} is {job.state}",
                state=job.state,
                detail=job.error,
            )
        else:
            self._send_error_json(
                409, f"job {job.id} is still {job.state}", state=job.state
            )

    def do_POST(self) -> None:  # noqa: N802
        head, tail = self._route()
        if head != "jobs" or tail is not None:
            self._send_error_json(404, f"no such endpoint: POST {self.path}")
            return
        try:
            body = self._read_body()
        except ValueError as error:
            self._send_error_json(400, f"invalid request body: {error}")
            return
        scenario = body.get("scenario")
        if not isinstance(scenario, str):
            self._send_error_json(400, "request must name a 'scenario' (string)")
            return
        params = body.get("params") or {}
        priority = body.get("priority", 0)
        # JSON encoders in several client stacks float-ize every number, so
        # {"priority": 4.0} must mean the integer 4 (mirroring
        # Parameter.coerce for scenario parameters).
        if isinstance(priority, float) and priority.is_integer():
            priority = int(priority)
        if not isinstance(params, dict) or isinstance(priority, bool) or not isinstance(priority, int):
            self._send_error_json(
                400, "'params' must be an object and 'priority' an integer"
            )
            return
        try:
            job = self.service.submit(scenario, params, priority=priority)
        except ScenarioError as error:
            self._send_error_json(400, str(error))
            return
        except QueueFullError as error:
            retry_after = max(1, int(error.retry_after))
            self._send_json(
                429,
                {"error": str(error), "retry_after": retry_after},
                headers={"Retry-After": str(retry_after)},
            )
            return
        # A fast-path submission is already done — 200, not 202 Accepted.
        self._send_json(200 if job.state == DONE else 202, _public_record(job))

    def do_DELETE(self) -> None:  # noqa: N802
        head, tail = self._route()
        if head != "jobs" or tail is None:
            self._send_error_json(404, f"no such endpoint: DELETE {self.path}")
            return
        try:
            job = self.service.cancel(tail)
        except UnknownJobError:
            self._send_error_json(404, f"unknown job {tail!r}")
            return
        self._send_json(200, _public_record(job))


class _BurstTolerantServer(ThreadingHTTPServer):
    """``ThreadingHTTPServer`` with a listen backlog sized for bursts.

    The ``socketserver`` default backlog (5) overflows when a concurrent
    submission burst opens dozens of connections at once; an overflowed
    accept queue surfaces client-side as ``ConnectionResetError``.
    """

    daemon_threads = True
    request_queue_size = 128


class ServiceServer:
    """A :class:`SimulationService` bound to a listening socket."""

    def __init__(
        self,
        service: SimulationService,
        host: str = "127.0.0.1",
        port: int = 0,
        verbose: bool = False,
    ) -> None:
        self.service = service
        self._httpd = _BurstTolerantServer((host, port), _Handler)
        self._httpd.service = service  # type: ignore[attr-defined]
        self._httpd.verbose = verbose  # type: ignore[attr-defined]
        self._thread: Optional[threading.Thread] = None

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        """The bound port (useful with ``port=0`` — an ephemeral port)."""
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> None:
        """Start the workers and serve requests on a background thread."""
        self.service.start()
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, name="repro-service-http", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        """Stop serving, close the socket, and stop the worker tier."""
        self._httpd.shutdown()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        self._httpd.server_close()
        self.service.stop()

    def serve_forever(self) -> None:
        """Foreground serving (the ``repro serve`` CLI path)."""
        self.service.start()
        try:
            self._httpd.serve_forever()
        finally:
            self._httpd.server_close()
            self.service.stop()

    def __enter__(self) -> "ServiceServer":
        self.start()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()


def create_server(
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    engine: Optional[SimulationEngine] = None,
    registry: Optional[ScenarioRegistry] = None,
    num_workers: int = 2,
    journal_dir: Union[None, str, Path] = None,
    mode: str = "thread",
    max_queue_depth: Optional[int] = None,
    verbose: bool = False,
    observability: bool = True,
) -> ServiceServer:
    """Compose a service and bind it; ``port=0`` picks an ephemeral port."""
    service = SimulationService(
        engine=engine,
        registry=registry,
        num_workers=num_workers,
        journal_dir=journal_dir,
        mode=mode,
        max_queue_depth=max_queue_depth,
        observability=observability,
    )
    return ServiceServer(service, host=host, port=port, verbose=verbose)
