"""The worker tiers that drain the job queue into the simulation engine.

Two interchangeable pools, one claiming surface:

* :class:`WorkerPool` — daemon *threads* over **one warm engine and one
  shared cache**.  A scenario runner spends its time inside numpy kernels
  (which release the GIL) or the engine's own process pool, so threads are
  the cheap default — but concurrent Python-level work still serializes on
  the interpreter.
* :class:`ProcessWorkerPool` — N forked *engine processes*, each with its
  own :class:`~repro.engine.SimulationEngine` sharing the content-addressed
  on-disk cache.  Every worker process is paired with a parent-side manager
  thread that claims a job, ships ``(job id, scenario, params)`` over a
  pipe with the job's share of the CPUs (the worker's engine pools the job
  over them), and records the returned payload.  The manager doubles as the
  worker's supervisor: a process that dies mid-job (crash, OOM kill) is
  detected, replaced with a fresh fork, and the job re-queued **once** —
  a second death marks it failed.  Journalled job records make every one
  of these transitions resumable across service restarts.

Both pools record outcomes through a *sink* — any object with the queue's
``mark_done`` / ``mark_failed`` surface.  The queue itself is the default;
the service passes a :class:`~repro.service.coalesce.CoalescingSink` so one
finished simulation fans out to every coalesced duplicate.

Failure isolation holds in both tiers: a scenario exception marks the job
``failed`` (traceback preserved) and never takes a worker down, and a pool
shutdown never strands a claimed job in ``running``.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.util
import threading
import traceback
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro import obs
from repro.engine import SimulationEngine
from repro.engine.parallel import pool_forks, usable_cpus
from repro.obs import Span
from repro.service.jobs import DONE, FAILED, Job, JobQueue
from repro.service.scenarios import ScenarioError, ScenarioRegistry

# How many times a job may be claimed before a worker death marks it failed
# instead of re-queueing it: the retry-once policy.
MAX_ATTEMPTS = 2

_log = obs.get_logger("repro.service.worker")

_WORKER_RESTARTS = obs.counter(
    "repro_worker_restarts_total",
    "Worker processes replaced after dying (per worker slot).",
    ("worker",),
)


class WorkerPool:
    """``num_workers`` daemon threads draining ``queue`` into ``engine``.

    ``sink`` is where outcomes are recorded (defaults to the queue itself);
    see the module docstring.
    """

    def __init__(
        self,
        queue: JobQueue,
        registry: ScenarioRegistry,
        engine: SimulationEngine,
        num_workers: int = 2,
        poll_interval: float = 0.1,
        sink: Any = None,
    ) -> None:
        if num_workers < 1:
            raise ValueError("num_workers must be positive")
        self.queue = queue
        self.registry = registry
        self.engine = engine
        self.num_workers = num_workers
        self.poll_interval = poll_interval
        self.sink = sink if sink is not None else queue
        self._threads: List[threading.Thread] = []
        self._stop = threading.Event()
        self._lock = threading.Lock()
        self._busy = 0
        self._completed = 0
        self._failed = 0
        # thread name -> job id currently executing there, so stop() can
        # settle jobs whose workers outlive the join timeout.
        self._current: Dict[str, str] = {}

    # -- lifecycle --------------------------------------------------------------

    def start(self) -> None:
        """Spawn the worker threads (refuses to stack onto live stragglers)."""
        if self._threads:
            raise RuntimeError("worker pool already started")
        self._stop.clear()
        for index in range(self.num_workers):
            thread = threading.Thread(
                target=self._run, name=f"repro-worker-{index}", daemon=True
            )
            thread.start()
            self._threads.append(thread)

    def stop(self, timeout: float = 5.0) -> None:
        """Ask every worker to exit and join them.

        Queued jobs stay queued (and journalled).  A worker that outlives
        the join timeout is still blocked inside a simulation: its claimed
        job is marked **failed** right here — never left stuck in
        ``running`` — and the terminal guard on the queue turns the
        straggler's eventual completion into a no-op.  The straggler thread
        stays tracked, so a subsequent ``start()`` refuses to stack a
        second pool onto the same queue until it has actually exited.
        """
        self._stop.set()
        for thread in self._threads:
            thread.join(timeout=timeout)
        survivors = [thread for thread in self._threads if thread.is_alive()]
        with self._lock:
            stuck = [
                self._current[thread.name]
                for thread in survivors
                if thread.name in self._current
            ]
        for job_id in stuck:
            self.sink.mark_failed(
                job_id,
                "worker pool stopped while the job was still running; "
                "the job was marked failed rather than left in 'running'",
            )
        self._threads = survivors

    # -- the worker loop --------------------------------------------------------

    def _run(self) -> None:
        name = threading.current_thread().name
        while not self._stop.is_set():
            job = self.queue.claim(timeout=self.poll_interval)
            if job is None:
                continue
            with self._lock:
                self._busy += 1
                self._current[name] = job.id
            try:
                self._execute(job)
            finally:
                with self._lock:
                    self._busy -= 1
                    self._current.pop(name, None)

    def _execute(self, job: Job) -> None:
        # Install the job's trace id for this thread's dynamic extent so
        # engine/cache spans land on the job's timeline.
        token = obs.set_current_trace(job.trace_id) if job.trace_id else None
        try:
            scenario = self.registry.get(job.scenario)
            result = scenario.run(self.engine, job.params)
        except ScenarioError as error:
            settled = self.sink.mark_failed(job.id, str(error))
            outcome = settled.state
        except Exception:
            settled = self.sink.mark_failed(job.id, traceback.format_exc(limit=20))
            outcome = settled.state
        else:
            settled = self.sink.mark_done(job.id, result)
            outcome = settled.state
        finally:
            if token is not None:
                obs.reset_current_trace(token)
        # Count what actually got recorded: a straggler whose job was
        # already settled (shutdown, retry elsewhere) changed nothing.
        with self._lock:
            if outcome == DONE:
                self._completed += 1
            elif outcome == FAILED:
                self._failed += 1

    # -- introspection ----------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        """Worker counts and utilization (busy workers / pool size)."""
        with self._lock:
            busy = self._busy
            completed = self._completed
            failed = self._failed
        return {
            "mode": "thread",
            "num_workers": self.num_workers,
            "busy_workers": busy,
            "utilization": busy / self.num_workers,
            "jobs_completed": completed,
            "jobs_failed": failed,
            "retries": 0,
            "workers": [
                {"index": index, "alive": thread.is_alive()}
                for index, thread in enumerate(self._threads)
            ],
        }


# -- the process tier -----------------------------------------------------------


def _worker_process_main(
    connection,
    parent_end,
    registry: ScenarioRegistry,
    engine_config: Dict[str, Any],
) -> None:
    """One engine worker: recv (job, scenario, params, trace, cpus), reply.

    Builds its own :class:`SimulationEngine` from ``engine_config`` — every
    worker shares the on-disk cache root but owns its memo table — and
    serves tasks until the sentinel ``None`` (or a closed pipe) arrives.
    Replies are ``(job_id, ok, payload-or-error-text, extras)``; a scenario
    exception is a reply, never a process death.  ``parent_end``, the
    parent's end of the pipe that a forked child inherits, is closed first,
    so the pipe reads EOF once the parent is gone, however it died.

    ``cpus`` is the job's share of the CPUs (see :class:`ProcessWorkerPool`):
    the engine's pool is resized to it before the job runs.  The parent
    spawns this process as a daemon, so that its exit terminates the
    worker; the flag is cleared here, because multiprocessing forbids a
    daemonic process to fork the pool's children.

    ``extras`` carries the job's observability freight back to the parent:
    ``spans`` (the trace's recorded spans — ``time.monotonic()`` is
    system-wide on Linux, so they are directly comparable with the
    parent's) and ``metrics`` (the registry increments this job produced,
    as a snapshot/delta so counters inherited across the fork never double
    count).
    """
    parent_end.close()
    multiprocessing.current_process().daemon = False
    # Spans inherited across the fork belong to the parent; drop them so a
    # respawned worker never re-ships another job's timeline.
    obs.trace_store().clear()
    engine = SimulationEngine(**engine_config)
    while True:
        try:
            message = connection.recv()
        except (EOFError, OSError) as error:
            # The parent closed the pipe (shutdown or manager death): the
            # child's only remaining duty is to exit.
            _log.debug("worker_pipe_closed", error=str(error))
            break
        if message is None:
            break
        job_id, scenario_name, params, trace_id, cpus = message
        engine.parallel = cpus if cpus > 1 else None
        baseline = obs.registry().snapshot() if obs.enabled() else None
        token = obs.set_current_trace(trace_id) if trace_id else None
        try:
            scenario = registry.get(scenario_name)
            result = scenario.run(engine, params)
        except ScenarioError as error:
            ok, payload = False, str(error)
        except Exception:
            ok, payload = False, traceback.format_exc(limit=20)
        else:
            ok, payload = True, result
        finally:
            if token is not None:
                obs.reset_current_trace(token)
        extras: Dict[str, Any] = {}
        if baseline is not None:
            extras["metrics"] = obs.registry().deltas_since(baseline)
        if trace_id:
            extras["spans"] = [
                span.to_dict() for span in obs.trace_store().drain(trace_id)
            ]
        try:
            connection.send((job_id, ok, payload, extras))
        except Exception:
            # The payload would not pickle (a scenario returning live
            # objects): degrade to a failed job, not a dead worker.
            connection.send(
                (job_id, False, traceback.format_exc(limit=20), extras)
            )


class _WorkerDied(RuntimeError):
    """Internal: the worker process exited while a job was in flight."""


@dataclass
class _WorkerSlot:
    """Parent-side state of one worker process."""

    index: int
    process: Any = None
    connection: Any = None
    current_job: Optional[str] = None
    completed: int = 0
    failed: int = 0
    restarts: int = 0
    lock: threading.Lock = field(default_factory=threading.Lock)


class ProcessWorkerPool:
    """``num_workers`` forked engine processes draining ``queue``.

    Each worker is a ``multiprocessing`` process running
    :func:`_worker_process_main` with its own engine built from
    ``engine_config`` (all workers share the on-disk result cache), fed
    over a dedicated pipe by a parent-side manager thread.  The manager
    supervises its worker: liveness is checked every ``poll_interval``
    while idle and while awaiting a result, a dead worker is replaced with
    a fresh fork, and the in-flight job is re-queued once
    (:data:`MAX_ATTEMPTS`) before being marked failed.

    Before each job the manager tells its worker how many CPUs no other
    job claims: the usable CPUs less the jobs running on the other workers
    and the jobs waiting in the queue, at least one.  The worker sizes its
    engine's pool to that share, so a job alone on an idle service runs its
    layer tasks on every usable CPU, while a busy or backlogged service runs
    each job serially.  Waiting jobs count because the other workers are
    about to claim them, and a pooled job would take their CPUs.

    The pool uses the ``fork`` start method (Linux): the registry — custom
    scenarios, closures and all — crosses into the children by inheritance,
    no pickling involved.  On platforms without ``fork`` the default
    context applies, the registry must be picklable, and every job runs
    serially (the engine's pool would not fork either).
    """

    def __init__(
        self,
        queue: JobQueue,
        registry: ScenarioRegistry,
        engine_config: Optional[Dict[str, Any]] = None,
        num_workers: int = 2,
        poll_interval: float = 0.1,
        sink: Any = None,
        max_attempts: int = MAX_ATTEMPTS,
    ) -> None:
        if num_workers < 1:
            raise ValueError("num_workers must be positive")
        self.queue = queue
        self.registry = registry
        self.engine_config = dict(engine_config or {"cache_dir": False})
        self.num_workers = num_workers
        self.poll_interval = poll_interval
        self.sink = sink if sink is not None else queue
        self.max_attempts = max_attempts
        self._forks = pool_forks()
        self._context = multiprocessing.get_context(
            "fork" if self._forks else None
        )
        self._slots: List[_WorkerSlot] = []
        self._threads: List[threading.Thread] = []
        self._stop = threading.Event()
        self._lock = threading.Lock()
        self._busy = 0
        self._completed = 0
        self._failed = 0
        self._retries = 0

    # -- lifecycle --------------------------------------------------------------

    def start(self) -> None:
        """Fork the worker processes and start their manager threads."""
        if self._threads:
            raise RuntimeError("worker pool already started")
        self._stop.clear()
        self._slots = [_WorkerSlot(index) for index in range(self.num_workers)]
        for slot in self._slots:
            self._spawn(slot)
        for slot in self._slots:
            thread = threading.Thread(
                target=self._manage,
                args=(slot,),
                name=f"repro-worker-manager-{slot.index}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)

    def _spawn(self, slot: _WorkerSlot) -> None:
        """(Re)fork the worker process behind ``slot`` with a fresh pipe."""
        parent_end, child_end = self._context.Pipe()
        process = self._context.Process(
            target=_worker_process_main,
            args=(child_end, parent_end, self.registry, self.engine_config),
            name=f"repro-engine-worker-{slot.index}",
            daemon=True,
        )
        process.start()
        child_end.close()
        slot.process = process
        slot.connection = parent_end

    def stop(self, timeout: float = 5.0) -> None:
        """Stop the managers, re-queue in-flight jobs, kill the workers.

        A job a worker was executing goes **back to the queue** (journalled)
        rather than being stranded in ``running`` — the worker process is
        about to be terminated, so unlike the thread pool there is no
        straggler that could double-execute it; a restarted service resumes
        it from the journal.
        """
        self._stop.set()
        for thread in self._threads:
            thread.join(timeout=timeout)
        # Managers re-queue their in-flight job on the way out; any manager
        # that outlived the join timeout gets its job re-queued here.
        for slot in self._slots:
            with slot.lock:
                stuck, slot.current_job = slot.current_job, None
            if stuck is not None:
                self.queue.requeue(stuck)
        for slot in self._slots:
            process, connection = slot.process, slot.connection
            slot.process = slot.connection = None
            if connection is not None:
                try:
                    if process is not None and process.is_alive():
                        connection.send(None)
                except (BrokenPipeError, OSError) as error:
                    # The child already died; terminate() below cleans up.
                    _log.debug("worker_stop_send_failed", error=str(error))
                connection.close()
            if process is not None:
                process.join(timeout=0.5)
                if process.is_alive():
                    process.terminate()
                    process.join(timeout=timeout)
        self._threads = [thread for thread in self._threads if thread.is_alive()]
        self._slots = []

    # -- the manager loop -------------------------------------------------------

    def _manage(self, slot: _WorkerSlot) -> None:
        while not self._stop.is_set():
            if slot.process is None or not slot.process.is_alive():
                # The worker died while idle — replace it before claiming.
                if not self._respawn(slot):
                    return
            job = self.queue.claim(timeout=self.poll_interval)
            if job is None:
                continue
            with self._lock:
                self._busy += 1
            with slot.lock:
                slot.current_job = job.id
            try:
                self._execute(slot, job)
            finally:
                with slot.lock:
                    slot.current_job = None
                with self._lock:
                    self._busy -= 1

    def _respawn(self, slot: _WorkerSlot) -> bool:
        """Fork a replacement for ``slot``'s dead worker; ``False``, forking
        nothing, once the pool stops or the interpreter exits."""
        if self._stop.is_set() or multiprocessing.util.is_exiting():
            return False
        if slot.connection is not None:
            try:
                slot.connection.close()
            except OSError as error:
                # A half-dead pipe refusing to close is already as closed
                # as it is going to get.
                _log.debug("worker_pipe_close_failed", error=str(error))
        slot.restarts += 1
        _WORKER_RESTARTS.inc(worker=str(slot.index))
        _log.warning(
            "worker_respawned",
            worker=slot.index,
            restarts=slot.restarts,
            exit_code=getattr(slot.process, "exitcode", None),
        )
        self._spawn(slot)
        return True

    def _cpu_share(self) -> int:
        """CPUs no other job claims (one running on another worker, or one
        waiting in the queue), at least one; one where pools do not fork."""
        if not self._forks:
            return 1
        with self._lock:
            claimed = self._busy - 1 + self.queue.depth()
            return max(1, usable_cpus() - claimed)

    def _execute(self, slot: _WorkerSlot, job: Job) -> None:
        cpus = self._cpu_share()
        try:
            slot.connection.send(
                (job.id, job.scenario, dict(job.params), job.trace_id, cpus)
            )
            reply = self._await_reply(slot)
        except (_WorkerDied, BrokenPipeError, EOFError, OSError):
            self._handle_death(slot, job)
            return
        if reply is None:  # shutdown requested while the job was in flight
            self.queue.requeue(job.id)
            with slot.lock:
                slot.current_job = None
            return
        _, ok, payload, extras = reply
        self._absorb_extras(extras)
        if ok:
            settled = self.sink.mark_done(job.id, payload)
        else:
            settled = self.sink.mark_failed(job.id, payload)
        with self._lock:
            if settled.state == DONE:
                self._completed += 1
                slot.completed += 1
            elif settled.state == FAILED:
                self._failed += 1
                slot.failed += 1

    def _absorb_extras(self, extras: Optional[Dict[str, Any]]) -> None:
        """Fold a worker reply's observability freight into this process.

        Spans recorded inside the worker land in the parent's trace store
        (same trace ids, comparable monotonic clocks) and metric deltas are
        merged into the parent's registry — so ``/metrics`` and
        ``/jobs/<id>/trace`` account for work done in forked children.
        """
        if not extras:
            return
        spans = extras.get("spans") or ()
        if spans:
            obs.trace_store().extend(Span.from_dict(record) for record in spans)
        deltas = extras.get("metrics") or ()
        if deltas:
            obs.registry().merge_deltas(deltas)

    def _await_reply(self, slot: _WorkerSlot):
        """Poll the worker's pipe; ``None`` on shutdown, raises on death."""
        while True:
            if slot.connection.poll(self.poll_interval):
                return slot.connection.recv()  # EOFError -> caller
            if not slot.process.is_alive():
                # Drain a result that raced the exit before declaring death.
                if slot.connection.poll(0):
                    return slot.connection.recv()
                raise _WorkerDied(f"worker {slot.index} exited mid-job")
            if self._stop.is_set():
                return None

    def _handle_death(self, slot: _WorkerSlot, job: Job) -> None:
        """A worker died mid-job: replace it, retry the job once, then fail."""
        if slot.process is not None:
            # Reap the corpse so its exit code is readable for the error text.
            slot.process.join(timeout=1.0)
        exit_code = getattr(slot.process, "exitcode", None)
        _log.warning(
            "worker_died_mid_job",
            worker=slot.index,
            job_id=job.id,
            exit_code=exit_code,
            attempts=job.attempts,
        )
        self._respawn(slot)
        if job.attempts < self.max_attempts:
            with self._lock:
                self._retries += 1
            self.queue.requeue(job.id)
        else:
            self.sink.mark_failed(
                job.id,
                f"worker process died (exit code {exit_code}) and the job "
                f"already used its {job.attempts} attempt(s); giving up",
            )
            with self._lock:
                self._failed += 1
                slot.failed += 1

    # -- introspection ----------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        """Pool utilization, outcome counters, and per-worker liveness."""
        with self._lock:
            busy = self._busy
            completed = self._completed
            failed = self._failed
            retries = self._retries
        workers = []
        for slot in self._slots:
            process = slot.process
            with slot.lock:
                current = slot.current_job
            workers.append(
                {
                    "index": slot.index,
                    "pid": getattr(process, "pid", None),
                    "alive": bool(process is not None and process.is_alive()),
                    "jobs_completed": slot.completed,
                    "jobs_failed": slot.failed,
                    "restarts": slot.restarts,
                    "current_job": current,
                }
            )
        return {
            "mode": "process",
            "num_workers": self.num_workers,
            "busy_workers": busy,
            "utilization": busy / self.num_workers,
            "jobs_completed": completed,
            "jobs_failed": failed,
            "retries": retries,
            "workers": workers,
        }


def engine_config_of(engine: SimulationEngine) -> Dict[str, Any]:
    """The constructor kwargs that rebuild ``engine`` inside a worker process.

    Worker engines share the parent's on-disk cache root (the whole point
    of the process tier) but own their in-memory memo tables.  ``parallel``
    is not carried over: a fixed pool in every worker would oversubscribe
    the machine, so each worker engine starts serial and the worker
    resizes its pool before every job to the CPUs no other job claims
    (:class:`ProcessWorkerPool`).
    """
    return {
        "cache_dir": (
            engine.disk_cache.root if engine.disk_cache is not None else False
        ),
        "cache_max_entries": (
            engine.disk_cache.max_entries if engine.disk_cache is not None else None
        ),
        "memory_max_entries": engine.memory_max_entries,
        "parallel": None,
    }
