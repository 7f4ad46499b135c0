"""Concurrency equivalence and queue-invariant tests for the service.

Three concerns:

* **burst equivalence** — 64 concurrent submissions (a shuffled mix of
  duplicates and distinct requests) against ephemeral HTTP servers in both
  worker modes: every duplicate receives the bitwise-identical payload, the
  two modes agree bitwise, and the ``/stats`` counters account for every
  submission (``jobs_completed + coalesced + fast_path_hits`` equals the
  burst size — nothing double-served, nothing lost);
* **restarts** — a service restarted on the same cache directory answers
  with the scenario it now has, never with a payload the previous boot
  computed;
* **property-style queue invariants** — random operation interleavings
  (single-threaded with a reference model, and genuinely multi-threaded)
  never drive a :class:`JobQueue` job through an illegal state transition.
"""

import json
import random
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.engine import SimulationEngine
from repro.service import (
    JOB_STATES,
    JobQueue,
    Parameter,
    Scenario,
    ScenarioRegistry,
    ServiceClient,
    create_server,
)

BURST = 64
DISTINCT_VALUES = list(range(8))


def _compute_registry():
    """A cheap, deterministic scenario (fork-safe: no shared events)."""
    registry = ScenarioRegistry()

    def _compute(engine, params):
        value = params["value"]
        time.sleep(params["delay"])
        return {
            "value": value,
            "squared": value * value,
            "scaled": value * 0.125,
            "label": f"item-{value}",
        }

    registry.register(
        Scenario(
            "compute", "deterministic arithmetic", _compute,
            (
                Parameter("value", "int"),
                Parameter("delay", "float", default=0.02),
            ),
        )
    )
    return registry


def _burst_values(seed=0):
    """64 values over 8 distinct requests, shuffled deterministically."""
    values = [DISTINCT_VALUES[i % len(DISTINCT_VALUES)] for i in range(BURST)]
    random.Random(seed).shuffle(values)
    return values


def _run_burst(mode, tmp_path):
    """Submit the burst concurrently; returns (payload-by-value, stats)."""
    engine = SimulationEngine(cache_dir=tmp_path / f"cache-{mode}")
    server = create_server(
        port=0,
        engine=engine,
        registry=_compute_registry(),
        num_workers=2,
        mode=mode,
    )
    server.start()
    try:
        client = ServiceClient(server.url)

        def submit_and_collect(value):
            job_id = client.submit("compute", {"value": value})
            record = client.wait(job_id, timeout=60)
            assert record["state"] == "done", record
            return value, json.dumps(client.result(job_id), sort_keys=True)

        with ThreadPoolExecutor(max_workers=16) as executor:
            outcomes = list(executor.map(submit_and_collect, _burst_values()))
        stats = client.stats()
    finally:
        server.stop()

    by_value = {}
    for value, payload in outcomes:
        by_value.setdefault(value, set()).add(payload)
    return by_value, stats


class TestConcurrentBurstAcrossModes:
    @pytest.mark.parametrize("mode", ["thread", "process"])
    def test_burst_counters_account_for_every_submission(self, mode, tmp_path):
        by_value, stats = _run_burst(mode, tmp_path)

        # Duplicates are bitwise-identical within the mode.
        assert set(by_value) == set(DISTINCT_VALUES)
        for value, payloads in by_value.items():
            assert len(payloads) == 1, f"value {value} got divergent payloads"

        # Every submission is served by exactly one tier: a worker run, a
        # coalesced fan-out, or the payload fast path.
        service = stats["service"]
        assert service["mode"] == mode
        assert (
            stats["workers"]["jobs_completed"]
            + service["coalesced"]
            + service["fast_path_hits"]
        ) == BURST
        # With 8 distinct requests and 64 submissions, most of the burst
        # must have been deduplicated — and nothing recomputes needlessly:
        # each distinct request runs at most once per *tier transition*
        # (a duplicate can slip past the fast path only while the payload
        # store is still cold for its key).
        assert service["coalesced"] + service["fast_path_hits"] >= BURST // 2
        assert stats["workers"]["jobs_failed"] == 0
        assert service["coalesced_in_flight"] == 0  # every group settled

    def test_thread_and_process_modes_agree_bitwise(self, tmp_path):
        thread_payloads, _ = _run_burst("thread", tmp_path)
        process_payloads, _ = _run_burst("process", tmp_path)
        assert thread_payloads == process_payloads


def _scaled_registry(scale):
    """A ``compute`` scenario whose definition depends on ``scale``."""
    registry = ScenarioRegistry()
    registry.register(
        Scenario(
            "compute", "value times a scale fixed at registration",
            lambda engine, params: {"value": params["value"] * scale},
            (Parameter("value", "int"),),
        )
    )
    return registry


class TestRestart:
    def test_a_restart_answers_with_the_scenario_it_now_has(self, tmp_path):
        """Two boots on one cache directory register ``compute`` with
        different definitions (a stand-in for a model edit between them);
        the second boot must answer with its own definition's value."""
        cache_dir = tmp_path / "cache"
        answers = []
        for scale in (2, 3):
            server = create_server(
                port=0,
                engine=SimulationEngine(cache_dir=cache_dir),
                registry=_scaled_registry(scale),
                num_workers=1,
            )
            server.start()
            try:
                client = ServiceClient(server.url)
                answers.append(client.run("compute", {"value": 5}, timeout=30))
            finally:
                server.stop()
        assert answers == [{"value": 10}, {"value": 15}]


# -- property-style queue invariants ---------------------------------------------

_LEGAL_TRANSITIONS = {
    # queued -> done/failed without running = a coalesced follower settled
    # by its leader's fan-out; running -> queued = a worker-death requeue.
    "queued": {"queued", "running", "cancelled", "done", "failed"},
    "running": {"running", "done", "failed", "queued"},
    "done": {"done"},
    "failed": {"failed"},
    "cancelled": {"cancelled"},
}


class _QueueModel:
    """Reference model: drives a JobQueue and checks every visible state."""

    def __init__(self, rng):
        self.rng = rng
        self.queue = JobQueue(max_history=None)
        self.last_state = {}  # job id -> last observed state
        self.attempts = {}  # job id -> last observed attempts

    def observe(self, job):
        """Assert ``job``'s state is reachable from its last observed one."""
        previous = self.last_state.get(job.id, "queued")
        assert job.state in _LEGAL_TRANSITIONS[previous], (
            f"illegal transition {previous} -> {job.state} for {job.id}"
        )
        assert job.state in JOB_STATES
        previous_attempts = self.attempts.get(job.id, 0)
        assert job.attempts >= previous_attempts, "attempts went backwards"
        if job.is_terminal:
            assert job.finished_at is not None
        self.last_state[job.id] = job.state
        self.attempts[job.id] = job.attempts

    def known_ids(self):
        return list(self.last_state)

    def step(self):
        operations = [
            self.op_submit,
            self.op_submit_held,
            self.op_claim,
            self.op_mark_done,
            self.op_mark_failed,
            self.op_cancel,
            self.op_requeue,
            self.op_enqueue,
            self.op_check_counts,
        ]
        self.rng.choice(operations)()

    def op_submit(self):
        job = self.queue.submit("s", {"n": self.rng.randrange(100)},
                                priority=self.rng.randrange(3))
        self.observe(job)

    def op_submit_held(self):
        job = self.queue.submit("s", {}, hold=True)
        self.observe(job)

    def op_claim(self):
        job = self.queue.claim(timeout=0)
        if job is not None:
            assert self.last_state.get(job.id) == "queued", (
                "claimed a job that was not queued"
            )
            assert job.state == "running"
            self.observe(job)

    def _random_id(self):
        ids = self.known_ids()
        return self.rng.choice(ids) if ids else None

    def op_mark_done(self):
        job_id = self._random_id()
        if job_id is not None:
            self.observe(self.queue.mark_done(job_id, {"ok": True}))

    def op_mark_failed(self):
        job_id = self._random_id()
        if job_id is not None:
            self.observe(self.queue.mark_failed(job_id, "boom"))

    def op_cancel(self):
        job_id = self._random_id()
        if job_id is not None:
            self.observe(self.queue.cancel(job_id))

    def op_requeue(self):
        job_id = self._random_id()
        if job_id is not None:
            self.observe(self.queue.requeue(job_id))

    def op_enqueue(self):
        job_id = self._random_id()
        if job_id is not None:
            self.observe(self.queue.enqueue(job_id))

    def op_check_counts(self):
        counts = self.queue.counts()
        assert sum(counts.values()) == len(self.known_ids())
        assert self.queue.depth() <= counts["queued"]


class TestJobQueueProperties:
    @pytest.mark.parametrize("seed", range(5))
    def test_random_interleavings_respect_the_state_machine(self, seed):
        model = _QueueModel(random.Random(seed))
        for _ in range(400):
            model.step()
        # Terminal jobs stay terminal under one more sweep of every mutator.
        for job_id, state in list(model.last_state.items()):
            if state in ("done", "failed", "cancelled"):
                model.queue.mark_done(job_id, {"late": True})
                model.queue.mark_failed(job_id, "late")
                model.queue.requeue(job_id)
                model.queue.cancel(job_id)
                assert model.queue.get(job_id).state == state

    def test_threaded_interleaving_settles_every_job_exactly_once(self):
        """Submitters, claimers and cancellers race; no job is lost or torn."""
        queue = JobQueue(max_history=None)
        total = 120
        submitted = []
        submitted_lock = threading.Lock()
        stop_claiming = threading.Event()

        def submitter(offset):
            rng = random.Random(offset)
            for i in range(total // 4):
                job = queue.submit("s", {"i": i}, priority=rng.randrange(3))
                with submitted_lock:
                    submitted.append(job.id)

        def claimer():
            rng = random.Random()
            while not stop_claiming.is_set():
                job = queue.claim(timeout=0.01)
                if job is None:
                    continue
                if rng.random() < 0.2:
                    queue.requeue(job.id)  # a "worker death": try again later
                elif rng.random() < 0.5:
                    queue.mark_failed(job.id, "boom")
                else:
                    queue.mark_done(job.id, {"ok": True})

        def canceller():
            rng = random.Random(99)
            for _ in range(total):
                with submitted_lock:
                    job_id = rng.choice(submitted) if submitted else None
                if job_id is not None:
                    queue.cancel(job_id)
                time.sleep(0.001)

        submitters = [threading.Thread(target=submitter, args=(k,)) for k in range(4)]
        claimers = [threading.Thread(target=claimer) for _ in range(3)]
        extra = threading.Thread(target=canceller)
        for thread in submitters + claimers + [extra]:
            thread.start()
        for thread in submitters + [extra]:
            thread.join(timeout=30)
        # Drain: claimers keep settling until nothing is left in flight.
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            counts = queue.counts()
            if counts["queued"] == 0 and counts["running"] == 0:
                break
            time.sleep(0.02)
        stop_claiming.set()
        for thread in claimers:
            thread.join(timeout=30)

        counts = queue.counts()
        assert counts["queued"] == 0 and counts["running"] == 0
        assert sum(counts.values()) == total == len(submitted)
        for job_id in submitted:
            job = queue.get(job_id)
            assert job.is_terminal
            if job.state == "done":
                assert job.result == {"ok": True}
                assert job.error is None
        assert queue.depth() == 0
