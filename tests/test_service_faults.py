"""Fault injection for the service's worker tier, journal, and backpressure.

Every test here breaks something on purpose and asserts the service degrades
the way the contracts promise:

* a worker process killed mid-job is detected, the job re-queued and retried
  on a fresh worker exactly once — a second death marks it failed with the
  exit code in the error text;
* corrupt or truncated journal records are skipped on load, never a boot
  failure;
* a queue at its depth bound answers ``429`` with a ``Retry-After`` header,
  and the client SDK's retry budget rides it out;
* every member of a coalesced group receives the bitwise-identical payload,
  and cancelling a queued leader promotes a follower instead of starving
  the group;
* ``stop()`` on either pool never strands a claimed job in ``running``:
  the thread pool settles it as failed (straggler completions are no-ops),
  the process pool re-queues it for the next boot;
* a process worker's engine pools a job over the CPUs no other job claims
  and keeps every payload bit doing so; no process outlives its parent: a
  killed worker leaves no pool child, a killed service no worker, and a
  service whose interpreter exits without ``stop()`` still exits.

Process-mode scenarios signal through marker *files*, not events — a forked
worker inherits a copy of any ``threading.Event``, so setting it in the
parent would never release the child.
"""

import json
import os
import signal
import subprocess
import threading
import time
from pathlib import Path

import pytest

from repro.analysis.serialization import simulation_payload
from repro.engine import SimulationEngine
from repro.engine.parallel import parallel_map, pool_forks, usable_cpus
from repro.service import (
    BackpressureError,
    CoalescingSink,
    JobQueue,
    Parameter,
    PayloadStore,
    RequestCoalescer,
    Scenario,
    ScenarioRegistry,
    ServiceClient,
    SimulationService,
    WorkerPool,
)
from repro.service.server import ServiceServer

from _helpers import fresh_interpreter, survivors


def _wait_until(predicate, timeout=30.0, interval=0.02):
    """Poll ``predicate`` until truthy; fail the test on timeout."""
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition not reached in time"
        time.sleep(interval)


def _wait_terminal(service, job_id, timeout=30.0):
    _wait_until(lambda: service.job(job_id).is_terminal, timeout=timeout)
    return service.job(job_id)


def _crashy_registry(tmp_path):
    """Scenarios that kill their own worker process (process-mode faults)."""
    registry = ScenarioRegistry()
    marker = tmp_path / "crashed-once"

    def _crash_once(engine, params):
        if not marker.exists():
            marker.write_text("x")
            os._exit(17)  # simulate an OOM kill / hard crash, not an exception
        return {"survived": True, "pid": os.getpid()}

    def _crash_always(engine, params):
        os._exit(18)

    def _nap(engine, params):
        time.sleep(params.get("seconds", 30.0))
        return {"napped": True}

    registry.register(Scenario("crash_once", "die on the first attempt", _crash_once))
    registry.register(Scenario("crash_always", "die on every attempt", _crash_always))
    registry.register(
        Scenario(
            "nap", "sleep, then return", _nap,
            (Parameter("seconds", "float", default=30.0),),
        )
    )
    return registry


class TestProcessWorkerDeath:
    def test_worker_death_mid_job_retries_then_completes(self, tmp_path):
        service = SimulationService(
            engine=SimulationEngine(cache_dir=False),
            registry=_crashy_registry(tmp_path),
            num_workers=1,
            mode="process",
            journal_dir=tmp_path / "journal",
        )
        service.start()
        try:
            job = service.submit("crash_once")
            settled = _wait_terminal(service, job.id)
            assert settled.state == "done"
            assert settled.result == {"survived": True, "pid": settled.result["pid"]}
            # The retry ran on the *second* claim, on a respawned worker.
            assert settled.attempts == 2
            stats = service.workers.stats()
            assert stats["retries"] == 1
            assert stats["workers"][0]["restarts"] >= 1
            assert stats["workers"][0]["alive"]
        finally:
            service.stop()

    def test_worker_death_exhausts_retries_then_fails(self, tmp_path):
        service = SimulationService(
            engine=SimulationEngine(cache_dir=False),
            registry=_crashy_registry(tmp_path),
            num_workers=1,
            mode="process",
        )
        service.start()
        try:
            job = service.submit("crash_always")
            settled = _wait_terminal(service, job.id)
            assert settled.state == "failed"
            assert settled.attempts == 2  # claimed twice, never a third time
            assert "worker process died" in settled.error
            assert "exit code 18" in settled.error
            # The pool replaced the corpse both times and still serves.
            stats = service.workers.stats()
            assert stats["retries"] == 1
            assert stats["jobs_failed"] == 1
        finally:
            service.stop()

    def test_no_worker_is_respawned_while_the_interpreter_exits(
        self, tmp_path, monkeypatch
    ):
        """Once multiprocessing reports the interpreter exiting, a killed
        idle worker is not replaced and its manager loop ends."""
        import multiprocessing.util

        service = SimulationService(
            engine=SimulationEngine(cache_dir=False),
            registry=_crashy_registry(tmp_path),
            num_workers=1,
            mode="process",
        )
        service.start()
        try:
            (worker,) = service.workers.stats()["workers"]
            (manager,) = service.workers._threads
            monkeypatch.setattr(multiprocessing.util, "_exiting", True)
            os.kill(worker["pid"], signal.SIGKILL)
            manager.join(timeout=10)
            assert not manager.is_alive()
            (after,) = service.workers.stats()["workers"]
            assert after["restarts"] == 0
            assert after["pid"] == worker["pid"] and not after["alive"]
        finally:
            monkeypatch.undo()
            service.stop()

    def test_process_pool_stop_requeues_running_job(self, tmp_path):
        journal = tmp_path / "journal"
        service = SimulationService(
            engine=SimulationEngine(cache_dir=False),
            registry=_crashy_registry(tmp_path),
            num_workers=1,
            mode="process",
            journal_dir=journal,
        )
        service.start()
        try:
            job = service.submit("nap", {"seconds": 60.0})
            _wait_until(lambda: service.job(job.id).state == "running")
        finally:
            service.stop()
        # The worker process was terminated mid-nap: the job went back to
        # queued (not stranded in running, not failed) and the journal
        # carries that state into the next boot.
        assert service.job(job.id).state == "queued"
        reloaded = JobQueue.load(journal)
        assert reloaded.get(job.id).state == "queued"


def _share_registry(release: Path):
    """Process-mode scenarios for the CPU share: a job held running until
    ``release`` exists, and a probe returning its worker engine's pool size."""
    registry = ScenarioRegistry()
    tag = (Parameter("tag", "int", default=0),)

    def _hold(engine, params):
        while not release.exists():
            time.sleep(0.01)
        return {"tag": params["tag"]}

    def _probe(engine, params):
        return {"parallel": engine.parallel}

    registry.register(Scenario("hold", "run until released", _hold, tag))
    registry.register(Scenario("probe", "the engine's pool size", _probe, tag))
    return registry


def _pool_size_beside(other_jobs):
    """The worker engine's ``parallel`` with ``other_jobs`` running elsewhere
    or waiting."""
    cpus = max(1, usable_cpus() - other_jobs) if pool_forks() else 1
    return cpus if cpus > 1 else None


class TestProcessWorkerShare:
    @pytest.fixture()
    def release(self, tmp_path):
        return tmp_path / "release"

    def _service(self, release, num_workers):
        service = SimulationService(
            engine=SimulationEngine(cache_dir=False),
            registry=_share_registry(release),
            num_workers=num_workers,
            mode="process",
        )
        service.start()
        return service

    def test_an_idle_service_gives_a_job_every_cpu(self, release):
        service = self._service(release, num_workers=1)
        try:
            job = _wait_terminal(service, service.submit("probe").id)
            assert job.result == {"parallel": _pool_size_beside(0)}
        finally:
            service.stop()

    def test_a_job_running_on_another_worker_claims_a_cpu(self, release):
        service = self._service(release, num_workers=2)
        try:
            held = service.submit("hold", {"tag": 1})
            _wait_until(lambda: service.job(held.id).state == "running")
            job = _wait_terminal(service, service.submit("probe").id)
            assert job.result == {"parallel": _pool_size_beside(1)}
            release.touch()
            assert _wait_terminal(service, held.id).state == "done"
        finally:
            release.touch()
            service.stop()

    @pytest.mark.parametrize(
        "waiting", [1, usable_cpus() + 1], ids=["one", "more-than-cpus"]
    )
    def test_each_waiting_job_claims_a_cpu(self, release, waiting):
        """Down to serial, never below it."""
        service = self._service(release, num_workers=1)
        try:
            held = service.submit("hold", {"tag": 0})
            _wait_until(lambda: service.job(held.id).state == "running")
            probe = service.submit("probe")
            queued = [
                service.submit("hold", {"tag": tag}) for tag in range(1, waiting + 1)
            ]
            release.touch()
            job = _wait_terminal(service, probe.id)
            assert job.result == {"parallel": _pool_size_beside(waiting)}
            for other in queued:
                assert _wait_terminal(service, other.id).state == "done"
        finally:
            release.touch()
            service.stop()

    def test_a_pooled_network_job_keeps_every_bit(self):
        service = SimulationService(
            engine=SimulationEngine(cache_dir=False), num_workers=1, mode="process"
        )
        service.start()
        try:
            job = service.submit("network", {"network": "alexnet", "seed": 0})
            settled = _wait_terminal(service, job.id, timeout=120)
        finally:
            service.stop()
        reference = simulation_payload(
            SimulationEngine(cache_dir=False).run_network("alexnet", seed=0)
        )
        assert json.dumps(settled.result, sort_keys=True) == json.dumps(
            reference, sort_keys=True
        )


def _kill_the_worker(task):
    """Pool task: record this child's pid under its parent's, then (task 0,
    once every sibling has) SIGKILL the parent, a service worker."""
    directory, index, siblings = task
    mine = Path(directory, str(os.getppid()))
    mine.mkdir(exist_ok=True)
    (mine / str(os.getpid())).touch()
    if index == 0:
        deadline = time.monotonic() + 30
        while len(list(mine.iterdir())) < siblings and time.monotonic() < deadline:
            time.sleep(0.01)
        os.kill(os.getppid(), signal.SIGKILL)
    time.sleep(60)


class TestNoProcessOutlivesItsParent:
    @pytest.mark.skipif(not pool_forks(), reason="the pool does not fork here")
    def test_a_worker_killed_mid_pool_leaves_no_child(self, tmp_path):
        registry = ScenarioRegistry()

        def _pooled_suicide(engine, params):
            return parallel_map(
                _kill_the_worker, [(str(tmp_path), index, 2) for index in range(2)], 2
            )

        registry.register(
            Scenario("pooled_suicide", "kill the worker from a child", _pooled_suicide)
        )
        service = SimulationService(
            engine=SimulationEngine(cache_dir=False),
            registry=registry,
            num_workers=1,
            mode="process",
        )
        service.start()
        try:
            settled = _wait_terminal(service, service.submit("pooled_suicide").id)
        finally:
            service.stop()
        assert settled.state == "failed"
        assert settled.attempts == 2
        assert "worker process died" in settled.error
        workers = list(tmp_path.iterdir())
        assert len(workers) == 2  # the first worker and its replacement
        children = [int(pid.name) for worker in workers for pid in worker.iterdir()]
        assert len(children) == 4
        assert survivors(children, timeout=2.0) == []

    #: A fresh interpreter's prologue: a two-worker process-mode service.
    START_SERVICE = (
        "from repro.engine import SimulationEngine\n"
        "from repro.service import SimulationService\n"
        "service = SimulationService(engine=SimulationEngine(cache_dir=False),\n"
        "                            num_workers=2, mode='process')\n"
        "service.start()\n"
    )

    def test_a_killed_service_leaves_no_worker(self):
        """A worker reads EOF once its server is gone, however it died."""
        code = self.START_SERVICE + (
            "import time\n"
            "print(*[worker['pid'] for worker in service.workers.stats()['workers']],\n"
            "      flush=True)\n"
            "time.sleep(60)\n"
        )
        server = subprocess.Popen(
            **fresh_interpreter(code), stdout=subprocess.PIPE, text=True
        )
        try:
            workers = [int(pid) for pid in server.stdout.readline().split()]
        finally:
            server.kill()
            server.wait()
            server.stdout.close()
        assert len(workers) == 2
        assert survivors(workers, timeout=2.0) == []

    def test_a_service_process_exits_without_stop(self):
        """The parent-side daemon flag: an interpreter exit terminates the
        workers instead of joining them while they wait on their pipes."""
        code = self.START_SERVICE + (
            "service.submit('layer', {'network': 'alexnet', 'layer': 'conv1'})\n"
        )
        result = subprocess.run(
            **fresh_interpreter(code), capture_output=True, text=True, timeout=10
        )
        assert result.returncode == 0, result.stderr


class TestJournalCorruption:
    def test_corrupt_and_truncated_records_are_skipped_on_load(self, tmp_path):
        journal = tmp_path / "journal"
        queue = JobQueue(journal_dir=journal)
        finished = queue.submit("network", {"network": "alexnet"})
        queue.claim(timeout=1)
        queue.mark_done(finished.id, {"ok": True})
        pending = queue.submit("table2", {})

        # Sabotage: a torn write (truncated JSON), binary garbage, a JSON
        # document of the wrong shape, and a record missing required fields.
        (journal / "torn.json").write_text('{"id": "torn", "scenario": "netw')
        (journal / "garbage.json").write_bytes(b"\x00\x80\xffnot json at all")
        (journal / "list.json").write_text("[1, 2, 3]")
        (journal / "partial.json").write_text('{"id": "only-an-id"}')

        reloaded = JobQueue.load(journal)
        states = {job.id: job.state for job in reloaded.jobs()}
        assert states == {finished.id: "done", pending.id: "queued"}
        assert reloaded.get(finished.id).result == {"ok": True}
        # The survivor is genuinely claimable, not just present.
        claimed = reloaded.claim(timeout=1)
        assert claimed is not None and claimed.id == pending.id

    def test_truncating_a_live_record_loses_one_job_not_the_boot(self, tmp_path):
        journal = tmp_path / "journal"
        queue = JobQueue(journal_dir=journal)
        lost = queue.submit("network", {"network": "alexnet"})
        kept = queue.submit("table2", {})
        # Truncate the journalled record mid-file, as a crash during a
        # non-atomic write (or disk corruption) would.
        path = journal / f"{lost.id}.json"
        path.write_bytes(path.read_bytes()[: len(path.read_bytes()) // 2])

        reloaded = JobQueue.load(journal)
        ids = {job.id for job in reloaded.jobs()}
        assert ids == {kept.id}


def _controllable_registry(started, release):
    """Thread-mode scenarios gated on in-process events."""
    registry = ScenarioRegistry()

    def _block(engine, params):
        started.set()
        assert release.wait(timeout=30)
        return {"blocked": True, "tag": params.get("tag", "")}

    def _echo(engine, params):
        return {"tag": params["tag"]}

    registry.register(
        Scenario(
            "block", "hold a worker until released", _block,
            (Parameter("tag", "str", default=""),),
        )
    )
    registry.register(
        Scenario("echo", "return the tag", _echo, (Parameter("tag", "str"),))
    )
    return registry


class TestBackpressure:
    @pytest.fixture()
    def tight_service(self):
        """One worker, queue bound 1: the third submission must be rejected."""
        started, release = threading.Event(), threading.Event()
        service = SimulationService(
            engine=SimulationEngine(cache_dir=False),
            registry=_controllable_registry(started, release),
            num_workers=1,
            max_queue_depth=1,
        )
        server = ServiceServer(service, port=0)
        server.start()
        try:
            yield ServiceClient(server.url), service, started, release
        finally:
            release.set()
            server.stop()

    def test_full_queue_answers_429_with_retry_after(self, tight_service):
        client, service, started, release = tight_service
        client.submit("block", {"tag": "holder"})
        assert started.wait(timeout=10)  # the only worker is now held
        client.submit("echo", {"tag": "fills-the-queue"})

        with pytest.raises(BackpressureError) as excinfo:
            client.submit("echo", {"tag": "rejected"}, max_backpressure_wait=0)
        assert excinfo.value.status == 429
        assert excinfo.value.retry_after >= 1  # the Retry-After header, parsed
        stats = client.stats()
        assert stats["service"]["backpressure_rejections"] >= 1
        assert stats["queue"]["max_depth"] == 1

        # Identical in-flight requests coalesce instead of being rejected:
        # they consume no queue slot, so the bound does not apply to them.
        follower = client.submit(
            "block", {"tag": "holder"}, max_backpressure_wait=0
        )
        assert client.stats()["service"]["coalesced"] == 1

        release.set()
        assert client.wait(follower, timeout=30)["state"] == "done"

    def test_client_retry_budget_rides_out_the_burst(self, tight_service):
        client, service, started, release = tight_service
        client.submit("block", {"tag": "holder"})
        assert started.wait(timeout=10)
        client.submit("echo", {"tag": "fills-the-queue"})

        # Release the worker shortly after the first 429, so the client's
        # Retry-After loop finds room on a later attempt.
        timer = threading.Timer(0.3, release.set)
        timer.start()
        try:
            job_id = client.submit(
                "echo", {"tag": "patient"}, max_backpressure_wait=30.0
            )
        finally:
            timer.cancel()
        assert client.wait(job_id, timeout=30)["state"] == "done"
        assert client.result(job_id) == {"tag": "patient"}


class TestCoalescedGroups:
    @pytest.fixture()
    def gated(self):
        started, release = threading.Event(), threading.Event()
        service = SimulationService(
            engine=SimulationEngine(cache_dir=False),
            registry=_controllable_registry(started, release),
            num_workers=1,
        )
        server = ServiceServer(service, port=0)
        server.start()
        try:
            yield ServiceClient(server.url), service, started, release
        finally:
            release.set()
            server.stop()

    def test_followers_receive_bitwise_identical_payloads(self, gated):
        client, service, started, release = gated
        ids = [client.submit("block", {"tag": "same"})]
        assert started.wait(timeout=10)  # leader claimed; group is in flight
        ids += [client.submit("block", {"tag": "same"}) for _ in range(3)]

        stats = client.stats()
        assert stats["service"]["coalesced"] == 3
        assert stats["service"]["coalesced_in_flight"] == 1
        assert stats["queue"]["depth"] == 0  # followers hold no queue slot

        release.set()
        payloads = []
        for job_id in ids:
            assert client.wait(job_id, timeout=30)["state"] == "done"
            payloads.append(json.dumps(client.result(job_id), sort_keys=True))
        assert len(set(payloads)) == 1  # bitwise-identical fan-out
        # One simulation served the whole group.
        assert client.stats()["workers"]["jobs_completed"] == 1

    def test_cancelling_a_queued_leader_promotes_a_follower(self, gated):
        client, service, started, release = gated
        client.submit("block", {"tag": "holder"})
        assert started.wait(timeout=10)  # worker busy: next jobs stay queued
        leader = client.submit("echo", {"tag": "group"})
        follower = client.submit("echo", {"tag": "group"})
        assert client.stats()["service"]["coalesced"] == 1

        assert client.cancel(leader)["state"] == "cancelled"
        release.set()
        record = client.wait(follower, timeout=30)
        assert record["state"] == "done"
        assert client.result(follower) == {"tag": "group"}

    def test_leader_failure_propagates_to_followers(self, gated):
        client, service, started, release = gated
        registry = service.registry

        def _boom(engine, params):
            started.set()
            assert release.wait(timeout=30)
            raise RuntimeError("leader exploded")

        registry.register(Scenario("boom", "fail after the gate", _boom))
        leader = client.submit("boom")
        assert started.wait(timeout=10)
        follower = client.submit("boom")
        assert client.stats()["service"]["coalesced"] == 1

        release.set()
        for job_id in (leader, follower):
            record = client.wait(job_id, timeout=30)
            assert record["state"] == "failed"
        assert "leader exploded" in (service.job(follower).error or "")

    def test_payload_is_stored_before_its_group_settles(self):
        """A duplicate that misses the group must find the payload."""
        queue, coalescer = JobQueue(), RequestCoalescer()
        in_flight_at_put = []

        class RecordingStore(PayloadStore):
            def put(self, key, payload):
                in_flight_at_put.append(coalescer.leading(key))
                super().put(key, payload)

        sink = CoalescingSink(queue, coalescer, RecordingStore())
        leader = queue.submit("echo", {"tag": "x"}, hold=True)
        assert coalescer.attach("key", leader.id) is None
        sink.mark_done(leader.id, {"tag": "x"})
        assert in_flight_at_put == [True]
        assert not coalescer.leading("key")

    def test_leader_finishing_during_admission_answers_the_duplicate(self):
        """The leader completes between the fast-path check and attach."""
        service = SimulationService(
            engine=SimulationEngine(cache_dir=False),
            registry=_controllable_registry(threading.Event(), threading.Event()),
            num_workers=1,
            observability=False,
        )  # workers never start: the leader stays in flight until marked
        leader = service.submit("echo", {"tag": "race"})
        payload = {"tag": "race"}
        lookup = service.payloads.get

        def leader_finishes_after_the_check(key):
            found = lookup(key)
            if service.job(leader.id).state != "done":
                service.sink.mark_done(leader.id, payload)
            return found

        service.payloads.get = leader_finishes_after_the_check
        duplicate = service.submit("echo", {"tag": "race"})
        assert duplicate.state == "done"
        assert duplicate.result is payload
        assert service.queue.depth() == 0  # no second run for a worker


class TestPoolStopNeverStrandsJobs:
    def test_thread_pool_stop_settles_the_running_job_as_failed(self):
        """Regression: stop(timeout=...) used to leave claimed jobs running."""
        started, release = threading.Event(), threading.Event()
        queue = JobQueue()
        pool = WorkerPool(
            queue,
            _controllable_registry(started, release),
            SimulationEngine(cache_dir=False),
            num_workers=1,
        )
        pool.start()
        job = queue.submit("block", {"tag": "stuck"})
        assert started.wait(timeout=10)
        try:
            pool.stop(timeout=0.2)  # the blocked worker cannot join in time
            settled = queue.get(job.id)
            assert settled.state == "failed"
            assert "stopped while the job was still running" in settled.error
        finally:
            release.set()
        # The straggler finishes eventually — its late mark_done must be a
        # no-op against the already-settled record.
        time.sleep(0.3)
        assert queue.get(job.id).state == "failed"
        assert queue.get(job.id).result is None
        pool.stop()  # idempotent once the straggler has exited

    def test_thread_pool_stop_leaves_queued_jobs_queued(self):
        started, release = threading.Event(), threading.Event()
        queue = JobQueue()
        pool = WorkerPool(
            queue,
            _controllable_registry(started, release),
            SimulationEngine(cache_dir=False),
            num_workers=1,
        )
        pool.start()
        queue.submit("block", {"tag": "running"})
        assert started.wait(timeout=10)
        waiting = queue.submit("echo", {"tag": "never-claimed"})
        release.set()
        pool.stop()
        assert queue.get(waiting.id).state == "queued"
