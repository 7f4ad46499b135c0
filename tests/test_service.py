"""Tests for the simulation service (repro.service).

Three layers of coverage:

* unit tests for the job queue (priorities, cancellation, persistence) and
  the scenario registry (validation, defaults, catalogue);
* end-to-end tests that boot the HTTP server on an ephemeral port, drive it
  through :class:`ServiceClient`, and assert that results delivered over
  the wire are **bitwise-identical** to a serial in-process engine's
  payloads and the ``dse.sweep`` reference path — cold cache and warm;
* service behaviour under concurrency: overlapping jobs, repeat submissions
  served without a worker (coalesced or payload fast path — ``/stats``
  counters must account for every submission), job failure isolation, and
  the ``repro submit`` parameter syntax.

Fault injection (worker death, torn journals, backpressure) lives in
``test_service_faults.py``; cross-mode equivalence under concurrent bursts
in ``test_service_concurrency.py``.
"""

import json
import threading
import time

import pytest

from repro.analysis.serialization import design_points_payload, simulation_payload
from repro.arch import SCNN_CONFIG
from repro.engine import SimulationEngine
from repro.nn.networks import get_network
from repro.service import (
    JobFailedError,
    JobQueue,
    Parameter,
    Scenario,
    ScenarioError,
    ScenarioRegistry,
    ServiceClient,
    ServiceError,
    SimulationService,
    create_server,
    default_registry,
)
from repro.service.cli import parse_params
from repro.service.server import ServiceServer
from repro.timeloop.dse import default_candidates, sweep


# -- job queue ------------------------------------------------------------------


class TestJobQueue:
    def test_fifo_within_equal_priority(self):
        queue = JobQueue()
        first = queue.submit("table2")
        second = queue.submit("table2")
        assert queue.claim(timeout=0).id == first.id
        assert queue.claim(timeout=0).id == second.id
        assert queue.claim(timeout=0) is None

    def test_higher_priority_pops_first(self):
        queue = JobQueue()
        low = queue.submit("table2", priority=0)
        high = queue.submit("table2", priority=5)
        assert queue.claim(timeout=0).id == high.id
        assert queue.claim(timeout=0).id == low.id

    def test_lifecycle_and_counts(self):
        queue = JobQueue()
        job = queue.submit("table2")
        assert job.state == "queued" and queue.depth() == 1
        claimed = queue.claim(timeout=0)
        assert claimed.state == "running" and claimed.started_at is not None
        done = queue.mark_done(job.id, {"answer": 42})
        assert done.state == "done" and done.result == {"answer": 42}
        assert queue.counts()["done"] == 1 and queue.depth() == 0

    def test_cancel_only_affects_queued_jobs(self):
        queue = JobQueue()
        first = queue.submit("table2")
        second = queue.submit("table2")
        claimed = queue.claim(timeout=0)
        assert claimed.id == first.id and claimed.state == "running"
        # Running jobs are not cancellable.
        assert queue.cancel(first.id).state == "running"
        # Queued jobs are, and cancelled jobs are skipped by claim.
        assert queue.cancel(second.id).state == "cancelled"
        assert queue.claim(timeout=0) is None
        # Cancelling a terminal job is a no-op.
        assert queue.cancel(second.id).state == "cancelled"

    def test_unknown_job_raises(self):
        queue = JobQueue()
        with pytest.raises(KeyError):
            queue.get("nope")
        with pytest.raises(KeyError):
            queue.mark_done("nope", None)

    def test_records_round_trip_through_json(self):
        queue = JobQueue()
        job = queue.submit("network", {"network": "alexnet"}, priority=3)
        restored = type(job).from_record(json.loads(json.dumps(job.to_record())))
        assert restored.id == job.id
        assert restored.params == {"network": "alexnet"}
        assert restored.priority == 3

    def test_history_bounded_by_max_history(self, tmp_path):
        queue = JobQueue(journal_dir=tmp_path, max_history=2)
        finished = []
        for index in range(4):
            job = queue.submit("table2")
            queue.claim(timeout=0)
            queue.mark_done(job.id, {"index": index})
            finished.append(job.id)
        # Only the two newest terminal jobs remain, in memory and on disk.
        assert [job.id for job in queue.jobs()] == finished[:1:-1]
        assert sorted(path.stem for path in tmp_path.glob("*.json")) == sorted(
            finished[2:]
        )
        with pytest.raises(KeyError):
            queue.get(finished[0])
        # Pruning only ever touches terminal jobs: a running job survives.
        survivor = queue.submit("table2")
        queue.claim(timeout=0)
        assert queue.get(survivor.id).state == "running"

    def test_claim_skips_heap_entries_of_pruned_jobs(self):
        queue = JobQueue(max_history=1)
        cancelled = queue.submit("table2")
        queue.cancel(cancelled.id)  # heap entry survives the cancellation
        done = queue.submit("table2")
        queue.claim(timeout=0)
        queue.mark_done(done.id, None)  # prunes `cancelled` out of history
        with pytest.raises(KeyError):
            queue.get(cancelled.id)
        # The stale heap entry must be skipped, not crash the claimer.
        fresh = queue.submit("table2")
        assert queue.claim(timeout=0).id == fresh.id

    def test_journal_write_failure_degrades_not_crashes(self, tmp_path):
        queue = JobQueue(journal_dir=tmp_path / "journal")
        blocked = tmp_path / "blocked"
        blocked.write_text("a file, not a directory", encoding="utf-8")
        queue.journal_dir = blocked  # every journal write now raises OSError
        job = queue.submit("table2")
        queue.claim(timeout=0)
        assert queue.mark_done(job.id, {"ok": True}).state == "done"
        assert queue.journal_errors >= 2  # submit + claim + done transitions
        assert queue.get(job.id).result == {"ok": True}

    def test_malformed_journal_records_are_skipped(self, tmp_path):
        queue = JobQueue(journal_dir=tmp_path)
        good = queue.submit("table2")
        (tmp_path / "torn.json").write_text("{not json", encoding="utf-8")
        (tmp_path / "list.json").write_text("[]", encoding="utf-8")
        (tmp_path / "schema.json").write_text(
            '{"submitted_at": 1.0, "state": "queued"}', encoding="utf-8"
        )
        restored = JobQueue.load(tmp_path)
        assert [job.id for job in restored.jobs()] == [good.id]

    def test_journal_restores_history_and_requeues_unfinished(self, tmp_path):
        queue = JobQueue(journal_dir=tmp_path)
        finished = queue.submit("table2")
        queue.claim(timeout=0)
        queue.mark_done(finished.id, {"rows": []})
        interrupted = queue.submit("network", {"network": "alexnet"})
        queue.claim(timeout=0)  # running when the "process" dies
        still_queued = queue.submit("dse_sweep", {"network": "alexnet"}, priority=2)

        restored = JobQueue.load(tmp_path)
        assert restored.get(finished.id).state == "done"
        assert restored.get(finished.id).result == {"rows": []}
        # Interrupted running job and the queued job are both claimable again,
        # the higher-priority one first.
        assert restored.get(interrupted.id).state == "queued"
        assert restored.claim(timeout=0).id == still_queued.id
        assert restored.claim(timeout=0).id == interrupted.id


# -- scenario registry ----------------------------------------------------------


class TestScenarios:
    def test_default_registry_covers_the_catalogue(self):
        registry = default_registry()
        assert set(registry.names()) == {
            "layer", "network", "dse_sweep", "fig8", "fig10", "table2",
            "compare",
        }
        catalogue = registry.describe()
        json.dumps(catalogue)  # schema documents must be JSON-serializable
        by_name = {entry["name"]: entry for entry in catalogue}
        network_params = {
            p["name"]: p for p in by_name["network"]["parameters"]
        }
        # Choices are a live view of the workload registry (paper trio,
        # stem variant, synthetic zoo, runtime registrations).
        assert {"alexnet", "googlenet", "vggnet", "googlenet-stem",
                "plain-cnn-8"} <= set(network_params["network"]["choices"])
        assert network_params["seed"]["default"] == 0
        assert network_params["density_profile"]["default"] == ""

    def test_validation_applies_defaults_and_types(self):
        scenario = default_registry().get("network")
        assert scenario.validate({}) == {
            "network": "alexnet", "seed": 0, "density_profile": "",
        }
        assert scenario.validate({"seed": 7})["seed"] == 7
        with pytest.raises(ScenarioError, match="must be an integer"):
            scenario.validate({"seed": "seven"})
        with pytest.raises(ScenarioError, match="must be one of"):
            scenario.validate({"network": "resnet"})
        with pytest.raises(ScenarioError, match="does not accept"):
            scenario.validate({"networks": ["alexnet"]})

    def test_int_parameters_accept_integral_json_floats(self):
        """JSON encoders that float-ize numbers must not break int params."""
        scenario = default_registry().get("network")
        coerced = scenario.validate({"seed": 4.0})["seed"]
        assert coerced == 4 and isinstance(coerced, int)
        with pytest.raises(ScenarioError, match="must be an integer"):
            scenario.validate({"seed": 4.5})
        with pytest.raises(ScenarioError, match="must be an integer"):
            scenario.validate({"seed": True})

    def test_equivalent_spellings_share_one_payload_key(self):
        """Coalescing keys on the normalised parameters, not on their spelling."""
        from repro.service.coalesce import payload_key

        scenario = default_registry().get("network")
        spellings = [
            {},
            {"network": "AlexNet"},
            {"seed": 0.0, "network": "alexnet"},
            {"density_profile": "", "seed": 0},
        ]
        keys = {payload_key("network", scenario.validate(p)) for p in spellings}
        assert len(keys) == 1
        assert payload_key("network", scenario.validate({"seed": 1})) not in keys
        assert payload_key("compare", scenario.validate({})) not in keys

    def test_network_choices_match_case_insensitively(self):
        """Display-cased names canonicalise to the registered spelling."""
        scenario = default_registry().get("network")
        assert scenario.validate({"network": "AlexNet"})["network"] == "alexnet"
        fig8 = default_registry().get("fig8")
        assert fig8.validate({"networks": "AlexNet,VGGNET"})["networks"] == [
            "alexnet", "vggnet",
        ]

    def test_density_profile_validated_against_live_profile_registry(self):
        scenario = default_registry().get("compare")
        # Rejected at validation time — a typo never reaches the queue.
        with pytest.raises(ScenarioError, match="must be one of"):
            scenario.validate({"networks": ["alexnet"],
                               "density_profile": "bogus"})
        # Profiles registered after the scenario registry was built are
        # accepted: the choices resolve against the live profile registry.
        from repro.workloads import register_profile, uniform_profile
        from repro.workloads.profiles import unregister_profile

        register_profile(uniform_profile(0.61))
        try:
            params = scenario.validate({"density_profile": "uniform-61"})
            assert params["density_profile"] == "uniform-61"
        finally:
            unregister_profile("uniform-61")

    def test_required_parameter_enforced(self):
        scenario = default_registry().get("layer")
        with pytest.raises(ScenarioError, match="requires parameter 'layer'"):
            scenario.validate({"network": "alexnet"})

    def test_list_parameters_accept_comma_strings(self):
        scenario = default_registry().get("fig8")
        assert scenario.validate({"networks": "alexnet,googlenet"})["networks"] == [
            "alexnet", "googlenet",
        ]
        with pytest.raises(ScenarioError, match="must be one of"):
            scenario.validate({"networks": ["alexnet", "resnet"]})

    def test_compare_scenario_validates_architectures(self):
        scenario = default_registry().get("compare")
        params = scenario.validate({"architectures": "SCNN,SCNN-SparseW"})
        assert params["architectures"] == ["SCNN", "SCNN-SparseW"]
        assert params["networks"] == ["alexnet", "googlenet", "vggnet"]
        # Names are checked against the *live* architecture registry when the
        # scenario runs (so runtime-registered variants are accepted), with
        # the catalogue-listing error surfacing before any simulation work.
        engine = SimulationEngine(cache_dir=False)
        with pytest.raises(ScenarioError, match="unknown architecture 'TPU'"):
            scenario.run(engine, {"architectures": ["TPU"]})

    def test_fig8_after_network_job_synthesises_nothing(self, monkeypatch):
        """A fig8 job is served from the entry a network job for the same
        (network, seed) cached."""
        import repro.nn.pruning as pruning_module

        registry = default_registry()
        engine = SimulationEngine(cache_dir=False)
        network = registry.get("network")
        network.run(engine, network.validate({"network": "alexnet", "seed": 0}))

        def no_synthesis(*args, **kwargs):
            raise AssertionError("fig8 synthesised a layer the network job cached")

        # Every synthesis, of tensors or of masks, starts with the weight draw.
        monkeypatch.setattr(pruning_module, "generate_dense_weights", no_synthesis)
        fig8 = registry.get("fig8")
        payload = fig8.run(engine, fig8.validate({"networks": ["alexnet"], "seed": 0}))
        assert payload

    def test_layer_job_after_network_job_draws_nothing(self, monkeypatch):
        """A network job caches each layer's SCNN cell, the very cell a
        layer job at the same seed looks up."""
        import repro.nn.pruning as pruning_module

        registry = default_registry()
        engine = SimulationEngine(cache_dir=False)
        network = registry.get("network")
        network.run(engine, network.validate({"network": "alexnet", "seed": 0}))

        def no_synthesis(*args, **kwargs):
            raise AssertionError("a layer job drew a layer the network job cached")

        # Every synthesis, of tensors or of masks, starts with the weight draw.
        monkeypatch.setattr(pruning_module, "generate_dense_weights", no_synthesis)
        layer = registry.get("layer")
        params = layer.validate({"network": "alexnet", "layer": "conv3"})
        payload = layer.run(engine, params)
        assert payload["total_cycles"]["SCNN"] > 0

    def test_repeated_layer_job_draws_nothing(self, monkeypatch, tmp_path):
        """The layer scenario keys its cache entry by a recipe handle, so a
        repeated job on a fresh engine over the same cache draws nothing."""
        import repro.nn.pruning as pruning_module

        scenario = default_registry().get("layer")
        params = scenario.validate({"network": "alexnet", "layer": "conv3"})
        first = scenario.run(SimulationEngine(cache_dir=tmp_path), params)
        draws = []
        draw = pruning_module.generate_dense_weights

        def counted(*args, **kwargs):
            draws.append(args)
            return draw(*args, **kwargs)

        monkeypatch.setattr(pruning_module, "generate_dense_weights", counted)
        engine = SimulationEngine(cache_dir=tmp_path)
        assert scenario.run(engine, params) == first
        assert draws == []
        assert engine.disk_cache.hits == 1

    def test_unknown_scenario_names_the_catalogue(self):
        with pytest.raises(ScenarioError, match="available: .*network"):
            default_registry().get("bogus")

    def test_duplicate_registration_rejected(self):
        registry = ScenarioRegistry()
        scenario = Scenario("x", "", lambda engine, params: None)
        registry.register(scenario)
        with pytest.raises(ValueError):
            registry.register(scenario)


# -- submit CLI parameter syntax -------------------------------------------------


class TestParamParsing:
    def test_json_values_with_string_fallback(self):
        params = parse_params(
            ["seed=3", "network=alexnet", "include_baseline=false",
             'networks=["alexnet","vggnet"]']
        )
        assert params == {
            "seed": 3,
            "network": "alexnet",
            "include_baseline": False,
            "networks": ["alexnet", "vggnet"],
        }

    def test_malformed_pair_rejected(self):
        with pytest.raises(ValueError, match="KEY=VALUE"):
            parse_params(["seed"])

    def test_submit_network_and_profile_shorthand_flags(self):
        from repro.service.cli import build_submit_parser

        args = build_submit_parser().parse_args(
            ["network", "--network", "plain-cnn-8",
             "--density-profile", "uniform-25"]
        )
        assert args.network == "plain-cnn-8"
        assert args.density_profile == "uniform-25"

    def test_submit_shorthand_conflicting_with_param_is_rejected(self, capsys):
        from repro.service.cli import submit_main

        code = submit_main(
            ["network", "--param", "network=alexnet", "--network", "vggnet"]
        )
        assert code == 2
        assert "conflicts with --param" in capsys.readouterr().err

    def test_network_shorthand_maps_to_the_declared_parameter(self):
        from repro.service.cli import network_param_key

        catalogue = {s["name"]: s for s in default_registry().describe()}
        assert network_param_key(catalogue["network"]) == "network"
        assert network_param_key(catalogue["layer"]) == "network"
        for plural in ("compare", "fig8", "fig10"):
            assert network_param_key(catalogue[plural]) == "networks"
        # Unknown scenario / unreachable service: default to the singular.
        assert network_param_key(None) == "network"


# -- end to end over HTTP --------------------------------------------------------


@pytest.fixture()
def service_client(tmp_path):
    """A running server (ephemeral port, tmp disk cache) and its client."""
    engine = SimulationEngine(cache_dir=tmp_path / "cache")
    server = create_server(port=0, engine=engine, num_workers=4)
    server.start()
    try:
        yield ServiceClient(server.url), server
    finally:
        server.stop()


class TestServiceEndToEnd:
    def test_health_scenarios_and_stats_endpoints(self, service_client):
        client, server = service_client
        health = client.health()
        assert health["status"] == "ok" and health["workers"] == 4
        assert {entry["name"] for entry in client.scenarios()} >= {
            "network", "dse_sweep", "fig8",
        }
        stats = client.stats()
        assert stats["queue"]["depth"] == 0
        assert stats["workers"]["num_workers"] == 4
        assert stats["engine"]["hit_rate"] == 0.0

    def test_compare_scenario_end_to_end(self, service_client):
        """The compare scenario round-trips and matches the in-process sweep."""
        from repro.analysis.serialization import comparison_payload
        from repro.arch.compare import compare_network

        client, server = service_client
        payload = client.run(
            "compare",
            {"networks": ["alexnet"], "architectures": ["DCNN", "SCNN"]},
            timeout=300.0,
        )
        local = comparison_payload(
            compare_network(
                "alexnet", ["DCNN", "SCNN"], engine=server.service.engine
            )
        )
        assert payload["comparisons"]["AlexNet"] == local

    def test_concurrent_jobs_bitwise_identical_to_serial_paths(
        self, service_client
    ):
        client, server = service_client
        # Overlapping submissions: two full networks, a DSE sweep, and a
        # repeat of each — all in flight at once across 4 workers.
        submissions = [
            ("network", {"network": "alexnet", "seed": 0}),
            ("network", {"network": "googlenet", "seed": 0}),
            ("dse_sweep", {"network": "alexnet"}),
            ("network", {"network": "alexnet", "seed": 0}),
            ("dse_sweep", {"network": "alexnet"}),
        ]
        job_ids = [
            client.submit(scenario, params) for scenario, params in submissions
        ]
        results = []
        for job_id in job_ids:
            record = client.wait(job_id, timeout=120)
            assert record["state"] == "done", record
            results.append(client.result(job_id))

        # Reference payloads from the serial, in-process paths.
        reference_network = {
            name: simulation_payload(
                SimulationEngine(cache_dir=False).run_network(get_network(name), seed=0)
            )
            for name in ("alexnet", "googlenet")
        }
        candidates = [SCNN_CONFIG] + default_candidates()
        reference_sweep = design_points_payload(
            sweep(candidates, get_network("alexnet"))
        )
        reference_sweep["network"] = "alexnet"

        def canonical(payload):
            return json.dumps(payload, sort_keys=True)

        assert canonical(results[0]) == canonical(reference_network["alexnet"])
        assert canonical(results[1]) == canonical(reference_network["googlenet"])
        assert canonical(results[2]) == canonical(reference_sweep)
        # The repeats are byte-for-byte the same payloads (served warm).
        assert canonical(results[3]) == canonical(results[0])
        assert canonical(results[4]) == canonical(results[2])

        # The repeats never cost a worker: they were coalesced onto the
        # in-flight original or answered from the payload fast path.  Every
        # submission is accounted for by exactly one of the three tiers.
        stats = client.stats()
        service = stats["service"]
        assert stats["workers"]["jobs_completed"] == 3
        assert service["coalesced"] + service["fast_path_hits"] == 2
        assert (
            stats["workers"]["jobs_completed"]
            + service["coalesced"]
            + service["fast_path_hits"]
        ) == len(submissions)

    def test_warm_cache_across_service_restarts(self, tmp_path):
        # The payload store lives in memory only, so the restarted service's
        # repeat travels queue -> worker -> engine and is answered from the
        # engine's disk cache without a new simulation.
        cache_dir = tmp_path / "shared-cache"
        payloads = []
        stats = []
        for _ in range(2):
            engine = SimulationEngine(cache_dir=cache_dir)
            server = create_server(port=0, engine=engine, num_workers=2)
            server.start()
            try:
                client = ServiceClient(server.url)
                payloads.append(client.run("network", {"network": "alexnet"}))
                stats.append(client.stats())
            finally:
                server.stop()
        assert json.dumps(payloads[0], sort_keys=True) == json.dumps(
            payloads[1], sort_keys=True
        )
        assert stats[0]["engine"]["disk_hits"] == 0  # cold
        warm = stats[1]
        assert warm["service"]["fast_path_hits"] == 0
        assert warm["workers"]["jobs_completed"] == 1
        assert warm["engine"]["misses"] == 0  # nothing was simulated again
        assert warm["engine"]["disk_hits"] >= 1

    def test_unknown_scenario_and_bad_params_rejected_at_submit(
        self, service_client
    ):
        client, _ = service_client
        with pytest.raises(ServiceError, match="unknown scenario") as excinfo:
            client.submit("bogus")
        assert excinfo.value.status == 400
        with pytest.raises(ServiceError, match="must be one of"):
            client.submit("network", {"network": "resnet"})
        with pytest.raises(ServiceError, match="requires parameter"):
            client.submit("layer", {"network": "alexnet"})
        # A float-ized integer priority is the integer (the JSON round-trip
        # case); a fractional one is still a 400.
        import json as json_module
        import urllib.request

        request = urllib.request.Request(
            f"{client.base_url}/jobs",
            data=json_module.dumps(
                {"scenario": "table2", "params": {}, "priority": 4.0}
            ).encode(),
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(request) as response:
            record = json_module.loads(response.read())
        assert response.status == 202 and record["priority"] == 4
        with pytest.raises(ServiceError, match="priority"):
            client.submit("table2", priority=4.5)
        # Nothing unrunnable ever reached the queue (the accepted
        # float-priority table2 job is runnable and may be in any state).
        assert client.stats()["queue"]["jobs"]["failed"] == 0

    def test_unknown_job_and_endpoint_are_404(self, service_client):
        client, _ = service_client
        for path in ("/jobs/nope", "/results/nope", "/bogus"):
            with pytest.raises(ServiceError) as excinfo:
                client._request("GET", path)
            assert excinfo.value.status == 404

    def test_extra_path_segments_are_404_not_prefix_matches(self, service_client):
        client, _ = service_client
        job_id = client.submit("table2")
        client.wait(job_id, timeout=30)
        # Deep paths must not act on their two-segment prefix.
        for method, path in (
            ("GET", f"/jobs/{job_id}/result"),
            ("GET", f"/results/{job_id}/extra"),
            ("DELETE", f"/jobs/{job_id}/anything"),
        ):
            with pytest.raises(ServiceError) as excinfo:
                client._request(method, path)
            assert excinfo.value.status == 404
        # The well-formed requests still work.
        assert client.job(job_id)["state"] == "done"
        assert client.result(job_id)["config"] == "SCNN"

    def test_layer_scenario_validates_layer_name(self, service_client):
        client, _ = service_client
        job_id = client.submit("layer", {"network": "alexnet", "layer": "convX"})
        record = client.wait(job_id, timeout=30)
        assert record["state"] == "failed"
        with pytest.raises(JobFailedError) as excinfo:
            client.result(job_id)
        assert "has no layer" in (excinfo.value.detail or "")


# -- concurrency behaviour with a controllable scenario --------------------------


def _blocking_registry(started: threading.Event, release: threading.Event):
    """A registry with controllable scenarios for queue-behaviour tests."""
    registry = ScenarioRegistry()

    def _block(engine, params):
        started.set()
        assert release.wait(timeout=30)
        return {"blocked": True}

    def _echo(engine, params):
        return {"tag": params["tag"]}

    def _boom(engine, params):
        raise RuntimeError("scenario exploded")

    registry.register(Scenario("block", "hold a worker", _block))
    registry.register(
        Scenario("echo", "return the tag", _echo, (Parameter("tag", "str"),))
    )
    registry.register(Scenario("boom", "always fails", _boom))
    return registry


class TestQueueBehaviourOverHttp:
    @pytest.fixture()
    def controllable(self):
        started, release = threading.Event(), threading.Event()
        registry = _blocking_registry(started, release)
        service = SimulationService(
            engine=SimulationEngine(cache_dir=False),
            registry=registry,
            num_workers=1,
        )
        server = ServiceServer(service, port=0)
        server.start()
        try:
            yield ServiceClient(server.url), started, release
        finally:
            release.set()
            server.stop()

    def test_priority_order_cancellation_and_pending_results(self, controllable):
        client, started, release = controllable
        blocker = client.submit("block")
        assert started.wait(timeout=10)  # the single worker is now held

        low = client.submit("echo", {"tag": "low"}, priority=0)
        high = client.submit("echo", {"tag": "high"}, priority=9)
        doomed = client.submit("echo", {"tag": "never"}, priority=0)

        # While queued/running: /results answers 409, /stats sees the depth.
        with pytest.raises(ServiceError) as excinfo:
            client.result(low)
        assert excinfo.value.status == 409
        stats = client.stats()
        assert stats["queue"]["depth"] == 3
        assert stats["workers"]["busy_workers"] == 1
        assert stats["workers"]["utilization"] == 1.0

        # Cancel one queued job; running jobs are not cancellable.
        assert client.cancel(doomed)["state"] == "cancelled"
        assert client.cancel(blocker)["state"] == "running"

        release.set()
        order = [
            client.wait(job_id, timeout=30) for job_id in (blocker, high, low)
        ]
        assert [record["state"] for record in order] == ["done"] * 3
        # The high-priority job ran before the earlier-submitted low one.
        assert order[1]["started_at"] <= order[2]["started_at"]
        assert client.result(high) == {"tag": "high"}
        with pytest.raises(JobFailedError) as excinfo:
            client.result(doomed)
        assert excinfo.value.state == "cancelled"

    def test_failed_job_keeps_detail_and_spares_the_worker(self, controllable):
        client, _, _ = controllable
        failed = client.submit("boom")
        record = client.wait(failed, timeout=30)
        assert record["state"] == "failed"
        with pytest.raises(JobFailedError) as excinfo:
            client.result(failed)
        assert "scenario exploded" in (excinfo.value.detail or "")
        # The worker survived and still serves jobs.
        assert client.run("echo", {"tag": "alive"}, timeout=30) == {"tag": "alive"}


# -- journalled service restarts -------------------------------------------------


class TestServiceJournal:
    def test_queued_work_survives_a_restart(self, tmp_path):
        journal = tmp_path / "journal"
        first = SimulationService(
            engine=SimulationEngine(cache_dir=False),
            registry=default_registry(),
            num_workers=1,
            journal_dir=journal,
        )
        # Never start workers: the job stays queued when the service "dies".
        job = first.submit("table2")
        assert first.job(job.id).state == "queued"

        second = SimulationService(
            engine=SimulationEngine(cache_dir=False),
            registry=default_registry(),
            num_workers=1,
            journal_dir=journal,
        )
        assert second.job(job.id).state == "queued"
        second.start()
        try:
            deadline = time.monotonic() + 30
            while not second.job(job.id).is_terminal:
                assert time.monotonic() < deadline
                time.sleep(0.02)
            finished = second.job(job.id)
            assert finished.state == "done"
            assert finished.result["rows"]
        finally:
            second.stop()
