#!/usr/bin/env python3
"""Record repeatable performance benchmarks as JSON at the repo root.

``--bench whole_grid`` (default, ``BENCH_whole_grid.json``) times a
Figure-7-style density sweep (every layer of GoogLeNet x a density axis x
the SCNN/DCNN/DCNN-opt trio) through the analytical grid kernels, two ways:

* ``grid_cold_s`` — the grid pass with every grid memo cleared (tiling
  plans, stacked constants, solved binomial triples, log-factorial tables);
* ``grid_warm_s`` — the same pass again with the memos warm, which is the
  steady state a sweep-heavy session (DSE, service traffic) actually sees.

Each is the median of ``repeats`` runs.  The gate requires the cold and warm
sweeps to be identical and every point at a golden density to equal the
GoogLeNet Figure 7 points pinned in ``tests/golden/analytical_models.json``
(by ``repr``), so a recorded time is never bought with a numerical change.

``--bench service_scaleout`` (``BENCH_service_scaleout.json``) measures the
service's worker tiers against each other:

* **distinct drain** — N distinct ``network`` jobs drained by 4 workers in
  thread mode vs process mode (wall-clock each, plus the ratio — read it
  alongside ``cpu_count``: forked workers can only beat the GIL when the
  machine has cores for them);
* **coalescing** — N identical jobs submitted together must run **exactly
  one** simulation (coalesce counter = N-1) and fan the bitwise-identical
  payload out to every submission, in both modes, with the thread-mode
  payloads as the equivalence oracle for process mode.

``--bench observability_overhead`` (``BENCH_observability_overhead.json``)
pins the observability layer's cost contract on a real engine workload
(N distinct ``run_network`` simulations, fresh engine per sample):

* two **disabled** arms establish the run-to-run noise window — their
  spread is what "unmeasurable" means on this machine;
* one **enabled** arm (metrics + an active trace context) must stay
  within 5% of the best disabled arm;
* the arms take turns within each repeat (A, B, enabled, A, B, enabled,
  ...) and each keeps its best run, so a slow spell of the host lands on
  every arm rather than on one arm's whole sample;
* per-operation microbenchmarks record the disabled fast path in
  nanoseconds (one counter ``inc``, one ``span`` call — each must stay
  under a microsecond);
* every arm's simulated cycle counts must be identical — instrumentation
  must never change results.

``--bench synthesis`` (``BENCH_synthesis.json``) times the layer task's
stages over the 72 conv layers of the Table I trio at seed 0, each on the
function the task calls:

* ``weight_mask`` — ``pruned_weight_mask`` (the dense draw, its jitter and
  the pruning selection);
* ``activation_mask`` — the magnitude draw and ``_activation_mask`` (the
  noise draw, box filter, threshold and fix-up);
* ``integral_images`` — ``LayerOperands.integrals``, the activation mask's
  phase integral images;
* ``models`` — ``simulate_layer`` on SCNN, DCNN and DCNN-opt over those
  masks and images.

``first_pass_s`` is the first pass in the fresh process (page faults, first
calls and all); ``warm_median_s`` is each stage's median over the warm
repeats.  The gate requires every pass's masks to hash alike and every
mask to equal ``!= 0`` of the float tensors whose SHA-256 digests
``tests/golden/trio_pipeline_seed0.json`` pins, with the golden's SCNN
cycles and valid products.

``--smoke`` shrinks any benchmark for CI; the committed records at the
repo root are full runs.  Every record ends with the same host envelope
(``cpu_count``, ``numpy``, ``python``, ``machine``), so each timing is read
beside the machine that produced it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT / "tests"))  # the golden's record format

import numpy as np  # noqa: E402  (path setup above)

import repro.grid as grid  # noqa: E402
from _helpers import ANALYTICAL_GOLDEN, fig7_point_record, recipe_workload  # noqa: E402
from repro.arch.adapters import LayerOperands, simulate_layer  # noqa: E402
from repro.arch.registry import get_architecture  # noqa: E402
from repro.engine.workloads import network_handles  # noqa: E402
from repro.experiments import fig7_sensitivity  # noqa: E402
from repro.experiments.common import cached_network  # noqa: E402
from repro.nn.inference import _activation_mask  # noqa: E402
from repro.nn.pruning import pruned_weight_mask  # noqa: E402
from repro.scnn.simulator import TRIO  # noqa: E402

#: Per-layer digests of the trio's operands at seed 0 (tests/test_pipeline_golden.py).
TRIO_GOLDEN = REPO_ROOT / "tests" / "golden" / "trio_pipeline_seed0.json"
SYNTHESIS_STAGES = ("weight_mask", "activation_mask", "integral_images", "models")


def _envelope() -> dict:
    """The host fields every record ends with."""
    return {
        "cpu_count": os.cpu_count(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
    }


def _golden_points_match(points) -> bool:
    """Whether the sweep covers every golden Fig. 7 density, equal by ``repr``."""
    golden = {
        record["density"]: record
        for record in json.loads(ANALYTICAL_GOLDEN.read_text())["fig7_googlenet"]
    }
    covered = {
        record["density"]: record
        for record in map(fig7_point_record, points)
        if record["density"] in golden
    }
    return covered == golden


def run_benchmark(densities, repeats: int) -> dict:
    """Time the cold and warm grid passes of a GoogLeNet density sweep."""
    densities = tuple(float(d) for d in densities)
    network = cached_network("googlenet")  # build outside every timing window
    layers = len(network.layers)
    cold_s, warm_s = [], []
    cold_equals_warm = True
    for _ in range(repeats):
        grid.clear_caches()
        start = time.perf_counter()
        cold = fig7_sensitivity.run(densities, "googlenet")
        cold_s.append(time.perf_counter() - start)
        start = time.perf_counter()
        warm = fig7_sensitivity.run(densities, "googlenet")
        warm_s.append(time.perf_counter() - start)
        cold_equals_warm = cold_equals_warm and (
            list(map(fig7_point_record, warm)) == list(map(fig7_point_record, cold))
        )
    golden = _golden_points_match(cold)
    return {
        "benchmark": "whole_grid",
        "network": "googlenet",
        "layers": layers,
        "density_points": len(densities),
        "configs": 3,
        "grid_cells": layers * len(densities) * 3,
        "repeats": repeats,
        "grid_cold_s": round(float(np.median(cold_s)), 6),
        "grid_warm_s": round(float(np.median(warm_s)), 6),
        "cold_equals_warm": cold_equals_warm,
        "golden_fig7_points_equal": golden,
        "equivalent": cold_equals_warm and golden,
        **_envelope(),
    }


def _sha256(array: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


def _synthesis_pass(handles, trio):
    """One pass of the layer task over ``handles``, each stage timed alone.

    Returns the seconds per stage and, per layer, the masks' digests and
    the SCNN result (hashed and read after the clock stops).
    """
    seconds = dict.fromkeys(SYNTHESIS_STAGES, 0.0)
    layers = []
    for handle in handles:
        spec, target = handle.spec, handle.target
        rng = np.random.default_rng([handle.seed, handle.index])
        start = time.perf_counter()
        weights = pruned_weight_mask(spec, target.weight_density, rng)
        weights_done = time.perf_counter()
        # build_layer_masks' activation steps: the magnitude draw lands in
        # the buffer the noise field is then drawn into.
        buffer = rng.standard_normal(size=spec.input_shape)
        activations = _activation_mask(spec, target.activation_density, rng, buffer)
        del buffer
        activations_done = time.perf_counter()
        operands = LayerOperands(spec, weights, activations)
        operands.integrals  # built once, read by every model below
        integrals_done = time.perf_counter()
        results = [simulate_layer(spec, arch.config, operands) for arch in trio]
        models_done = time.perf_counter()
        seconds["weight_mask"] += weights_done - start
        seconds["activation_mask"] += activations_done - weights_done
        seconds["integral_images"] += integrals_done - activations_done
        seconds["models"] += models_done - integrals_done
        layers.append((_sha256(weights), _sha256(activations), results[0]))
        del operands, weights, activations
    return seconds, layers


def _synthesis_matches_golden(networks, handles, layers) -> bool:
    """Whether every layer's masks are ``!= 0`` of the float tensors the
    trio golden pins, with its SCNN cycles and valid products."""
    golden = json.loads(TRIO_GOLDEN.read_text())
    records = [record for name in networks for record in golden[name]]
    if len(records) != len(handles):
        return False
    for handle, record, (weights_sha, activations_sha, scnn) in zip(
        handles, records, layers
    ):
        weights, activations = recipe_workload(handle)
        if (
            record["layer"] != handle.spec.name
            or _sha256(weights) != record["weights_sha256"]
            or _sha256(activations) != record["activations_sha256"]
            or _sha256(weights != 0) != weights_sha
            or _sha256(activations != 0) != activations_sha
            or scnn.cycles != record["scnn_cycles"]
            or scnn.valid_products != record["nonzero_multiplies"]
        ):
            return False
    return True


def run_synthesis_benchmark(networks, repeats: int) -> dict:
    """Time the layer task's stages over ``networks``' layers at seed 0:
    the first pass in this process, then the median of ``repeats`` more."""
    handles = [
        handle for name in networks for handle in network_handles(name, seed=0)[1]
    ]
    trio = [get_architecture(name) for name in TRIO]
    first_s, first = _synthesis_pass(handles, trio)
    warm = [_synthesis_pass(handles, trio) for _ in range(repeats)]
    passes_equal = all(layers == first for _, layers in warm)
    golden = _synthesis_matches_golden(networks, handles, first)

    def rounded(seconds):
        return {
            **{stage: round(seconds[stage], 6) for stage in SYNTHESIS_STAGES},
            "total": round(sum(seconds.values()), 6),
        }

    warm_median = None
    if warm:
        warm_median = rounded(
            {
                stage: float(np.median([seconds[stage] for seconds, _ in warm]))
                for stage in SYNTHESIS_STAGES
            }
        )
    return {
        "benchmark": "synthesis",
        "networks": list(networks),
        "layers": len(handles),
        "seed": 0,
        "repeats": repeats,
        "first_pass_s": rounded(first_s),
        "warm_median_s": warm_median,
        "passes_equal": passes_equal,
        "masks_equal_golden": golden,
        "equivalent": passes_equal and golden,
        **_envelope(),
    }


def _drain(service, job_ids, timeout_s=900.0):
    """Block until every job id is terminal; raises on timeout."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if all(service.job(job_id).is_terminal for job_id in job_ids):
            return
        time.sleep(0.05)
    raise RuntimeError(f"jobs did not drain within {timeout_s:.0f}s")


def _timed_distinct_drain(mode: str, jobs: int, workers: int) -> float:
    """Wall-clock for ``workers`` ``mode``-workers to drain ``jobs`` distinct jobs.

    Jobs are submitted *before* the worker tier starts, so the timing
    window covers pure drain (including process-mode fork overhead) rather
    than submission interleaving.
    """
    from repro.engine import SimulationEngine
    from repro.service import SimulationService, default_registry

    service = SimulationService(
        engine=SimulationEngine(cache_dir=False),
        registry=default_registry(),
        num_workers=workers,
        mode=mode,
    )
    submitted = [
        service.submit("network", {"network": "alexnet", "seed": seed})
        for seed in range(jobs)
    ]
    start = time.perf_counter()
    service.start()
    try:
        _drain(service, [job.id for job in submitted])
        elapsed = time.perf_counter() - start
        states = [service.job(job.id).state for job in submitted]
        if states != ["done"] * jobs:
            raise RuntimeError(f"distinct drain left non-done jobs: {states}")
    finally:
        service.stop()
    return elapsed


def _coalesced_burst(mode: str, jobs: int, workers: int) -> dict:
    """Submit ``jobs`` identical requests; returns counters and payloads.

    All submissions land before the workers start, so exactly one leader
    runs and every other submission is a coalesced follower —
    deterministically, not racily.
    """
    from repro.engine import SimulationEngine
    from repro.service import SimulationService, default_registry

    service = SimulationService(
        engine=SimulationEngine(cache_dir=False),
        registry=default_registry(),
        num_workers=workers,
        mode=mode,
    )
    submitted = [
        service.submit("network", {"network": "alexnet", "seed": 0})
        for _ in range(jobs)
    ]
    service.start()
    try:
        _drain(service, [job.id for job in submitted])
        payloads = [
            json.dumps(service.job(job.id).result, sort_keys=True)
            for job in submitted
        ]
        return {
            "submissions": jobs,
            "simulations_run": service.workers.stats()["jobs_completed"],
            "coalesced": service.coalescer.coalesced,
            "payloads": payloads,
        }
    finally:
        service.stop()


def run_service_benchmark(distinct_jobs: int, identical_jobs: int, workers: int) -> dict:
    """Time thread vs process worker tiers and verify coalescing semantics."""

    distinct_s = {
        mode: _timed_distinct_drain(mode, distinct_jobs, workers)
        for mode in ("thread", "process")
    }
    bursts = {
        mode: _coalesced_burst(mode, identical_jobs, workers)
        for mode in ("thread", "process")
    }
    oracle = bursts["thread"]["payloads"]
    identical_within_modes = all(
        len(set(burst["payloads"])) == 1 for burst in bursts.values()
    )
    identical_across_modes = bursts["process"]["payloads"] == oracle
    coalesce_exact = all(
        burst["simulations_run"] == 1
        and burst["coalesced"] == identical_jobs - 1
        for burst in bursts.values()
    )
    return {
        "benchmark": "service_scaleout",
        "scenario": "network (alexnet)",
        "workers": workers,
        "distinct_jobs": distinct_jobs,
        "thread_distinct_s": round(distinct_s["thread"], 6),
        "process_distinct_s": round(distinct_s["process"], 6),
        "speedup_process_vs_thread": round(
            distinct_s["thread"] / distinct_s["process"], 3
        ),
        "identical_jobs": identical_jobs,
        "coalesce": {
            mode: {
                "submissions": bursts[mode]["submissions"],
                "simulations_run": bursts[mode]["simulations_run"],
                "coalesced": bursts[mode]["coalesced"],
            }
            for mode in bursts
        },
        "coalesce_exact": coalesce_exact,
        "payloads_identical_within_modes": identical_within_modes,
        "payloads_identical_across_modes": identical_across_modes,
        "equivalent": (
            coalesce_exact and identical_within_modes and identical_across_modes
        ),
        **_envelope(),
    }


def _obs_workload(iterations: int):
    """Run ``iterations`` distinct network simulations on a fresh engine.

    Returns (elapsed seconds, cycle fingerprint) — the fingerprint is the
    per-layer SCNN cycle list of every run, used to assert that flipping
    observability on can never change simulated results.
    """
    from repro.engine import SimulationEngine

    engine = SimulationEngine(cache_dir=False)  # built outside the window
    start = time.perf_counter()
    fingerprint = []
    for seed in range(iterations):
        simulation = engine.run_network("alexnet", seed=seed)
        fingerprint.append([layer.scnn.cycles for layer in simulation.layers])
    return time.perf_counter() - start, fingerprint


def _disabled_op_ns(op, calls: int = 200_000) -> float:
    """Nanoseconds per call of ``op`` (obs disabled), best of 3 batches."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        for _ in range(calls):
            op()
        best = min(best, time.perf_counter() - start)
    return best / calls * 1e9


def run_observability_benchmark(iterations: int, repeats: int) -> dict:
    """Time the engine workload with observability off, off again, and on."""
    from repro import obs

    def sample(enabled: bool):
        obs.reset(enabled=enabled)
        if enabled:
            token = obs.set_current_trace(obs.new_trace_id())
        try:
            return _obs_workload(iterations)
        finally:
            if enabled:
                obs.reset_current_trace(token)

    arms = (False, False, True)  # disabled A, disabled B, enabled
    best = [(float("inf"), None)] * len(arms)
    try:
        for _ in range(repeats):
            for arm, enabled in enumerate(arms):
                elapsed, fingerprint = sample(enabled)
                if elapsed < best[arm][0]:
                    best[arm] = (elapsed, fingerprint)
        (
            (disabled_a_s, fingerprint_a),
            (disabled_b_s, fingerprint_b),
            (enabled_s, fingerprint_on),
        ) = best

        obs.reset(enabled=False)
        counter = obs.counter("bench_disabled_total")
        inc_ns = _disabled_op_ns(counter.inc)
        span_ns = _disabled_op_ns(lambda: obs.span("bench.disabled"))
    finally:
        obs.reset(enabled=False)

    baseline_s = min(disabled_a_s, disabled_b_s)
    noise_fraction = abs(disabled_a_s - disabled_b_s) / baseline_s
    enabled_overhead = enabled_s / baseline_s - 1.0
    results_identical = fingerprint_a == fingerprint_b == fingerprint_on
    return {
        "benchmark": "observability_overhead",
        "workload": f"{iterations} distinct alexnet run_network calls, "
        f"fresh engine, best of {repeats}, arms interleaved",
        "disabled_a_s": round(disabled_a_s, 6),
        "disabled_b_s": round(disabled_b_s, 6),
        "enabled_s": round(enabled_s, 6),
        "disabled_noise_fraction": round(noise_fraction, 6),
        "enabled_overhead_fraction": round(enabled_overhead, 6),
        "disabled_counter_inc_ns": round(inc_ns, 1),
        "disabled_span_ns": round(span_ns, 1),
        "results_identical_across_arms": results_identical,
        "gates": {
            "enabled_overhead_below_5pct": enabled_overhead < 0.05,
            "disabled_ops_below_1us": inc_ns < 1000.0 and span_ns < 1000.0,
        },
        "equivalent": (
            results_identical
            and enabled_overhead < 0.05
            and inc_ns < 1000.0
            and span_ns < 1000.0
        ),
        **_envelope(),
    }


def main(argv=None) -> int:
    """CLI entry point; exits non-zero on any equivalence failure."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--bench",
        choices=("whole_grid", "service_scaleout", "observability_overhead", "synthesis"),
        default="whole_grid",
        help="which benchmark to record (default: whole_grid)",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="shrunken run for CI (smaller grid / fewer jobs)",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=None,
        help="where to write the JSON record "
        "(default: BENCH_<benchmark>.json at the repo root)",
    )
    args = parser.parse_args(argv)
    if args.bench == "service_scaleout":
        if args.smoke:
            record = run_service_benchmark(
                distinct_jobs=4, identical_jobs=6, workers=2
            )
        else:
            record = run_service_benchmark(
                distinct_jobs=16, identical_jobs=16, workers=4
            )
    elif args.bench == "observability_overhead":
        if args.smoke:
            record = run_observability_benchmark(iterations=2, repeats=4)
        else:
            record = run_observability_benchmark(iterations=6, repeats=3)
    elif args.bench == "synthesis":
        if args.smoke:
            record = run_synthesis_benchmark(("alexnet",), repeats=0)
        else:
            record = run_synthesis_benchmark(("alexnet", "googlenet", "vggnet"), repeats=7)
    elif args.smoke:
        record = run_benchmark(fig7_sensitivity.DEFAULT_DENSITIES, repeats=1)
    else:
        # 0.01 ... 1.00: a superset of the golden DEFAULT_DENSITIES.
        record = run_benchmark(np.round(np.linspace(0.01, 1.0, 100), 4), repeats=7)
    output = args.output or REPO_ROOT / f"BENCH_{record['benchmark']}.json"
    output.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(record, indent=2))
    if not record["equivalent"]:
        print(
            f"FAIL: {record['benchmark']} benchmark failed its equivalence gate",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
