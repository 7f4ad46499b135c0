"""Workload ``grid-sweep``: the analytical Fig. 7 / DSE grid, one in-process caller.

A closed loop on a fresh engine (no disk cache) repeats one operation, a
sweep across every registered workload: for each, a seeded
``fig7_sensitivity.run`` density ladder and a ``SimulationEngine.sweep``
over ``[SCNN] + default_candidates()`` at seeded ``uniform_profile``
densities, in a seeded order.  Every sweep does the same amount of grid
work, so its duration is one homogeneous sample.  The grid and timeloop models
do the work; workload synthesis, the oracle and tiling counts do none, so
this is the bypass side of every simulation-pipeline optimisation and the
exercised side of any change to the analytical models.

The program's memos (grid stacks, tiling plans, solved binomial triples)
are cleared once at the start of a run and then warm up as a real sweep
run would.
"""

from __future__ import annotations

import random
import resource
import shutil
import sys
import time
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

from common import (
    WORK,
    Report,
    at_reference_speed,
    host_speed_probe,
    host_speed_probes,
    median,
    run_child,
)

FIG7_POINTS = 10
#: Density axis values, in hundredths: the program's binomial memo is keyed
#: by thousandths, so a finer axis would make each seed's cost depend on how
#: many distinct values it happened to draw.
DENSITIES = tuple(round(0.01 * step, 2) for step in range(2, 101))
SETUP_REPEATS = 7
GATE_SAMPLE = 6
#: Configs one fig7 ladder evaluates (SCNN, DCNN, DCNN-opt).
FIG7_CONFIGS = 3

_SETUP_CODE = (
    "from repro.engine import SimulationEngine\n"
    "from repro.experiments import fig7_sensitivity\n"
    "from repro.arch.registry import get_architecture\n"
    "from repro.timeloop.dse import default_candidates\n"
    "from repro.workloads.profiles import uniform_profile\n"
    "from repro.workloads.registry import available_workloads, resolve_network\n"
    "[resolve_network(name) for name in available_workloads()]\n"
    "default_candidates(get_architecture('SCNN').config)\n"
)


@dataclass(frozen=True)
class Op:
    """One program call: a fig7 density ladder, or a DSE sweep at (weight, activation)."""

    kind: str  # "fig7" | "dse"
    network: str
    densities: Tuple[float, ...]


def sweep_stream(seed: int, workloads: List[str]) -> Iterator[List[Op]]:
    """Endless seeded sweeps; each covers every (kind, workload) once."""
    rng = random.Random(seed)
    while True:
        pairs = [(kind, name) for name in workloads for kind in ("fig7", "dse")]
        rng.shuffle(pairs)
        yield [
            Op(kind, name, tuple(sorted(rng.sample(DENSITIES, FIG7_POINTS))))
            if kind == "fig7"
            else Op(kind, name, (rng.choice(DENSITIES), rng.choice(DENSITIES)))
            for kind, name in pairs
        ]


class Sweeper:
    """The program surfaces one caller uses: a fresh engine and the sweep axes."""

    def __init__(self) -> None:
        from repro.arch.registry import get_architecture
        from repro.experiments import fig7_sensitivity
        from repro.timeloop.dse import default_candidates
        from repro.workloads.profiles import uniform_profile
        from repro.workloads.registry import available_workloads, resolve_network

        self.fig7 = fig7_sensitivity
        self.uniform_profile = uniform_profile
        self.workloads = list(available_workloads())
        self.networks = {name: resolve_network(name) for name in self.workloads}
        self.layers = {name: len(net.layers) for name, net in self.networks.items()}
        scnn = get_architecture("SCNN").config
        self.configs = [scnn, *default_candidates(scnn)]
        self.fresh()

    def fresh(self) -> None:
        """Cold program memos and a new engine."""
        from repro.engine import SimulationEngine
        from repro.grid import clear_caches

        clear_caches()
        self.engine = SimulationEngine(cache_dir=False, memory_max_entries=512)

    def execute(self, op: Op) -> Tuple[tuple, int]:
        """Run one op; returns its comparable result and its grid cell count."""
        if op.kind == "fig7":
            points = self.fig7.run(op.densities, op.network)
            result = tuple(
                (p.density, p.scnn_cycles, p.dcnn_cycles, tuple(sorted(p.energy.items())))
                for p in points
            )
            return result, self.layers[op.network] * len(op.densities) * FIG7_CONFIGS
        weight, activation = op.densities
        profile = self.uniform_profile(weight, activation_density=activation)
        points = self.engine.sweep(
            self.configs, op.network, sparsity=profile.table(self.networks[op.network])
        )
        result = tuple((p.name, p.cycles, p.energy, p.area_mm2) for p in points)
        return result, self.layers[op.network] * len(self.configs)


def _closed_loop(
    sweeper: Sweeper,
    sweeps: Iterator[List[Op]],
    seconds: float,
    limit: int = 0,
    probes: Optional[List[float]] = None,
):
    """Run sweeps until ``seconds`` pass (or ``limit`` sweeps).

    Returns ``[(ops, results, seconds, cells)]`` per sweep and the elapsed time.
    With ``probes``, :func:`host_speed_probe` runs before each sweep and its
    time is appended there.
    """
    done = []
    start = time.perf_counter()
    for ops in sweeps:
        if probes is not None:
            probes.append(host_speed_probe())
        began = time.perf_counter()
        outcomes = [sweeper.execute(op) for op in ops]
        took = time.perf_counter() - began
        done.append((ops, [result for result, _ in outcomes], took, sum(c for _, c in outcomes)))
        if limit and len(done) >= limit:
            break
        if not limit and time.perf_counter() - start >= seconds:
            break
    return done, time.perf_counter() - start


def _gate(report: Report, sweeper: Sweeper, done, seed: int) -> None:
    """A seeded sample of ops, recomputed with cleared memos, must match."""
    rng = random.Random(seed + 1)
    sweeper.fresh()
    ops = [pair for ops, results, _, _ in done for pair in zip(ops, results)]
    for op, result in rng.sample(ops, min(GATE_SAMPLE, len(ops))):
        report.attempted += 1
        if sweeper.execute(op)[0] != result:
            report.fail(f"{op.kind} {op.network} {op.densities}: cold recompute differs")


def run(seconds: float, seed: int, traced: bool) -> Report:
    """Measure the workload for ``seconds``."""
    report = Report("grid-sweep", traced)
    tmp = WORK / f"grid-sweep-{id(report)}"
    try:
        if traced:
            _traced(report, seconds, seed, tmp)
        else:
            _untraced(report, seconds, seed, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return report


def _untraced(report: Report, seconds: float, seed: int, tmp) -> None:
    # Set-up samples are spread across the window, one before each slice of
    # sweeps, so their median does not hang on the host's speed at one moment.
    setups, scaled_setups = [], []
    sweeper = stream = None
    done, elapsed, probes = [], 0.0, []
    for _ in range(SETUP_REPEATS):
        before = host_speed_probes()
        child = run_child([sys.executable, "-c", _SETUP_CODE], cwd=tmp, timeout=120.0)
        if child.returncode != 0:
            report.fail(f"setup exited {child.returncode}: {child.stderr[-300:]}")
        setups.append(child.wall_s)
        scaled_setups.append(at_reference_speed(child.wall_s, *before, *host_speed_probes()))
        if sweeper is None:
            sweeper = Sweeper()
            stream = sweep_stream(seed, sweeper.workloads)
        part, took = _closed_loop(sweeper, stream, seconds / SETUP_REPEATS, probes=probes)
        done += part
        elapsed += took
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    report.attempted += sum(len(ops) for ops, *_ in done)
    _gate(report, sweeper, done, seed)
    durations = [d for _, _, d, _ in done]
    # Every sweep does the same work, yet one run's sweeps drift between
    # ~0.09 s and ~0.16 s with the host, so the run's raw median sweep
    # spread 35-40% of itself across seeds.  Each sweep is scaled by the
    # probe timed just before it; in two sets of ten 30 s runs the median
    # scaled sweep spread 3% and 5%.
    sweep_s = median([at_reference_speed(d, p) for d, p in zip(durations, probes)])
    report.metrics = {
        "setup_s": median(scaled_setups),
        "op_s": sweep_s,
        # Equal work per sweep: its upper percentiles track only the host.
        "op_tail_s": sweep_s,
        "throughput_per_s": done[0][3] / sweep_s,
        "peak_rss_mb": peak_rss_mb,
    }
    report.aliases = {
        "setup_s": "imports and registry build, at reference host speed",
        "op_s": "sweep_p50_s at reference host speed: fig7 ladder + DSE sweep of every workload",
        "op_tail_s": "sweep_p50_s at reference host speed (equal work per sweep: no program tail)",
        "throughput_per_s": "grid_cells_per_s at reference host speed",
        "peak_rss_mb": "benchmark process (in-process caller)",
    }
    report.context["samples"] = len(done)
    report.context["raw_sweep_p50_s"] = round(median(durations), 4)
    report.context["probe_p50_s"] = round(median(probes), 5)
    report.context["raw_grid_cells_per_s_over_run"] = round(sum(c for *_, c in done) / (elapsed - sum(probes)))
    report.context["raw_setup_samples_s"] = [round(value, 3) for value in setups]


def _traced(report: Report, seconds: float, seed: int, tmp) -> None:
    """Half the window untraced, then the same ops again traced."""
    from fig8_cold import import_times
    from layers import install, module_metrics
    from tracer import Tracer

    import_total, import_scipy = import_times(tmp)
    sweeper = Sweeper()
    plain, plain_s = _closed_loop(sweeper, sweep_stream(seed, sweeper.workloads), seconds / 2)
    sweeper.fresh()
    tracer = Tracer()
    install(tracer)
    try:
        traced, traced_s = _closed_loop(
            sweeper, sweep_stream(seed, sweeper.workloads), 0, limit=len(plain)
        )
    finally:
        tracer.unwrap_all()
    metrics = module_metrics(tracer)
    for (ops, expected, _, _), (_, results, _, _) in zip(plain, traced):
        for op, want, got in zip(ops, expected, results):
            report.attempted += 1
            if got != want:
                report.fail(f"{op.kind} {op.network} {op.densities}: traced result differs")
    _gate(report, sweeper, plain, seed)
    metrics["import.total_s"] = import_total
    metrics["import.scipy_s"] = import_scipy
    metrics["trace.overhead_frac"] = traced_s / plain_s - 1.0
    report.metrics = metrics
    if tracer.missing:
        report.notes.append("not traced (absent from the program): " + ", ".join(tracer.missing))
