"""Workload ``fig8-cold``: ``python -m repro fig8`` in a fresh process, back to back.

One closed-loop caller; no cache directory, the default serial engine.
Import, the first-BLAS-call stall, workload synthesis, the oracle and the
cycle model of all 72 trio conv layers do the work; the service, the disk
cache and the analytical grid do none.  The CLI takes no seed, so the
workload is the same for every ``--seed``.

Run as a script with ``--traced-child OUT`` it is the traced variant of one
such process: it times its own import, wraps the program's modules
(:mod:`layers`), runs the same CLI entry point and writes the spans to OUT.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import shutil
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

from common import WORK, ChildRun, Report, at_reference_speed, host_speed_probes, median, run_child

GOLDEN = Path(__file__).resolve().parent / "golden" / "fig8_stdout.txt"
SETUP_REPEATS = 5
IMPORTTIME_REPEATS = 3
CHILD_TIMEOUT_S = 170.0
#: Conv layers of the Table I trio (AlexNet 5, GoogLeNet 54, VGGNet 13).
TRIO_CONV_LAYERS = 72

_TIMING_LINE = re.compile(r"^\[fig8 completed in [^\]]*\]\n?", re.MULTILINE)
_AVERAGE = re.compile(r"Average network speedup: ([0-9.]+)x \(paper: ([0-9.]+)x\)")


def normalise(stdout: str) -> str:
    """The fig8 tables with the host-timing line removed."""
    return _TIMING_LINE.sub("", stdout)


def _check(report: Report, run: ChildRun, golden: str, what: str) -> None:
    report.attempted += 1
    if run.returncode != 0:
        report.fail(f"{what} exited {run.returncode}: {run.stderr.strip()[-300:]}")
    elif normalise(run.stdout) != golden:
        report.fail(f"{what} printed tables that differ from the golden fig8 output")


def _fig8(tmp: Path) -> ChildRun:
    return run_child([sys.executable, "-m", "repro", "fig8"], cwd=tmp, timeout=CHILD_TIMEOUT_S)


def import_times(tmp: Path) -> Tuple[float, float]:
    """Median (total, scipy) import seconds of ``repro.experiments.cli``.

    From ``-X importtime``: the sum of every module's self time, and of the
    modules in the ``scipy`` package.
    """
    totals: List[float] = []
    scipy: List[float] = []
    for _ in range(IMPORTTIME_REPEATS):
        run = run_child(
            [sys.executable, "-X", "importtime", "-c", "import repro.experiments.cli"],
            cwd=tmp,
            timeout=CHILD_TIMEOUT_S,
        )
        if run.returncode != 0:
            raise RuntimeError(f"import failed: {run.stderr.strip()[-300:]}")
        total_us = scipy_us = 0
        for line in run.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            fields = line[len("import time:"):].split("|")
            if not fields[0].strip().isdigit():
                continue  # the header line
            self_us = int(fields[0])
            total_us += self_us
            module = fields[2].strip()
            if module == "scipy" or module.startswith("scipy."):
                scipy_us += self_us
        totals.append(total_us / 1e6)
        scipy.append(scipy_us / 1e6)
    return median(totals), median(scipy)


def _context(report: Report, stdout: str) -> None:
    match = _AVERAGE.search(stdout)
    if match:
        report.context["simulated_fig8_avg_speedup"] = float(match.group(1))
        report.context["paper_fig8_avg_speedup"] = float(match.group(2))
        report.notes.append("the simulated Fig. 8 speedup is context beside the paper's, not a gated metric")


def run(seconds: float, seed: int, traced: bool) -> Report:
    """Measure the workload for ``seconds``; ``seed`` is unused (deterministic)."""
    report = Report("fig8-cold", traced)
    golden = normalise(GOLDEN.read_text())
    tmp = WORK / f"fig8-cold-{id(report)}"
    try:
        if traced:
            _traced(report, seconds, golden, tmp)
        else:
            _untraced(report, seconds, golden, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return report


def _untraced(report: Report, seconds: float, golden: str, tmp: Path) -> None:
    # A cold import before each fig8 process spreads the set-up samples
    # across the window, so their median does not hang on the host's speed
    # at one moment.  The window counts fig8 processes only.  Every child is
    # scaled to reference host speed by the probes timed on either side.
    setup: List[float] = []
    runs: List[ChildRun] = []
    scaled_setup: List[float] = []
    scaled_walls: List[float] = []
    while len(setup) < SETUP_REPEATS or sum(run.wall_s for run in runs) < seconds:
        before = host_speed_probes()
        cold = run_child(
            [sys.executable, "-c", "import repro.experiments.cli"],
            cwd=tmp,
            timeout=CHILD_TIMEOUT_S,
        )
        between = host_speed_probes()
        if cold.returncode != 0:
            report.fail(f"cold import exited {cold.returncode}: {cold.stderr[-300:]}")
        setup.append(cold.wall_s)
        scaled_setup.append(at_reference_speed(cold.wall_s, *before, *between))
        if sum(run.wall_s for run in runs) < seconds:
            run = _fig8(tmp)
            _check(report, run, golden, "repro fig8")
            runs.append(run)
            scaled_walls.append(at_reference_speed(run.wall_s, *between, *host_speed_probes()))
    fig8_s = median(scaled_walls)
    report.metrics = {
        "setup_s": median(scaled_setup),
        "op_s": fig8_s,
        # Too few processes fit in a run to support any percentile past the
        # median with ten samples beyond it.
        "op_tail_s": fig8_s,
        "throughput_per_s": TRIO_CONV_LAYERS * len(scaled_walls) / sum(scaled_walls),
        "peak_rss_mb": median([run.maxrss_kb / 1024 for run in runs]),
    }
    report.aliases = {
        "setup_s": "cold import of repro.experiments.cli, at reference host speed",
        "op_s": "fig8_cold_s at reference host speed",
        "op_tail_s": "fig8_cold_s (median: too few samples for a tail)",
        "throughput_per_s": "trio conv layers simulated per second at reference host speed",
        "peak_rss_mb": "fig8_peak_rss_mb",
    }
    report.context["samples"] = len(runs)
    report.context["raw_fig8_s"] = [round(run.wall_s, 3) for run in runs]
    report.context["raw_setup_samples_s"] = [round(value, 3) for value in setup]
    _context(report, runs[-1].stdout)


def _traced(report: Report, seconds: float, golden: str, tmp: Path) -> None:
    from layers import module_metrics, traced_self_total, write_stage_table
    from tracer import SpanStats, Tracer

    import_total, import_scipy = import_times(tmp)
    plain: List[float] = []
    traced: List[Tuple[float, Dict]] = []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        run = _fig8(tmp)
        _check(report, run, golden, "repro fig8")
        plain.append(run.wall_s)
        out = tmp / "trace.json"
        child = run_child(
            [sys.executable, str(Path(__file__).resolve()), "--traced-child", str(out)],
            cwd=tmp,
            timeout=CHILD_TIMEOUT_S,
        )
        report.attempted += 1
        if child.returncode != 0:
            report.fail(f"traced fig8 exited {child.returncode}: {child.stderr[-300:]}")
            continue
        document = json.loads(out.read_text())
        if normalise(document["stdout"]) != golden:
            report.fail("traced fig8 printed tables that differ from the golden output")
        traced.append((child.wall_s, document))
    if not traced:
        return
    traced.sort(key=lambda item: item[0])
    wall, document = traced[len(traced) // 2]
    tracer = Tracer()
    tracer.stats = {name: SpanStats(*values) for name, values in document["stats"].items()}
    tracer.counters = document["counters"]
    metrics = module_metrics(tracer)
    metrics["import.total_s"] = import_total
    metrics["import.scipy_s"] = import_scipy
    unattributed = wall - document["import_s"] - traced_self_total(tracer)
    metrics["fig8.unattributed_s"] = unattributed
    metrics["trace.overhead_frac"] = median([w for w, _ in traced]) / median(plain) - 1.0
    report.metrics = metrics
    report.context["fig8.unattributed_share"] = unattributed / wall
    report.context["traced_process_s"] = wall
    table = WORK / "artifacts" / "fig8_layer_stage.csv"
    cells = {(label, stage): s for label, stage, s in document["cells"]}
    rows = write_stage_table(cells, table)
    report.context["layer_stage_table"] = f"{table.relative_to(WORK.parent)} ({rows} conv layers)"
    if document["missing"]:
        report.notes.append("not traced (absent from the program): " + ", ".join(document["missing"]))
    _context(report, document["stdout"])


def _traced_child(out: Path) -> int:
    from common import require_source

    started = time.perf_counter()
    require_source()
    import repro.experiments.cli as cli

    import_s = time.perf_counter() - started
    from layers import install
    from tracer import Tracer

    tracer = Tracer()
    install(tracer)
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        status = cli.main(["fig8"])
    tracer.unwrap_all()
    document = {
        "import_s": import_s,
        "stdout": buffer.getvalue(),
        "stats": {
            name: [s.calls, s.total_s, s.self_s, s.first_s]
            for name, s in tracer.stats.items()
        },
        "counters": tracer.counters,
        "cells": [[label, stage, s] for (label, stage), s in tracer.cells.items()],
        "missing": tracer.missing,
    }
    out.write_text(json.dumps(document))
    return status


if __name__ == "__main__":
    if len(sys.argv) == 3 and sys.argv[1] == "--traced-child":
        sys.exit(_traced_child(Path(sys.argv[2])))
    sys.exit("usage: fig8_cold.py --traced-child OUT (run the benchmark via run.py)")
