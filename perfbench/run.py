"""Benchmark entry point.

    python3 perfbench/run.py --workload fig8-cold --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py              # every workload, untraced then traced

One run measures one workload for ``--seconds`` and prints its metrics by
name with their units, then, as the last line, one JSON object::

    {"correct": true, "attempted": 5, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json`` (the
benchmark's own tracing off); ``--trace 1`` is a separate traced run that
reports the per-module metrics.  A module a workload does not exercise
reads 0.  Every run also saves its record, stamped with the environment,
under ``.perfbench/results/`` (compare two sets with ``compare.py``).  The
exit status is non-zero when a correctness gate failed.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from typing import List, Optional, Sequence

from common import (
    WORK,
    Report,
    SourceMissing,
    load_benchmark_spec,
    pin_environment,
    require_source,
    stamp,
)

WORKLOADS = ("fig8-cold", "service-mix", "grid-sweep")


def _runner(workload: str):
    if workload == "fig8-cold":
        from fig8_cold import run
    elif workload == "service-mix":
        from service_mix import run
    else:
        from grid_sweep import run
    return run


def _print_report(report: Report, seed: int, seconds: float, units: dict, identity: dict) -> None:
    kind = "per-module metrics, traced" if report.traced else "end-to-end metrics, tracing off"
    print(f"== {report.workload}: {kind} (seed {seed}, {seconds:g} s) ==")
    print("stamp: " + " ".join(f"{key}={value}" for key, value in identity.items()))
    for name, value in report.metrics.items():
        alias = report.aliases.get(name)
        suffix = f"   [{alias}]" if alias else ""
        print(f"  {name:34s} {value:>14.6g} {units[name]}{suffix}")
    for key, value in report.context.items():
        print(f"  context: {key} = {value}")
    for note in report.notes:
        print(f"  note: {note}")
    for problem in report.problems:
        print(f"  FAILED: {problem}")
    share = report.failed / report.attempted if report.attempted else 0.0
    print(f"  attempted {report.attempted}, failed {report.failed} (failed_frac {share:g})")


def run_one(workload: str, seed: int, seconds: float, traced: bool) -> int:
    try:
        require_source()
    except SourceMissing as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    spec = load_benchmark_spec()
    declared = spec["per_layer"] if traced else spec["end_to_end"]
    units = {entry["name"]: entry["unit"] for entry in declared}
    report = _runner(workload)(seconds, seed, traced)
    if traced:
        # A module this workload never calls did no work: it reads 0.
        report.metrics = {name: float(report.metrics.get(name, 0.0)) for name in units}
    identity = stamp()
    missing = [name for name in units if name not in report.metrics]
    if missing:
        report.problems.append(f"measured no {', '.join(missing)}")
        _print_report(report, seed, seconds, units, identity)
        return 1
    report.metrics = {name: report.metrics[name] for name in units}
    _print_report(report, seed, seconds, units, identity)
    record = {
        "correct": report.correct,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in report.metrics.items()},
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    saved = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(traced),
             "stamp": identity, "context": report.context, **record}
    (results / f"{workload}-trace{int(traced)}-seed{seed}.json").write_text(
        json.dumps(saved, indent=2, sort_keys=True))
    print(json.dumps(record))
    return 0 if report.correct else 1


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced then traced, each in its own process."""
    status = 0
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            child = subprocess.run([sys.executable, __file__, "--workload", workload,
                                    "--seed", str(seed), "--seconds", str(seconds),
                                    "--trace", trace])
            status = status or child.returncode
    return status


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="Run the SCNN reproduction benchmark.")
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measurement window (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    pin_environment()
    seconds = args.seconds
    if seconds is None:
        try:
            seconds = float(load_benchmark_spec()["run_seconds"])
        except OSError as error:
            print(f"perfbench: {error}", file=sys.stderr)
            return 2
    if args.workload == "all":
        return run_all(args.seed, seconds)
    return run_one(args.workload, args.seed, seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
