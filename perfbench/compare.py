"""Compare two sets of saved results, e.g. a parent commit's and a change's.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds the records ``run.py`` saves under ``.perfbench/results``
(copy them aside between commits).  Results are only comparable when taken
on the same machine and numeric stack: the command refuses (exit 2) when the
environment stamps differ, since scipy's presence alone changes the grid's
output bits.  For every workload and metric it prints both medians, the
change, and the base's own spread; a metric worse than its bound is a
regression (exit 1), and one whose base spread exceeds its bound is
unresolved.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import List, Sequence

from common import load_benchmark_spec, median, quantile

ENVIRONMENT_KEYS = ("cpu_count", "machine", "python", "numpy", "scipy")


def _load(directory: Path) -> List[dict]:
    return [json.loads(path.read_text()) for path in sorted(directory.glob("*.json"))]


def _values(records: List[dict], workload: str, trace: int, metric: str) -> List[float]:
    return [
        r["metrics"][metric]["value"]
        for r in records
        if r["workload"] == workload and r["trace"] == trace and r["correct"]
        and metric in r["metrics"]
    ]


def main(argv: Sequence[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    base, new = _load(Path(argv[0])), _load(Path(argv[1]))
    stamps = {tuple(r["stamp"].get(key) for key in ENVIRONMENT_KEYS) for r in base + new}
    if len(stamps) > 1:
        print("refusing to compare results from different environments:", file=sys.stderr)
        for stamp in sorted(stamps, key=str):
            print("  " + ", ".join(f"{k}={v}" for k, v in zip(ENVIRONMENT_KEYS, stamp)),
                  file=sys.stderr)
        return 2
    spec = load_benchmark_spec()
    regressions = 0
    for trace, metrics in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
        for workload in sorted({r["workload"] for r in base if r["trace"] == trace}):
            print(f"== {workload} ({'per-module' if trace else 'end-to-end'}) ==")
            for metric in metrics:
                old = _values(base, workload, trace, metric["name"])
                now = _values(new, workload, trace, metric["name"])
                if not old or not now or median(old) == 0:
                    continue
                change = median(now) / median(old) - 1.0
                worse = change if metric["better"] == "lower" else -change
                spread = (quantile(old, 0.75) - quantile(old, 0.25)) / median(old)
                verdict = ""
                bound = metric.get("bound")
                if bound is not None:
                    if worse > bound:
                        verdict = "REGRESSION"
                        regressions += 1
                    elif spread > bound:
                        verdict = "unresolved"
                print(f"  {metric['name']:34s} {median(old):12.6g} -> {median(now):12.6g} "
                      f"{metric['unit']:6s} {change:+7.1%}  (base spread {spread:.1%}, "
                      f"n={len(old)}/{len(now)}) {verdict}")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
