"""Plumbing shared by the benchmark workloads.

Paths of the checkout, summary statistics, the environment stamp, child
processes timed with their peak RSS, and the result record every run prints
and saves.  Standard library only: the benchmark must start (and fail
cleanly) before the code under test is importable.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space inside the checkout (temp dirs, artifacts, saved results).
WORK = ROOT / ".perfbench"

#: Environment variables that would silently change what the program under
#: test does (shared on-disk cache, engine sharding); children never inherit
#: them.
_SCRUBBED_ENV = ("REPRO_CACHE_DIR", "REPRO_PARALLEL")
#: One BLAS thread per process.  On a 2-CPU host the default thread pool
#: spin-waits against the other processes and made the wall time of one
#: cold ``repro fig8`` vary by 15% run to run (3 % with one thread, at the
#: same median).
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


def pin_environment() -> None:
    """Apply :data:`PINNED_ENV` to this process (before numpy is imported)."""
    os.environ.update(PINNED_ENV)


class SourceMissing(RuntimeError):
    """The checkout holds no ``src/repro`` package to benchmark."""


def require_source() -> None:
    """Make ``src/`` importable, or raise when the checkout has no program.

    The benchmark must measure the program in this checkout, never an
    installed copy, so ``src/`` goes first on ``sys.path`` and the imported
    package's location is checked.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SourceMissing(f"no program to benchmark: {SRC / 'repro'} is missing")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        raise SourceMissing(f"imported repro from {repro.__file__}, not {SRC}")


def child_env() -> Dict[str, str]:
    """Environment for child Python processes: this checkout's ``src`` only."""
    env = {k: v for k, v in os.environ.items() if k not in _SCRUBBED_ENV}
    env["PYTHONPATH"] = str(SRC)
    return env


# -- statistics -------------------------------------------------------------------


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation quantile (numpy's default), ``0 <= q <= 1``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("quantile of no values")
    position = q * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values: Sequence[float]) -> float:
    """The 0.5 quantile."""
    return quantile(values, 0.5)


def supports_percentile(samples: int, percentile: float) -> bool:
    """Whether ``samples`` leave at least ten beyond ``percentile``.

    A tail percentile is only reported when at least ten samples lie beyond
    it; with fewer, one outlier decides the value.
    """
    return samples * (100.0 - percentile) / 100.0 >= 10.0


# -- host speed -------------------------------------------------------------------

#: Iterations of :func:`host_speed_probe`.
PROBE_ITERATIONS = 60_000
#: Probes :func:`host_speed_probes` times in a row.
PROBES_PER_POINT = 4
#: The probe's time on a fast spell of the 2-CPU x86_64 host the benchmark
#: was tuned on; a time scaled by ``PROBE_REFERENCE_S / probe`` reads in
#: seconds at that speed.
PROBE_REFERENCE_S = 0.005


def host_speed_probe() -> float:
    """Seconds a fixed pure-Python loop takes right now.

    The loop is the benchmark's own code, so no change to the program under
    test moves it; only the host's speed does.
    """
    began = time.perf_counter()
    total, table = 0, {}
    for i in range(PROBE_ITERATIONS):
        total += i * i
        table[i & 255] = total
    return time.perf_counter() - began


def host_speed_probes() -> List[float]:
    """Several probes in a row: one 5 ms probe is noisy beside a child process."""
    return [host_speed_probe() for _ in range(PROBES_PER_POINT)]


def at_reference_speed(seconds: float, *probes: float) -> float:
    """``seconds`` of host time scaled by the mean of ``probes`` timed around it.

    On a shared 2-CPU host all work (pure Python, numpy, child processes)
    slows by up to ~1.5x for seconds to minutes at a time, with no steal
    time, so raw times drift with the host between runs.
    """
    return seconds * PROBE_REFERENCE_S * len(probes) / sum(probes)


# -- the environment stamp --------------------------------------------------------


def _code_identity() -> str:
    """The git sha when the checkout is a repository, else a digest of ``src``."""
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=ROOT,
                capture_output=True,
                text=True,
                timeout=10,
            )
        except (OSError, subprocess.TimeoutExpired):
            sha = None
    if sha is not None and sha.returncode == 0 and sha.stdout.strip():
        return "git:" + sha.stdout.strip()
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def environment_stamp() -> Dict[str, object]:
    """What a result depends on besides the code: machine and numeric stack.

    scipy's presence changes the analytical grid's output bits, so results
    from environments that differ here are not comparable.
    """
    import numpy

    try:
        import scipy

        scipy_version: Optional[str] = scipy.__version__
    except ImportError:
        scipy_version = None
    return {
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
    }


def stamp() -> Dict[str, object]:
    """The environment stamp plus the identity of the code measured."""
    return {**environment_stamp(), "code": _code_identity()}


# -- child processes --------------------------------------------------------------


@dataclass
class ChildRun:
    """One finished child process."""

    wall_s: float
    returncode: int
    maxrss_kb: int
    stdout: str
    stderr: str


def run_child(argv: Sequence[str], *, cwd: Path, timeout: float) -> ChildRun:
    """Run ``argv`` to completion; wall time from spawn to reap, peak RSS.

    The child is reaped with ``os.wait4`` so its own resource usage (not the
    running maximum over every child) gives the peak RSS.  Output goes to
    files in ``cwd`` so a chatty child can never block on a full pipe.
    """
    cwd.mkdir(parents=True, exist_ok=True)
    out_path, err_path = cwd / "child.stdout", cwd / "child.stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            list(argv), cwd=cwd, env=child_env(), stdout=out, stderr=err
        )
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildRun(
        wall_s=wall,
        returncode=proc.returncode,
        maxrss_kb=usage.ru_maxrss,
        stdout=out_path.read_text(errors="replace"),
        stderr=err_path.read_text(errors="replace"),
    )


# -- the result record ------------------------------------------------------------


@dataclass
class Report:
    """What one workload run measured.

    ``metrics`` holds every metric of the requested kind (end-to-end when
    untraced, per-layer when traced), keyed by its ``BENCHMARK.json`` name.
    ``aliases`` maps a metric to the workload-specific name it stands for
    (``op_s`` is ``job_p50_s`` on the service mix), for the printout.
    """

    workload: str
    traced: bool
    attempted: int = 0
    failed: int = 0
    metrics: Dict[str, float] = field(default_factory=dict)
    aliases: Dict[str, str] = field(default_factory=dict)
    context: Dict[str, object] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)
    problems: List[str] = field(default_factory=list)

    def fail(self, problem: str) -> None:
        """Record a correctness-gate failure (counted in ``failed``)."""
        self.failed += 1
        self.problems.append(problem)

    @property
    def correct(self) -> bool:
        return not self.problems and self.attempted > 0


def load_benchmark_spec() -> Dict[str, object]:
    """``BENCHMARK.json`` at the checkout root: the metric names and units."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())
