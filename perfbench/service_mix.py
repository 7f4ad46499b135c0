"""Workload ``service-mix``: an open-loop request mix against ``repro serve``.

The server runs in its own process (``--mode process``, two forked engine
workers, a fresh on-disk cache).  One generator thread sends a seeded
schedule at a fixed rate whatever the server does, so a stall shows as
queueing; each job's latency runs from the time it was *due* to its
completion stamp.  The main thread polls completion with one ``GET /jobs``
per tick, not one request per job.

The mix is the only one in the benchmark where admission, coalescing, queue
wait, the fork boundary and the disk cache do work:

* distinct ``network`` jobs (AlexNet, GoogLeNet) and VGGNet ``layer`` jobs,
  each a fresh simulation;
* single-network ``fig8`` jobs that re-read a (network, seed) another job
  simulated a few seconds earlier: a disk-cache read beside the writes;
* about a quarter exact repeats of recent requests, answered by the fast
  path (finished) or coalesced onto the request in flight.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import re
import select
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple
from urllib.parse import urlsplit

from common import (
    WORK,
    Report,
    at_reference_speed,
    child_env,
    host_speed_probes,
    median,
    quantile,
    supports_percentile,
)

#: Offered load, jobs per second.  Two process workers saturated at 4.1
#: jobs/s on this mix on a 2-CPU x86_64 host while the host ran about 45%
#: slower than when idle, so this is 60-85% of capacity.  A 30 s window then
#: holds the 100 jobs a p90 with ten samples beyond it needs.
RATE_PER_S = 3.4
WORKERS = min(2, os.cpu_count() or 1)
#: Kinds of each block of twenty consecutive requests, heavy jobs spread
#: out.  The pattern is fixed so every seed offers the same load shape:
#: cheap answers (repeats, fig8 reads) stay below the median, which falls
#: among the VGGNet layer jobs, and the p90 falls among the GoogLeNet jobs.
BLOCK = (
    "googlenet", "layer", "fig8", "alexnet", "repeat",
    "layer", "repeat", "googlenet", "layer", "fig8",
    "alexnet", "repeat", "layer", "fig8", "googlenet",
    "layer", "repeat", "alexnet", "fig8", "layer",
)
#: VGGNet layers of one cost class (about 0.2 s each), visited in a seeded
#: order that covers each before any repeats.
VGG_LAYERS = ("conv4_2", "conv4_3", "conv5_1", "conv5_2", "conv5_3")
#: A fig8 job re-reads a network job due at least this much earlier.
READ_DELAY_S = 4.0
#: Repeats copy one of this many most recent distinct requests.
REPEAT_WINDOW = 10
SETUP_SPAWNS = 5
POLL_TICK_S = 0.1
DRAIN_TIMEOUT_S = 90.0
START_LEAD_S = 0.3
#: Distinct jobs recomputed in-process after the window, per kind.
RECOMPUTE_SAMPLE = (("network", 1), ("layer", 2), ("fig8", 1))


@dataclass(frozen=True)
class Request:
    """One scheduled submission."""

    index: int
    due_s: float
    kind: str  # "network" | "layer" | "fig8" | "repeat"
    scenario: str
    params: Dict[str, Any] = field(hash=False)
    #: The request a repeat copies, or the network job a fig8 job re-reads.
    ref: Optional[int] = None


def build_schedule(seed: int, rate: float, seconds: float) -> List[Request]:
    """The seeded request list: same seed, same requests."""
    rng = random.Random(seed)
    count = max(1, round(rate * seconds))
    kinds = [BLOCK[index % len(BLOCK)] for index in range(count)]
    layers: List[str] = []
    used_seeds = set()

    def next_layer() -> str:
        if not layers:
            layers.extend(rng.sample(VGG_LAYERS, len(VGG_LAYERS)))
        return layers.pop()

    def fresh_seed() -> int:
        while True:
            value = rng.randrange(1, 1_000_000)
            if value not in used_seeds:
                used_seeds.add(value)
                return value

    requests: List[Request] = []
    reread = set()
    for index, kind in enumerate(kinds):
        due = index / rate
        if kind == "fig8":
            eligible = [
                r.index for r in requests
                if r.kind == "network" and r.index not in reread
                and r.due_s <= due - READ_DELAY_S
            ]
            if eligible:
                ref = rng.choice(eligible)
                reread.add(ref)
                target = requests[ref].params
                requests.append(Request(index, due, "fig8", "fig8", {
                    "networks": [target["network"]], "seed": target["seed"]}, ref))
                continue
            kind = "layer"  # nothing old enough to re-read yet
        if kind == "repeat":
            distinct = [r for r in requests if r.kind != "repeat"][-REPEAT_WINDOW:]
            if distinct:
                original = rng.choice(distinct)
                requests.append(Request(index, due, "repeat", original.scenario,
                                        dict(original.params), original.index))
                continue
            kind = "layer"
        if kind == "layer":
            requests.append(Request(index, due, "layer", "layer", {
                "network": "vggnet", "layer": next_layer(), "seed": fresh_seed()}))
        else:
            requests.append(Request(index, due, "network", "network", {
                "network": kind, "seed": fresh_seed()}))
    return requests


def canonical(payload: Any) -> str:
    """Byte-comparable form of a JSON payload."""
    return json.dumps(payload, sort_keys=True)


def check_payloads(schedule: List[Request], payloads: Dict[int, Any]) -> List[Tuple[int, str]]:
    """Seed-independent gates on the answers; returns (request, problem) pairs.

    A repeat must be byte-identical to the answer of the request it copies;
    a fig8 read's network speedups must follow exactly from the SCNN, DCNN
    and oracle cycle totals of the network job it re-reads.
    """
    problems: List[Tuple[int, str]] = []
    for request in schedule:
        payload = payloads.get(request.index)
        if payload is None or request.ref is None or request.ref not in payloads:
            continue
        reference = payloads[request.ref]
        if request.kind == "repeat":
            if canonical(payload) != canonical(reference):
                problems.append((request.index, f"repeat differs from request {request.ref}"))
        elif request.kind == "fig8":
            totals = reference["total_cycles"]
            reports = list(payload["reports"].values())
            expected = (totals["DCNN"] / totals["SCNN"], totals["DCNN"] / totals["oracle"])
            if len(reports) != 1 or (
                reports[0]["network_speedup"], reports[0]["oracle_speedup"]
            ) != expected:
                problems.append((request.index, f"fig8 totals differ from network job {request.ref}"))
    return problems


# -- the server process --------------------------------------------------------------


def _http(url: str, method: str, path: str, body: Any = None, timeout: float = 30.0) -> Tuple[int, bytes]:
    parts = urlsplit(url)
    connection = http.client.HTTPConnection(parts.hostname, parts.port, timeout=timeout)
    try:
        data = json.dumps(body).encode() if body is not None else None
        headers = {"Content-Type": "application/json"} if data is not None else {}
        connection.request(method, path, body=data, headers=headers)
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


def _get_json(url: str, path: str) -> Any:
    status, body = _http(url, "GET", path)
    if status != 200:
        raise RuntimeError(f"GET {path} answered {status}")
    return json.loads(body)


class Server:
    """``repro serve`` in its own process; ``setup_s`` is spawn to first 200."""

    def __init__(self, tmp: Path, name: str) -> None:
        cache = tmp / f"cache-{name}"
        self._stderr = open(tmp / f"server-{name}.stderr", "wb")
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--mode", "process",
             "--workers", str(WORKERS), "--port", "0", "--cache-dir", str(cache)],
            cwd=tmp, env=child_env(), stdout=subprocess.PIPE, stderr=self._stderr,
        )
        self.worker_pids: List[int] = []
        try:
            self.url = self._read_url(start + 60.0)
            while True:
                try:
                    if _http(self.url, "GET", "/healthz", timeout=5.0)[0] == 200:
                        break
                except OSError:
                    pass
                if time.perf_counter() > start + 60.0:
                    raise RuntimeError("server never answered /healthz")
                time.sleep(0.005)
            self.setup_s = time.perf_counter() - start
            stats = _get_json(self.url, "/stats")
            self.worker_pids = [w["pid"] for w in stats["workers"]["workers"] if w.get("pid")]
        except BaseException:
            self.stop()
            raise

    def _read_url(self, deadline: float) -> str:
        line = b""
        while not line.endswith(b"\n"):
            remaining = deadline - time.perf_counter()
            if remaining <= 0 or self.proc.poll() is not None:
                raise RuntimeError(f"server did not start: {line!r}")
            ready, _, _ = select.select([self.proc.stdout], [], [], remaining)
            if ready:
                chunk = os.read(self.proc.stdout.fileno(), 1)
                if not chunk:
                    raise RuntimeError(f"server exited early: {line!r}")
                line += chunk
        match = re.search(rb"http://[0-9.]+:[0-9]+", line)
        if not match:
            raise RuntimeError(f"unexpected server banner: {line!r}")
        return match.group(0).decode()

    def peak_rss_mb(self) -> float:
        """Peak RSS (VmHWM) summed over the server and its workers.

        The sum, not the largest process, because which worker ran which
        job varies from run to run while their total does not.
        """
        peaks = []
        for pid in [self.proc.pid, *self.worker_pids]:
            try:
                status = Path(f"/proc/{pid}/status").read_text()
            except OSError:
                continue
            match = re.search(r"^VmHWM:\s+(\d+) kB", status, re.MULTILINE)
            if match:
                peaks.append(int(match.group(1)) / 1024)
        return sum(peaks)

    def stop(self) -> None:
        """SIGTERM (clean shutdown stops the workers), then make sure all ended."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=20.0)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._stderr.close()
        for pid in self.worker_pids:
            deadline = time.monotonic() + 10.0
            while _running(pid):
                if time.monotonic() > deadline:
                    os.kill(pid, signal.SIGKILL)
                    deadline = time.monotonic() + 10.0
                time.sleep(0.02)


def _running(pid: int) -> bool:
    """Whether ``pid`` is alive (a zombie awaiting its reaper counts as ended)."""
    try:
        state = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0]
    except (OSError, IndexError):
        return False
    return state != "Z"


# -- the open loop -----------------------------------------------------------------


@dataclass
class Sent:
    """What the generator observed for one request (monotonic seconds)."""

    request: Request
    due: float
    sent: float
    acked: float
    status: Optional[int]
    job_id: Optional[str] = None


def _generate(url: str, schedule: List[Request], t0: float, log: List[Sent]) -> None:
    for request in schedule:
        due = t0 + request.due_s
        delay = due - time.monotonic()
        if delay > 0:
            time.sleep(delay)
        sent = time.monotonic()
        try:
            status, body = _http(url, "POST", "/jobs",
                                 {"scenario": request.scenario, "params": request.params})
            job_id = json.loads(body).get("id") if status in (200, 202) else None
        except (OSError, ValueError):
            status, job_id = None, None
        log.append(Sent(request, due, sent, time.monotonic(), status, job_id))


def _open_loop(url: str, schedule: List[Request]) -> Tuple[List[Sent], Dict[str, dict], Dict[str, float]]:
    """Run the schedule; return sends, terminal job records, and observed times."""
    log: List[Sent] = []
    t0 = time.monotonic() + START_LEAD_S
    generator = threading.Thread(target=_generate, args=(url, schedule, t0, log), daemon=True)
    generator.start()
    terminal: Dict[str, dict] = {}
    observed: Dict[str, float] = {}
    deadline = t0 + schedule[-1].due_s + DRAIN_TIMEOUT_S
    while True:
        time.sleep(POLL_TICK_S)
        records = json.loads(_http(url, "GET", "/jobs")[1])["jobs"]
        now = time.monotonic()
        for record in records:
            if record["state"] in ("done", "failed", "cancelled") and record["id"] not in terminal:
                terminal[record["id"]] = record
                observed[record["id"]] = now
        if not generator.is_alive():
            pending = [s for s in log if s.job_id and s.job_id not in terminal]
            if not pending or now > deadline:
                break
        elif now > deadline:
            break
    generator.join(timeout=30.0)
    return list(log), terminal, observed


# -- the run -------------------------------------------------------------------------


def run(seconds: float, seed: int, traced: bool) -> Report:
    """Measure the workload for ``seconds`` of offered load."""
    report = Report("service-mix", traced)
    tmp = WORK / f"service-mix-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    schedule = build_schedule(seed, RATE_PER_S, seconds)
    server: Optional[Server] = None
    try:
        setups = []
        for spawn in range(SETUP_SPAWNS):
            before = host_speed_probes()
            server = Server(tmp, str(spawn))
            setups.append(at_reference_speed(server.setup_s, *before, *host_speed_probes()))
            if spawn + 1 < SETUP_SPAWNS:
                server.stop()
                server = None
        log, terminal, observed = _open_loop(server.url, schedule)
        peak_rss = server.peak_rss_mb()
        latencies, payloads = _settle(report, server.url, log, terminal, observed)
        for index, problem in check_payloads(schedule, payloads):
            report.fail(f"request {index}: {problem}")
        _recompute_sample(report, schedule, payloads, seed)
        lags = [s.sent - s.due for s in log]
        lag_p90 = quantile(lags, 0.9)
        if lag_p90 > 1.0 / RATE_PER_S:
            report.problems.append(
                f"invalid run: the generator fell behind (lag p90 {lag_p90:.3f} s)")
        if traced:
            from fig8_cold import import_times

            report.metrics = _per_layer(server.url, log, terminal, lag_p90)
            # `repro serve` starts through the same CLI module.
            report.metrics["import.total_s"], report.metrics["import.scipy_s"] = import_times(tmp)
        else:
            _end_to_end(report, setups, log, terminal, latencies, peak_rss)
    finally:
        if server is not None:
            server.stop()
        shutil.rmtree(tmp, ignore_errors=True)
    return report


def _settle(report, url, log, terminal, observed) -> Tuple[List[float], Dict[int, Any]]:
    """Latency of every completed job, and every answer, by request index."""
    latencies: List[float] = []
    payloads: Dict[int, Any] = {}
    for sent in log:
        report.attempted += 1
        record = terminal.get(sent.job_id) if sent.job_id else None
        if record is None or record["state"] != "done":
            state = record["state"] if record else f"HTTP {sent.status}, never finished"
            report.fail(f"request {sent.request.index} ({sent.request.scenario}): {state}")
            continue
        finished = record.get("finished_mono")
        # The server stamps completion on the same monotonic clock; fall back
        # to the poll that observed it if the stamp is not on this clock.
        if finished is None or not sent.due - 1.0 <= finished <= observed[sent.job_id] + 1.0:
            finished = observed[sent.job_id]
        latencies.append(finished - sent.due)
        status, body = _http(url, "GET", f"/results/{sent.job_id}")
        if status != 200:
            report.fail(f"request {sent.request.index}: result answered {status}")
            continue
        payloads[sent.request.index] = json.loads(body)["result"]
    return latencies, payloads


def _recompute_sample(report: Report, schedule: List[Request], payloads: Dict[int, Any], seed: int) -> None:
    """Recompute a seeded sample of distinct jobs in-process; answers must match."""
    from repro.engine import SimulationEngine
    from repro.service.scenarios import default_registry

    rng = random.Random(seed + 1)
    registry = default_registry()
    engine = SimulationEngine(cache_dir=False)
    for kind, count in RECOMPUTE_SAMPLE:
        candidates = [r for r in schedule if r.kind == kind and r.index in payloads]
        for request in rng.sample(candidates, min(count, len(candidates))):
            local = registry.get(request.scenario).run(engine, dict(request.params))
            if canonical(json.loads(json.dumps(local))) != canonical(payloads[request.index]):
                report.fail(f"request {request.index}: served answer differs from in-process recompute")


def _end_to_end(report, setups, log, terminal, latencies, peak_rss) -> None:
    if not latencies:
        return
    if not supports_percentile(len(latencies), 90):
        report.notes.append(f"only {len(latencies)} jobs: p90 has fewer than 10 samples beyond it")
    finished = [terminal[s.job_id]["finished_mono"] for s in log if s.job_id in terminal]
    span = max(finished) - min(s.due for s in log)
    report.metrics = {
        "setup_s": median(setups),
        "op_s": quantile(latencies, 0.5),
        "op_tail_s": quantile(latencies, 0.9),
        "throughput_per_s": len(latencies) / span,
        "peak_rss_mb": peak_rss,
    }
    report.aliases = {
        "setup_s": "server spawn to first 200 on /healthz, at reference host speed",
        "op_s": "job_p50_s",
        "op_tail_s": "job_p90_s",
        "throughput_per_s": "jobs_per_s",
        "peak_rss_mb": "server and workers, summed",
    }
    report.context["samples"] = len(latencies)
    report.context["setup_samples_s"] = [round(value, 3) for value in setups]
    report.context["offered_rate_per_s"] = RATE_PER_S


def _per_layer(url, log, terminal, lag_p90) -> Dict[str, float]:
    """Per-module metrics from the service's own endpoints, read after the run."""
    queue, runs, admission = [], [], [s.acked - s.sent for s in log]
    cache_get = cache_put = 0.0
    for sent in log:
        if sent.job_id not in terminal:
            continue
        spans = _get_json(url, f"/jobs/{sent.job_id}/trace")["spans"]
        ran = any(span["name"] == "run" for span in spans)
        for span in spans:
            if span["name"] == "run":
                runs.append(span["duration_s"])
                for child in span.get("children", []):
                    if child["name"] == "cache.get":
                        cache_get += child["duration_s"]
                    elif child["name"] == "cache.put":
                        cache_put += child["duration_s"]
            elif span["name"] == "queue" and ran:
                # Fast-path and coalesced jobs never wait for a worker.
                queue.append(span["duration_s"])
    stats = _get_json(url, "/stats")
    hits = requests = 0.0
    _, body = _http(url, "GET", "/metrics")
    for line in body.decode().splitlines():
        if line.startswith("repro_engine_cache_requests_total{"):
            value = float(line.rsplit(" ", 1)[1])
            requests += value
            if 'outcome="hit"' in line:
                hits += value
    repeats = sum(1 for s in log if s.request.kind == "repeat")
    return {
        "service.admission_p50_s": median(admission),
        "service.queue_wait_p50_s": median(queue) if queue else 0.0,
        "service.queue_wait_p90_s": quantile(queue, 0.9) if queue else 0.0,
        "service.run_p50_s": median(runs) if runs else 0.0,
        "engine.cache.get_s": cache_get,
        "engine.cache.put_s": cache_put,
        "engine.cache.hit_ratio": hits / requests if requests else 0.0,
        "service.fast_path_ratio": stats["service"]["fast_path_hits"] / repeats if repeats else 0.0,
        "service.coalesced": float(stats["service"]["coalesced"]),
        "service.worker_restarts": float(sum(w.get("restarts", 0) for w in stats["workers"]["workers"])),
        "loadgen.lag_p90_s": lag_p90,
        # Traces are read after the window, so tracing costs the run nothing.
        "trace.overhead_frac": 0.0,
    }
