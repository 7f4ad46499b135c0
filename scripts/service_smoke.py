#!/usr/bin/env python3
"""Service smoke test: boot ``repro serve``, submit scenarios, check stats.

What CI runs to prove the service works as a real process, not just
in-process under pytest — in both worker modes:

1. boot ``python -m repro serve --port 0 --mode {thread|process}`` as a
   subprocess and read the bound ephemeral port from its "listening on"
   line (no probe-then-bind race on shared runners);
2. poll ``GET /healthz`` until the service answers (bounded wait);
3. submit one ``network`` scenario through :class:`ServiceClient`, wait,
   and verify the result JSON **round-trips** (parse → dump → parse is
   identical) and carries the expected fields;
4. resubmit the same scenario and require it to be served without a second
   simulation (the payload fast path or a warm engine cache);
5. optionally (``--burst N``) fire N concurrent duplicate submissions and
   require every one to return the bitwise-identical payload with the
   ``/stats`` counters accounting for the whole burst
   (``jobs_completed + coalesced + fast_path_hits == N``);
6. scrape ``GET /metrics``, require it to parse as Prometheus text with
   the key families present, and cross-check its counters against
   ``/stats`` (terminal jobs, fast-path hits, coalesced followers);
7. fetch the first job's ``GET /jobs/<id>/trace`` timeline, require its
   phases to tile to the total, and (``--trace-out PATH``) save it as a
   CI artifact;
8. shut the server down and fail loudly on any leftover error;
9. fail if any process of the server's session (it runs as a session
   leader, so process-mode workers, their engines' pool children and any
   orphan of theirs stay in it; read from Linux's ``/proc``) is still
   alive 5 s after the shutdown;
10. in process mode, where the server runs on a fresh temporary disk
    cache, boot a second server on the same cache root, repeat the first
    ``network`` job, and require the byte-identical payload and disk-tier
    cache hits on ``/metrics``: the restarted workers read the first
    server's rows.  Step 9 covers the second server too.

Exit status 0 on success; 1 with a diagnostic (and the server's output) on
any failure.

Usage::

    python scripts/service_smoke.py                     # thread mode
    python scripts/service_smoke.py --mode process --workers 2 --burst 8 \
        --trace-out trace-process.json
"""

from __future__ import annotations

import argparse
import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.obs import parse_prometheus_text  # noqa: E402
from repro.service import ServiceClient, ServiceError  # noqa: E402

BOOT_TIMEOUT_S = 30.0
JOB_TIMEOUT_S = 300.0
ORPHAN_GRACE_S = 5.0
#: The parameters of the first ``network`` job, which a restarted server
#: repeats.
FIRST_JOB = {"network": "alexnet", "seed": 0}
PROC = Path("/proc")


def session_processes(session: int) -> set:
    """``(pid, start time)`` of every running process in ``session``.

    Read from Linux's ``/proc``; empty where it is missing.  A process
    orphaned by its parent keeps its session, so this finds it after it
    is adopted elsewhere; the start time tells a reused pid apart.
    """
    found = set()
    if not PROC.is_dir():
        return found
    for entry in PROC.iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        # After the command name: state, ppid, pgrp, session, ..., and the
        # start time 19 fields on.
        fields = stat.rsplit(")", 1)[1].split()
        if fields[3] == str(session) and fields[0] not in ("Z", "X"):
            found.add((int(entry.name), fields[19]))
    return found


class SessionSampler:
    """Samples, in a thread, the processes of a server started as the
    leader of its own session: the server, its workers and their engines'
    pool children."""

    def __init__(self, session: int, interval: float = 0.02) -> None:
        self.session = session
        self.interval = interval
        self.seen = set()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self._stop.is_set():
            self.seen |= session_processes(self.session)
            self._stop.wait(self.interval)

    def start(self) -> None:
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=5)

    def survivors(self, grace_s: float) -> list:
        """Pids of the session still running after up to ``grace_s``; each
        is then SIGKILLed, so a failed check leaves nothing running."""
        deadline = time.monotonic() + grace_s
        while session_processes(self.session) and time.monotonic() < deadline:
            time.sleep(0.05)
        pids = sorted(pid for pid, _ in session_processes(self.session))
        for pid in pids:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        return pids


def read_server_url(process: subprocess.Popen) -> str:
    """The base URL from the server's ``listening on http://...`` line."""
    deadline = time.monotonic() + BOOT_TIMEOUT_S
    while time.monotonic() < deadline:
        line = process.stdout.readline()
        if not line:
            if process.poll() is not None:
                raise RuntimeError(
                    f"server exited early with code {process.returncode}"
                )
            time.sleep(0.05)
            continue
        match = re.search(r"listening on (http://\S+)", line)
        if match:
            return match.group(1)
    raise RuntimeError(f"no 'listening on' line after {BOOT_TIMEOUT_S:.0f}s")


def wait_for_health(client: ServiceClient, process: subprocess.Popen) -> None:
    """Poll ``/healthz`` until it answers ok (or the server dies)."""
    deadline = time.monotonic() + BOOT_TIMEOUT_S
    while time.monotonic() < deadline:
        if process.poll() is not None:
            raise RuntimeError(f"server exited early with code {process.returncode}")
        try:
            health = client.health()
        except ServiceError:
            time.sleep(0.1)
            continue
        if health.get("status") == "ok":
            return
    raise RuntimeError(f"/healthz not answering after {BOOT_TIMEOUT_S:.0f}s")


def duplicate_burst(client: ServiceClient, burst: int) -> None:
    """Fire ``burst`` concurrent duplicate submissions; verify dedup."""
    before = client.stats()

    def one(_):
        job_id = client.submit("network", {"network": "alexnet", "seed": 1})
        client.wait(job_id, timeout=JOB_TIMEOUT_S)
        return json.dumps(client.result(job_id), sort_keys=True)

    with ThreadPoolExecutor(max_workers=min(burst, 16)) as executor:
        payloads = list(executor.map(one, range(burst)))
    assert len(set(payloads)) == 1, "duplicate burst returned divergent payloads"

    after = client.stats()
    ran = after["workers"]["jobs_completed"] - before["workers"]["jobs_completed"]
    coalesced = after["service"]["coalesced"] - before["service"]["coalesced"]
    fast = after["service"]["fast_path_hits"] - before["service"]["fast_path_hits"]
    assert ran + coalesced + fast == burst, (
        f"burst of {burst} unaccounted for: "
        f"{ran} ran + {coalesced} coalesced + {fast} fast-path"
    )
    assert ran <= 1, f"duplicate burst ran {ran} simulations, expected at most 1"
    print(
        f"duplicate burst of {burst}: {ran} simulation(s) ran, "
        f"{coalesced} coalesced, {fast} fast-path hits, payloads identical"
    )


def sample(parsed: dict, family: str, name=None, **labels) -> float:
    """The value of one sample of a parsed ``/metrics`` family (0 if absent)."""
    wanted = name or family
    for sample_name, sample_labels, value in parsed[family]["samples"]:
        if sample_name == wanted and sample_labels == labels:
            return value
    return 0.0


def check_metrics(client: ServiceClient) -> None:
    """Scrape ``/metrics``; verify exposition validity and stats agreement."""
    parsed = parse_prometheus_text(client.metrics_text())  # raises if malformed

    required = (
        "repro_jobs_total",
        "repro_job_duration_seconds",
        "repro_queue_wait_seconds",
        "repro_queue_depth",
        "repro_submissions_total",
        "repro_fast_path_hits_total",
        "repro_coalesced_total",
        "repro_worker_restarts_total",
        "repro_engine_cache_requests_total",
        "repro_http_requests_total",
    )
    missing = [family for family in required if family not in parsed]
    assert not missing, f"/metrics missing families: {missing}"

    stats = client.stats()
    jobs_done = sample(parsed, "repro_jobs_total", outcome="done")
    assert jobs_done == stats["queue"]["jobs"]["done"], (
        f"metrics report {jobs_done} done jobs, "
        f"/stats reports {stats['queue']['jobs']['done']}"
    )
    fast = sample(parsed, "repro_fast_path_hits_total")
    assert fast == stats["service"]["fast_path_hits"], (
        f"metrics report {fast} fast-path hits, "
        f"/stats reports {stats['service']['fast_path_hits']}"
    )
    coalesced = sample(parsed, "repro_coalesced_total")
    assert coalesced == stats["service"]["coalesced"], (
        f"metrics report {coalesced} coalesced, "
        f"/stats reports {stats['service']['coalesced']}"
    )
    submissions = sum(
        value
        for name, _, value in parsed["repro_submissions_total"]["samples"]
        if name == "repro_submissions_total"
    )
    assert submissions == jobs_done, (
        f"{submissions} admitted submissions but {jobs_done} done jobs"
    )
    print(
        f"/metrics consistent with /stats: {int(jobs_done)} jobs done, "
        f"{int(fast)} fast-path, {int(coalesced)} coalesced, "
        f"{len(parsed)} families exported"
    )


def check_trace(client: ServiceClient, job_id: str, trace_out) -> None:
    """Fetch one job's timeline; verify tiling and optionally save it."""
    timeline = client.trace(job_id)
    assert timeline["complete"], timeline
    names = [span["name"] for span in timeline["spans"]]
    assert names == ["admission", "queue", "run"], names
    total = sum(span["duration_s"] for span in timeline["spans"])
    assert abs(total - timeline["duration_s"]) < 1e-3, (
        f"phases sum to {total:.6f}s but the timeline spans "
        f"{timeline['duration_s']:.6f}s"
    )
    children = timeline["spans"][-1].get("children", [])
    assert children, "run phase carries no engine/cache spans"
    if trace_out is not None:
        Path(trace_out).write_text(
            json.dumps(timeline, indent=2, sort_keys=True), encoding="utf-8"
        )
        print(f"trace timeline ({len(children)} run children) "
              f"saved to {trace_out}")
    else:
        print(f"trace timeline tiles: {len(names)} phases, "
              f"{len(children)} run children")


def exercise(client: ServiceClient, args) -> str:
    """Steps 3-7 against a healthy server; returns the first job's payload
    as sorted JSON."""
    scenarios = {entry["name"] for entry in client.scenarios()}
    assert "network" in scenarios, f"catalogue missing 'network': {scenarios}"
    assert client.health()["mode"] == args.mode

    first_job_id = client.submit("network", FIRST_JOB)
    client.wait(first_job_id, timeout=JOB_TIMEOUT_S)
    payload = client.result(first_job_id)
    assert payload["network"] == "AlexNet", payload.get("network")
    assert payload["network_speedup"] > 1.0
    assert len(payload["layers"]) == 5  # AlexNet's five conv layers

    # The result JSON must survive a full round-trip unchanged.
    first = json.dumps(payload, sort_keys=True)
    second = json.dumps(json.loads(first), sort_keys=True)
    assert first == second, "result JSON does not round-trip"
    print(f"network scenario done: speedup {payload['network_speedup']:.2f}x, "
          f"result round-trips ({len(first)} bytes)")

    repeat = client.run("network", FIRST_JOB, timeout=JOB_TIMEOUT_S)
    assert json.dumps(repeat, sort_keys=True) == first, (
        "resubmission diverged from the original payload"
    )
    stats = client.stats()
    served_warm = (
        stats["service"]["fast_path_hits"] + stats["engine"]["hits"]
    )
    assert served_warm > 0, (
        f"expected the resubmission to be served warm, stats: {stats}"
    )
    assert stats["workers"]["jobs_completed"] <= 1, (
        "resubmission cost a second simulation"
    )
    print(f"resubmission served warm: {stats['service']['fast_path_hits']} "
          f"fast-path hit(s), {stats['engine']['hits']} engine hit(s)")

    if args.burst > 0:
        duplicate_burst(client, args.burst)

    check_metrics(client)
    check_trace(client, first_job_id, args.trace_out)

    per_worker = client.stats()["workers"]["workers"]
    assert len(per_worker) == args.workers
    assert all(worker["alive"] for worker in per_worker), per_worker
    return first


def check_restart(client: ServiceClient, first: str) -> str:
    """Step 10: a server restarted on the first one's cache root answers
    the first job, byte for byte, from the rows its workers read back."""
    payload = client.run("network", FIRST_JOB, timeout=JOB_TIMEOUT_S)
    assert json.dumps(payload, sort_keys=True) == first, (
        "the restarted server's payload diverged from the first server's"
    )
    parsed = parse_prometheus_text(client.metrics_text())
    hits = sample(
        parsed, "repro_engine_cache_requests_total", tier="disk", outcome="hit"
    )
    assert hits > 0, "the restarted server's workers read no row from disk"
    print(f"restart on the same cache root: payload identical, "
          f"{int(hits)} disk-tier cache hit(s)")
    return first


def serve(args, cache_dir, drive):
    """Boot one server (steps 1-2), run ``drive(client)`` against it, shut
    it down (steps 8-9); ``drive``'s result, or ``None`` after a failure,
    which is reported."""
    environment = dict(os.environ)
    environment["PYTHONPATH"] = (
        f"{REPO_ROOT / 'src'}{os.pathsep}{environment.get('PYTHONPATH', '')}"
    ).rstrip(os.pathsep)
    command = [
        sys.executable, "-m", "repro", "serve",
        "--port", "0",
        "--workers", str(args.workers),
        "--mode", args.mode,
    ]
    if cache_dir is not None:
        command += ["--cache-dir", str(cache_dir)]
    process = subprocess.Popen(
        command,
        cwd=REPO_ROOT,
        env=environment,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        start_new_session=True,
    )
    sampler = SessionSampler(process.pid)
    sampler.start()
    result = None
    try:
        url = read_server_url(process)
        client = ServiceClient(url)
        wait_for_health(client, process)
        cache = f", disk cache {cache_dir}" if cache_dir is not None else ""
        print(f"server healthy at {url} ({args.workers} {args.mode} workers{cache})")
        result = drive(client)
    except Exception as error:  # noqa: BLE001 - report and fail the job
        print(f"service smoke test FAILED: {error}", file=sys.stderr)
    finally:
        # SIGTERM takes the server's clean-shutdown path (it stops the
        # worker tier, so process-mode children exit and release the
        # inherited stdout pipe).  Every read stays bounded anyway: an
        # orphaned child holding the pipe open must never hang CI.
        process.terminate()
        output = ""
        try:
            output, _ = process.communicate(timeout=15)
        except subprocess.TimeoutExpired:
            process.kill()
            try:
                output, _ = process.communicate(timeout=5)
            except subprocess.TimeoutExpired:
                output = "(server output unavailable: pipe still held open)"
        sampler.stop()
        if output:
            print("--- server output ---")
            print(output.rstrip())
    survivors = sampler.survivors(ORPHAN_GRACE_S)
    if survivors:
        print(
            f"service smoke test FAILED: processes {survivors} of the "
            f"server's session still run {ORPHAN_GRACE_S:.0f} s after "
            f"shutdown ({len(sampler.seen)} sampled while it ran)",
            file=sys.stderr,
        )
        return None
    print(
        f"no process outlived the server ({len(sampler.seen)} sampled in "
        f"its session while it ran: the server, workers, pool children)"
    )
    return result


def main(argv=None) -> int:
    """Boot the server subprocess, drive the phases, report pass/fail."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--mode", choices=("thread", "process"), default="thread",
        help="worker tier to boot the server with (default: thread)",
    )
    parser.add_argument(
        "--workers", type=int, default=2, help="worker count (default: 2)"
    )
    parser.add_argument(
        "--burst", type=int, default=0, metavar="N",
        help="also fire N concurrent duplicate submissions (default: off)",
    )
    parser.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="write the first job's /trace timeline JSON to PATH",
    )
    args = parser.parse_args(argv)

    if args.mode == "thread":
        if serve(args, None, lambda client: exercise(client, args)) is None:
            return 1
    else:
        with tempfile.TemporaryDirectory(prefix="repro-smoke-cache-") as cache_dir:
            first = serve(args, cache_dir, lambda client: exercise(client, args))
            if first is None:
                return 1
            if serve(args, cache_dir, lambda client: check_restart(client, first)) is None:
                return 1
    print("service smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
