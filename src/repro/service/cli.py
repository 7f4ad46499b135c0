"""``repro serve``, ``repro submit`` and ``repro stats`` — the service CLI.

``repro serve`` boots the HTTP service in the foreground on one warm
engine; ``repro submit`` is a thin :class:`~repro.service.client.ServiceClient`
wrapper that submits a scenario, waits, and prints the result JSON;
``repro stats`` prints a running service's counters once or continuously::

    repro serve --port 8000 --workers 4 --cache-dir ~/.cache/repro-scnn
    repro submit network --param network=alexnet
    repro submit fig8 --param networks=alexnet,googlenet --url http://host:8000
    repro stats --watch --interval 2

``--param key=value`` values are parsed as JSON when possible (``seed=3``
is the integer 3, ``include_baseline=false`` a boolean) and fall back to
plain strings (``network=alexnet``).  ``repro serve --log-level info``
widens the structured JSON event log (warnings-and-up by default) and
``--log-file`` redirects it from stderr to a file.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Dict, Optional, Sequence

from repro.service.client import JobFailedError, ServiceClient, ServiceError

DEFAULT_PORT = 8000


def build_serve_parser() -> argparse.ArgumentParser:
    """The argument parser behind ``repro serve``."""
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="Serve simulations over HTTP from one warm engine.",
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument(
        "--port", type=int, default=DEFAULT_PORT, help="bind port (0 = ephemeral)"
    )
    parser.add_argument(
        "--workers", type=int, default=2, metavar="N",
        help="workers draining the job queue (default: 2)",
    )
    parser.add_argument(
        "--mode", choices=("thread", "process"), default="thread",
        help="worker tier: 'thread' = N threads on one warm engine; "
        "'process' = N forked engine processes sharing the on-disk cache "
        "(default: thread)",
    )
    parser.add_argument(
        "--max-queue-depth", type=int, default=None, metavar="N",
        help="bound the queue; submissions beyond it get 429 + Retry-After "
        "(default: unbounded)",
    )
    parser.add_argument(
        "--no-fast-path", action="store_true",
        help="disable the HTTP-layer payload cache (repeat submissions "
        "re-enter the queue instead of answering instantly)",
    )
    parser.add_argument(
        "--parallel", type=int, default=None, metavar="N",
        help="engine process-pool size per simulation in thread mode "
        "(-1 = one per usable CPU; default: serial)",
    )
    parser.add_argument(
        "--cache-dir", default=None, metavar="PATH",
        help="content-addressed result cache root "
        "(default: $REPRO_CACHE_DIR if set, else no on-disk cache)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="disable the on-disk result cache even if $REPRO_CACHE_DIR is set",
    )
    parser.add_argument(
        "--cache-max-entries", type=int, default=None, metavar="N",
        help="bound the on-disk cache to N entries with LRU eviction",
    )
    parser.add_argument(
        "--memory-max-entries", type=int, default=512, metavar="N",
        help="bound the engine's in-memory memo table to N entries, LRU "
        "(0 = unbounded; default: 512 — a long-lived service must not "
        "grow per distinct request)",
    )
    parser.add_argument(
        "--journal-dir", default=None, metavar="PATH",
        help="persist job records here; queued/running jobs resume on restart",
    )
    parser.add_argument(
        "--verbose", action="store_true", help="log every HTTP request"
    )
    parser.add_argument(
        "--log-level", choices=("debug", "info", "warning", "error"),
        default="warning",
        help="threshold for structured JSON log events (default: warning)",
    )
    parser.add_argument(
        "--log-file", default=None, metavar="PATH",
        help="append structured JSON log events here instead of stderr",
    )
    parser.add_argument(
        "--no-obs", action="store_true",
        help="leave the metrics registry and tracer disabled (/metrics and "
        "/jobs/<id>/trace serve empty data)",
    )
    return parser


def serve_main(argv: Optional[Sequence[str]] = None) -> int:
    """Boot the HTTP service in the foreground (the ``repro serve`` command)."""
    import signal

    from repro.engine import SimulationEngine
    from repro.service.server import create_server

    from repro import obs

    args = build_serve_parser().parse_args(argv)
    obs.configure_logging(args.log_level, log_file=args.log_file)
    cache_dir = False if args.no_cache else args.cache_dir
    engine = SimulationEngine(
        cache_dir=cache_dir,
        parallel=args.parallel,
        cache_max_entries=args.cache_max_entries,
        memory_max_entries=args.memory_max_entries or None,
    )
    server = create_server(
        host=args.host,
        port=args.port,
        engine=engine,
        num_workers=args.workers,
        journal_dir=args.journal_dir,
        mode=args.mode,
        max_queue_depth=args.max_queue_depth,
        fast_path=not args.no_fast_path,
        verbose=args.verbose,
        observability=not args.no_obs,
    )
    print(
        f"repro service listening on {server.url} "
        f"({args.workers} {args.mode} workers; scenarios: "
        f"{', '.join(server.service.registry.names())})",
        flush=True,
    )
    # SIGTERM must take the same clean-shutdown path as Ctrl-C: in process
    # mode the worker tier is real child processes, and dying without
    # stopping them would orphan children that keep inherited file
    # descriptors (sockets, pipes to a supervising parent) open.
    def _on_sigterm(signum, frame):
        raise KeyboardInterrupt

    previous_handler = signal.signal(signal.SIGTERM, _on_sigterm)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("shutting down", file=sys.stderr)
    finally:
        signal.signal(signal.SIGTERM, previous_handler)
    return 0


def build_submit_parser() -> argparse.ArgumentParser:
    """The argument parser behind ``repro submit``."""
    parser = argparse.ArgumentParser(
        prog="repro submit",
        description="Submit one scenario to a running repro service.",
    )
    parser.add_argument("scenario", help="scenario name (see GET /scenarios)")
    parser.add_argument(
        "--param", action="append", default=[], metavar="KEY=VALUE",
        help="scenario parameter (repeatable); values parse as JSON, "
        "falling back to plain strings",
    )
    parser.add_argument(
        "--network", default=None, metavar="NAME",
        help="shorthand for --param network=NAME — or networks=[NAME] when "
        "the scenario declares the plural form (any registered workload; "
        "see `repro workloads --list`)",
    )
    parser.add_argument(
        "--density-profile", default=None, metavar="NAME",
        help="shorthand for --param density_profile=NAME (see "
        "`repro workloads --profiles`)",
    )
    parser.add_argument(
        "--url", default=f"http://127.0.0.1:{DEFAULT_PORT}",
        help=f"service base URL (default: http://127.0.0.1:{DEFAULT_PORT})",
    )
    parser.add_argument("--priority", type=int, default=0)
    parser.add_argument(
        "--timeout", type=float, default=600.0,
        help="seconds to wait for the result (default: 600)",
    )
    parser.add_argument(
        "--no-wait", action="store_true",
        help="print the job id immediately instead of waiting for the result",
    )
    return parser


def parse_params(pairs: Sequence[str]) -> Dict[str, Any]:
    """``KEY=VALUE`` pairs to a params dict, JSON-decoding each value."""
    params: Dict[str, Any] = {}
    for pair in pairs:
        key, separator, raw = pair.partition("=")
        if not separator or not key:
            raise ValueError(f"--param expects KEY=VALUE, got {pair!r}")
        try:
            params[key] = json.loads(raw)
        except ValueError:
            params[key] = raw
    return params


def network_param_key(scenario_description: Optional[Dict[str, Any]]) -> str:
    """Which parameter the ``--network`` shorthand should populate.

    ``network`` when the scenario declares it (or when the schema is
    unavailable), ``networks`` for plural-only scenarios like ``compare`` /
    ``fig8`` / ``fig10`` — so one shorthand works across the catalogue.
    """
    if scenario_description:
        declared = {
            parameter["name"]
            for parameter in scenario_description.get("parameters", [])
        }
        if "network" not in declared and "networks" in declared:
            return "networks"
    return "network"


def submit_main(argv: Optional[Sequence[str]] = None) -> int:
    """Submit one scenario and print its result (``repro submit``)."""
    args = build_submit_parser().parse_args(argv)
    try:
        params = parse_params(args.param)
    except ValueError as error:
        print(str(error), file=sys.stderr)
        return 2
    client = ServiceClient(args.url)
    shorthands: Dict[str, Any] = {}
    if args.network is not None:
        try:
            catalogue = {entry["name"]: entry for entry in client.scenarios()}
        except (ServiceError, OSError):
            catalogue = {}  # unreachable service: submit will report it
        key = network_param_key(catalogue.get(args.scenario))
        shorthands[key] = args.network if key == "network" else [args.network]
    if args.density_profile is not None:
        shorthands["density_profile"] = args.density_profile
    for key, value in shorthands.items():
        if key in params:
            # Contradictory input must fail loudly, not silently pick one.
            flag = "--network" if key in ("network", "networks") else f"--{key.replace('_', '-')}"
            print(
                f"{flag} conflicts with --param {key}=...; "
                "pass one or the other",
                file=sys.stderr,
            )
            return 2
        params[key] = value
    try:
        job_id = client.submit(args.scenario, params, priority=args.priority)
        if args.no_wait:
            print(job_id)
            return 0
        client.wait(job_id, timeout=args.timeout)
        print(json.dumps(client.result(job_id), indent=2, sort_keys=True))
    except BrokenPipeError:
        # Downstream pipe (e.g. `| head`) closed early: not an error, but
        # stdout must be detached before the interpreter's exit flush.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except JobFailedError as error:
        print(f"job failed ({error.state}): {error}", file=sys.stderr)
        if error.detail:
            print(error.detail, file=sys.stderr)
        return 1
    except (ServiceError, TimeoutError) as error:
        print(str(error), file=sys.stderr)
        return 1
    return 0


def build_stats_parser() -> argparse.ArgumentParser:
    """The argument parser behind ``repro stats``."""
    parser = argparse.ArgumentParser(
        prog="repro stats",
        description="Show a running repro service's live counters.",
    )
    parser.add_argument(
        "--url", default=f"http://127.0.0.1:{DEFAULT_PORT}",
        help=f"service base URL (default: http://127.0.0.1:{DEFAULT_PORT})",
    )
    parser.add_argument(
        "--watch", action="store_true",
        help="refresh continuously until interrupted",
    )
    parser.add_argument(
        "--interval", type=float, default=2.0, metavar="SECONDS",
        help="refresh period with --watch (default: 2)",
    )
    parser.add_argument(
        "--metrics", action="store_true",
        help="print the raw Prometheus /metrics text instead of the summary",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="print the raw /stats JSON instead of the summary",
    )
    return parser


def _stats_summary(stats: Dict[str, Any]) -> str:
    """One human-readable block from a ``/stats`` document."""
    engine = stats.get("engine", {})
    queue = stats.get("queue", {})
    workers = stats.get("workers", {})
    service = stats.get("service", {})
    jobs = queue.get("jobs", {})
    lines = [
        f"mode:      {service.get('mode', '?')} x {workers.get('num_workers', '?')} workers"
        f" ({workers.get('busy_workers', 0)} busy)",
        f"queue:     depth {queue.get('depth', 0)}"
        f" | done {jobs.get('done', 0)} | failed {jobs.get('failed', 0)}"
        f" | cancelled {jobs.get('cancelled', 0)}",
        f"cache:     hit rate {engine.get('hit_rate', 0.0):.1%}"
        f" ({engine.get('hits', 0)} hits / {engine.get('misses', 0)} misses)",
        f"dedupe:    fast-path {service.get('fast_path_hits', 0)}"
        f" | coalesced {service.get('coalesced', 0)}"
        f" | rejected {service.get('backpressure_rejections', 0)}",
        f"retries:   {workers.get('retries', 0)}"
        f" | journal errors {queue.get('journal_errors', 0)}",
    ]
    return "\n".join(lines)


def stats_main(argv: Optional[Sequence[str]] = None) -> int:
    """Print (or watch) a running service's counters (``repro stats``)."""
    import time

    args = build_stats_parser().parse_args(argv)
    client = ServiceClient(args.url)

    def render() -> str:
        if args.metrics:
            return client.metrics_text().rstrip("\n")
        stats = client.stats()
        if args.json:
            return json.dumps(stats, indent=2, sort_keys=True)
        return _stats_summary(stats)

    try:
        if not args.watch:
            print(render())
            return 0
        while True:
            block = render()
            # Clear + home so the watch view repaints in place.
            sys.stdout.write("\x1b[2J\x1b[H" if sys.stdout.isatty() else "")
            print(f"{args.url} @ {time.strftime('%H:%M:%S')}")
            print(block, flush=True)
            time.sleep(max(0.1, args.interval))
    except KeyboardInterrupt:
        return 0
    except ServiceError as error:
        print(str(error), file=sys.stderr)
        return 1
