"""``repro compare`` — cross-architecture comparison sweeps from the CLI.

Evaluates any set of registered architectures (see
:mod:`repro.arch.registry`) on the catalogue networks and prints one
per-architecture table per network: cycles, speedup over the baseline, and
energy relative to the baseline — the generalisation of Figures 8 and 10 to
every architecture the registry knows::

    repro compare                                   # trio on all networks
    repro compare --networks alexnet \\
        --architectures SCNN,SCNN-SparseW,SCNN-SparseA
    repro compare --per-module --parallel -1        # module breakdown, sharded

The sweep routes through the shared simulation engine (cached, parallel);
the SCNN/DCNN/DCNN-opt columns are bitwise-identical to the ``fig8`` /
``fig10`` drivers, which are thin views over the same comparison.
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, Optional, Sequence, Tuple

from repro.analysis.reporting import format_table
from repro.arch.compare import DEFAULT_COMPARISON, NetworkComparison, compare_networks
from repro.arch.registry import available_architectures
from repro.experiments.common import EVALUATED_NETWORKS


def run(
    networks: Tuple[str, ...] = EVALUATED_NETWORKS,
    architectures: Optional[Sequence[str]] = None,
    seed: int = 0,
    engine=None,
    density_profile: Optional[str] = None,
) -> Dict[str, NetworkComparison]:
    """Comparison sweep over ``networks`` x ``architectures``.

    ``networks`` accepts any registered workload name (``repro workloads
    --list``); ``density_profile`` overrides each workload's own densities
    with a registered profile.  ``engine`` (optional
    :class:`repro.engine.SimulationEngine`) overrides the shared default —
    the service's ``compare`` scenario passes its own.
    """
    return compare_networks(
        networks,
        architectures,
        seed=seed,
        density_profile=density_profile,
        engine=engine,
    )


def _network_section(comparison: NetworkComparison, per_module: bool) -> str:
    rows = []
    for name in comparison.architectures:
        rows.append(
            (
                name,
                f"{comparison.total_cycles(name):,}",
                f"{comparison.speedup(name):.2f}x",
                f"{comparison.energy_ratio(name):.2f}",
            )
        )
    rows.append(
        (
            "SCNN (oracle)",
            f"{comparison.oracle_total_cycles:,}",
            f"{comparison.oracle_speedup:.2f}x",
            "-",
        )
    )
    section = format_table(
        ["Architecture", "Cycles", f"Speedup vs {comparison.baseline}",
         f"Energy vs {comparison.baseline}"],
        rows,
        title=f"{comparison.network}: cross-architecture comparison "
        f"(baseline {comparison.baseline})",
    )
    if per_module:
        module_rows = []
        for module in comparison.modules():
            module_rows.append(
                (
                    module,
                    *(
                        f"{comparison.module_speedup(module, name):.2f}x"
                        for name in comparison.architectures
                    ),
                )
            )
        section += "\n\n" + format_table(
            ["Module", *comparison.architectures],
            module_rows,
            title=f"{comparison.network}: per-module speedup over "
            f"{comparison.baseline}",
        )
    return section


def main() -> str:
    """Print (and return) the default trio comparison for every network."""
    comparisons = run()
    output = "\n\n".join(
        _network_section(comparison, per_module=False)
        for comparison in comparisons.values()
    )
    print(output)
    return output


def build_compare_parser() -> argparse.ArgumentParser:
    """Argument parser of the ``repro compare`` subcommand."""
    parser = argparse.ArgumentParser(
        prog="repro compare",
        description="Compare registered accelerator architectures on the "
        "catalogue networks (speedup and energy vs the DCNN baseline).",
        epilog=f"Registered architectures: {', '.join(available_architectures())}",
    )
    parser.add_argument(
        "--networks",
        default=None,
        metavar="NAMES",
        help="comma-separated registered workloads "
        f"(default: {','.join(EVALUATED_NETWORKS)}; "
        "see `repro workloads --list`)",
    )
    parser.add_argument(
        "--network",
        action="append",
        default=[],
        metavar="NAME",
        help="add one registered workload (repeatable); on its own it "
        "replaces the default network set",
    )
    parser.add_argument(
        "--density-profile",
        default=None,
        metavar="NAME",
        help="generate operands at a registered density profile instead of "
        "each workload's own (see `repro workloads --profiles`)",
    )
    parser.add_argument(
        "--architectures",
        default=",".join(DEFAULT_COMPARISON),
        metavar="NAMES",
        help="comma-separated registered architectures "
        f"(default: {','.join(DEFAULT_COMPARISON)}); use --list to see them",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="workload generation seed (default: 0)"
    )
    parser.add_argument(
        "--per-module", action="store_true",
        help="also print the per-module speedup breakdown",
    )
    parser.add_argument(
        "--list", action="store_true",
        help="list registered architectures and exit",
    )
    parser.add_argument(
        "--parallel", type=int, default=None, metavar="N",
        help="shard simulations across N worker processes (1 = serial, "
        "-1 = one per usable CPU; default: $REPRO_PARALLEL if set, else one "
        "per usable CPU on Linux and serial elsewhere)",
    )
    parser.add_argument(
        "--cache-dir", default=None, metavar="PATH",
        help="persist simulation results to a content-addressed cache at PATH",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="disable the on-disk result cache even if $REPRO_CACHE_DIR is set",
    )
    return parser


def list_architectures() -> str:
    """Human-readable registry catalogue (what ``--list`` prints)."""
    from repro.arch.registry import default_registry

    lines = ["Registered architectures:"]
    for spec in default_registry():
        lines.append(f"  {spec.name:14s} {spec.description}")
        if spec.paper_reference:
            lines.append(f"  {'':14s} [{spec.paper_reference}]")
    return "\n".join(lines)


def compare_main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point of ``repro compare``; returns the process exit code."""
    from repro.engine import configure_default_engine

    args = build_compare_parser().parse_args(argv)
    if args.list:
        print(list_architectures())
        return 0
    cache_dir = False if args.no_cache else args.cache_dir
    if cache_dir is not None or args.parallel is not None:
        configure_default_engine(cache_dir=cache_dir, parallel=args.parallel)
    networks: Tuple[str, ...]
    if args.networks:
        networks = tuple(
            part.strip() for part in args.networks.split(",") if part.strip()
        )
        networks += tuple(args.network)
    elif args.network:
        networks = tuple(args.network)
    else:
        networks = EVALUATED_NETWORKS
    architectures = [
        part.strip() for part in args.architectures.split(",") if part.strip()
    ]
    try:
        comparisons = run(
            networks,
            architectures,
            seed=args.seed,
            density_profile=args.density_profile,
        )
    except (KeyError, ValueError) as error:
        # Unknown workload, architecture or density profile (the registry
        # error already lists the catalogue), or a display-name collision
        # between distinct workloads.
        print(error.args[0] if error.args else str(error), file=sys.stderr)
        return 2
    print(
        "\n\n".join(
            _network_section(comparison, per_module=args.per_module)
            for comparison in comparisons.values()
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(compare_main())
