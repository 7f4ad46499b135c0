"""Compare every registered accelerator architecture on one network.

The architecture registry (:mod:`repro.arch`) declares each accelerator —
SCNN, the dense baselines, the single-operand sparsity ablations, the
Section VI-C granularity variants — as data: a hardware parameterization
whose dataflow picks the model that evaluates it.  This example sweeps *all* of them over
AlexNet with :func:`repro.arch.compare.compare_network` (the same cached,
parallel path behind ``repro compare`` and the service's ``compare``
scenario), then registers a brand-new variant on the fly to show that adding
an architecture is one registration, not a new experiment module.

Run with::

    python examples/compare_architectures.py
"""

from dataclasses import replace

from repro.analysis.reporting import format_table
from repro.arch import (
    ArchitectureSpec,
    available_architectures,
    compare_network,
    default_registry,
    get_architecture,
)
from repro.engine import SimulationEngine


def main() -> None:
    engine = SimulationEngine(cache_dir=False)

    print("Architecture registry catalogue:")
    for spec in default_registry():
        print(f"  {spec.name:14s} {spec.description}")
    print()

    comparison = compare_network(
        "alexnet", available_architectures(), engine=engine
    )
    rows = [
        (
            name,
            f"{comparison.total_cycles(name):,}",
            f"{comparison.speedup(name):.2f}x",
            f"{comparison.energy_ratio(name):.2f}",
        )
        for name in comparison.architectures
    ]
    print(
        format_table(
            ["Architecture", "Cycles", "Speedup vs DCNN", "Energy vs DCNN"],
            rows,
            title="AlexNet across every registered architecture",
        )
    )
    print()

    # Adding a variant is a data change: register a spec, compare it.
    registry = default_registry()
    if "SCNN-A64" not in registry:
        base = get_architecture("SCNN").config
        registry.register(
            ArchitectureSpec(
                config=replace(base, name="SCNN-A64", accumulator_banks=64),
                description="SCNN with doubled accumulator banking",
            )
        )
    variant = compare_network("alexnet", ["DCNN", "SCNN", "SCNN-A64"], engine=engine)
    print(
        f"Freshly registered SCNN-A64: "
        f"{variant.speedup('SCNN-A64'):.2f}x speedup vs DCNN "
        f"(SCNN: {variant.speedup('SCNN'):.2f}x) — one registration, "
        f"zero new simulator code."
    )


if __name__ == "__main__":
    main()
