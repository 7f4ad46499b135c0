"""Design-space exploration with the analytical (TimeLoop-style) model.

The paper motivates SCNN's design point (8x8 PEs, 4x4 multipliers, 32
accumulator banks, Kc = 8) with a handful of sensitivity arguments.  This
example reproduces that style of exploration on GoogLeNet:

* PE granularity at fixed chip-wide throughput (Section VI-C),
* accumulator banking (the paper's A = 2 x F x I provisioning rule),
* multiplier-array aspect ratio (F x I),
* output-channel group size Kc,

and closes with a full candidate sweep — ``dse.sweep(candidates, network)``
evaluates every candidate on every layer in one whole-grid pass of the
analytical model, in this process — reporting the Pareto frontier over
(latency, energy, area).

Run with::

    python examples/design_space_exploration.py
"""

from dataclasses import replace

from repro import get_network
from repro.analysis.reporting import format_table
from repro.arch import get_architecture
from repro.timeloop import dse
from repro.timeloop.model import estimate_dense_layer, estimate_scnn_layer

# The paper's design point, consumed from the architecture registry (the
# same spec `repro compare` and the service's `compare` scenario resolve).
SCNN_CONFIG = get_architecture("SCNN").config

WEIGHT_DENSITY = 0.35
ACTIVATION_DENSITY = 0.45


def network_cycles(config) -> float:
    network = get_network("googlenet")
    return sum(
        estimate_scnn_layer(
            spec,
            weight_density=WEIGHT_DENSITY,
            activation_density=ACTIVATION_DENSITY,
            config=config,
        ).cycles
        for spec in network.layers
    )


def main() -> None:
    network = get_network("googlenet")
    dcnn_cycles = sum(estimate_dense_layer(spec).cycles for spec in network.layers)
    print(
        f"GoogLeNet at {WEIGHT_DENSITY:.2f} weight / {ACTIVATION_DENSITY:.2f} "
        f"activation density; dense baseline: {dcnn_cycles:,.0f} cycles\n"
    )

    # --- PE granularity (Section VI-C) ----------------------------------------
    # The granularity variants are registry entries (SCNN, SCNN-16PE,
    # SCNN-4PE), so the sweep below resolves them by name.
    rows = []
    for arch_name in ("SCNN", "SCNN-16PE", "SCNN-4PE"):
        config = get_architecture(arch_name).config
        num_pes = config.num_pes
        cycles = network_cycles(config)
        rows.append(
            (
                f"{num_pes} PEs x {config.multipliers_per_pe} muls",
                f"{cycles:,.0f}",
                f"{dcnn_cycles / cycles:.2f}x",
            )
        )
    print(format_table(["Configuration", "SCNN cycles", "Speedup vs DCNN"], rows,
                       title="PE granularity (1,024 multipliers total)"))
    print()

    # --- accumulator banking ---------------------------------------------------
    rows = []
    for banks in (8, 16, 32, 64):
        config = replace(SCNN_CONFIG, accumulator_banks=banks)
        cycles = network_cycles(config)
        rows.append((banks, f"{cycles:,.0f}", f"{dcnn_cycles / cycles:.2f}x"))
    print(format_table(["Accumulator banks", "SCNN cycles", "Speedup vs DCNN"], rows,
                       title="Accumulator banking (paper provisions A = 2 x F x I = 32)"))
    print()

    # --- multiplier array shape -------------------------------------------------
    rows = []
    for f_width, i_width in ((8, 2), (4, 4), (2, 8), (16, 1)):
        config = replace(
            SCNN_CONFIG,
            multipliers_f=f_width,
            multipliers_i=i_width,
            accumulator_banks=2 * f_width * i_width,
        )
        cycles = network_cycles(config)
        rows.append((f"{f_width}x{i_width}", f"{cycles:,.0f}", f"{dcnn_cycles / cycles:.2f}x"))
    print(format_table(["F x I", "SCNN cycles", "Speedup vs DCNN"], rows,
                       title="Multiplier-array aspect ratio (16 multipliers per PE)"))
    print()

    # --- output-channel group size ----------------------------------------------
    rows = []
    for group_size in (4, 8, 16, 32):
        config = replace(SCNN_CONFIG, output_channel_group=group_size)
        cycles = network_cycles(config)
        accumulator_entries = (
            group_size * 8 * 8  # Kc x (largest 28x28-plane tile incl. halo) approx
        )
        rows.append(
            (group_size, f"{cycles:,.0f}", f"{dcnn_cycles / cycles:.2f}x", accumulator_entries)
        )
    print(format_table(
        ["Kc", "SCNN cycles", "Speedup vs DCNN", "~accumulator entries/group"],
        rows,
        title="Output-channel group size Kc (paper uses 8)",
    ))
    print()

    # --- full candidate sweep: one whole-grid pass ------------------------------
    candidates = [SCNN_CONFIG] + dse.default_candidates()
    points = dse.sweep(candidates, network)
    frontier = {point.name for point in dse.pareto_frontier(points)}
    rows = [
        (
            point.name,
            f"{cycles:.2f}",
            f"{energy:.2f}",
            f"{area:.2f}",
            "yes" if point.name in frontier else "",
        )
        for point, (_, cycles, energy, area) in zip(points, dse.summarize(points))
    ]
    print(format_table(
        ["Configuration", "Cycles (rel)", "Energy (rel)", "Area (rel)", "Pareto"],
        rows,
        title="Whole-grid sweep, normalised to the paper's design point",
    ))


if __name__ == "__main__":
    main()
