"""The workload zoo: register a network at runtime and sweep it everywhere.

Walks the full workload-subsystem flow:

1. list the registered workloads and density profiles,
2. register a *custom* density profile and a *custom* synthetic workload at
   runtime (a data change — no simulator code),
3. run the new workload through the engine and the cross-architecture
   comparison sweep, and show the same network under two density profiles.

Run with::

    PYTHONPATH=src python examples/workload_zoo.py
"""

from repro.arch.compare import compare_network
from repro.engine import SimulationEngine
from repro.workloads import (
    WorkloadSpec,
    available_profiles,
    available_workloads,
    default_registry,
    plain_cnn,
    register_profile,
    uniform_profile,
)

CUSTOM_PROFILE = "uniform-33"
CUSTOM_WORKLOAD = "deep-thin-12"


def main() -> None:
    print("Registered workloads:", ", ".join(available_workloads()))
    print("Registered density profiles:", ", ".join(available_profiles()))

    # A data change: one profile + one spec, and the new name works in every
    # entry point that accepts a network.
    if CUSTOM_PROFILE not in available_profiles():
        register_profile(uniform_profile(0.33))
    registry = default_registry()
    if CUSTOM_WORKLOAD not in registry:
        registry.register(
            WorkloadSpec(
                name=CUSTOM_WORKLOAD,
                builder=lambda: plain_cnn(
                    depth=12, channels=16, extent=16, name="DeepThin-12"
                ),
                density_profile=CUSTOM_PROFILE,
                description="twelve thin layers at a third density",
            )
        )
    print(f"\nRegistered {CUSTOM_WORKLOAD!r} with profile {CUSTOM_PROFILE!r}")

    engine = SimulationEngine(cache_dir=False)
    comparison = compare_network(
        CUSTOM_WORKLOAD, ["DCNN", "SCNN", "SCNN-SparseW"], engine=engine
    )
    print(
        f"{comparison.network}: SCNN {comparison.total_cycles('SCNN'):,} "
        f"cycles, speedup over DCNN {comparison.speedup('SCNN'):.2f}x"
    )
    print("\nCross-architecture comparison:")
    for name in comparison.architectures:
        print(
            f"  {name:14s} {comparison.total_cycles(name):>10,} cycles  "
            f"{comparison.speedup(name):5.2f}x  "
            f"energy ratio {comparison.energy_ratio(name):.2f}"
        )

    print("\nSame network, density as a swept axis:")
    for profile in ("dense", "uniform-25"):
        swept = compare_network(
            CUSTOM_WORKLOAD, ["DCNN", "SCNN"], density_profile=profile,
            engine=engine,
        )
        print(
            f"  {profile:12s} SCNN speedup {swept.speedup('SCNN'):5.2f}x, "
            f"energy ratio {swept.energy_ratio('SCNN'):.2f}"
        )


if __name__ == "__main__":
    main()
