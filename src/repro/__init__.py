"""repro — a reproduction of SCNN (ISCA 2017).

SCNN is an accelerator for compressed-sparse convolutional neural networks:
it exploits weight sparsity (from pruning) and activation sparsity (from
ReLU) with the PT-IS-CP-sparse dataflow, keeping both operands compressed end
to end and performing only the multiplies whose operands are both non-zero.

The public API exposes, in dependency order:

* ``repro.tensor`` — the compressed-sparse encodings,
* ``repro.nn`` — the network catalogues, pruning and workload generation,
* ``repro.workloads`` — the workload registry: every network as a
  declarative spec (builder + density profile + provenance), parametric
  synthetic generators and the density-profile library,
* ``repro.dataflow`` — tiling and dataflow descriptions,
* ``repro.arch`` — the architecture registry: every accelerator variant as
  a declarative spec whose configuration's dataflow picks the model, plus
  cross-architecture comparison sweeps,
* ``repro.scnn`` — the SCNN / DCNN functional and cycle-level simulators,
* ``repro.timeloop`` — the analytical cycle, energy and area models,
* ``repro.engine`` — the batched simulation engine (caching, process-pool
  sharding) every experiment routes through,
* ``repro.experiments`` — one driver per paper table and figure.

Quickstart::

    from repro import SimulationEngine, compare_network

    engine = SimulationEngine(cache_dir=False)
    comparison = compare_network("alexnet", engine=engine)
    print(f"SCNN speedup over DCNN: {comparison.speedup('SCNN'):.2f}x")
"""

from repro.arch import (
    DCNN_CONFIG,
    DCNN_OPT_CONFIG,
    SCNN_CONFIG,
    AcceleratorConfig,
    ArchitectureSpec,
    available_architectures,
    compare_network,
    default_registry,
    get_architecture,
)
from repro.engine import SimulationEngine, configure_default_engine, default_engine
from repro.nn import (
    ConvLayerSpec,
    Network,
    alexnet,
    available_networks,
    get_network,
    googlenet,
    vggnet,
)
from repro.scnn import run_functional_layer, simulate_layer_cycles
from repro.timeloop import (
    accelerator_area_mm2,
    estimate_dense_layer,
    estimate_scnn_layer,
    layer_energy,
    pe_area_mm2,
)
from repro.workloads import (
    DensityProfile,
    WorkloadSpec,
    available_profiles,
    available_workloads,
    get_profile,
    get_workload,
    register_profile,
    register_workload,
)

__version__ = "1.0.0"

__all__ = [
    "AcceleratorConfig",
    "ArchitectureSpec",
    "DensityProfile",
    "WorkloadSpec",
    "available_architectures",
    "available_profiles",
    "available_workloads",
    "compare_network",
    "default_registry",
    "get_architecture",
    "get_profile",
    "get_workload",
    "register_profile",
    "register_workload",
    "ConvLayerSpec",
    "DCNN_CONFIG",
    "DCNN_OPT_CONFIG",
    "Network",
    "SCNN_CONFIG",
    "SimulationEngine",
    "__version__",
    "accelerator_area_mm2",
    "configure_default_engine",
    "default_engine",
    "alexnet",
    "available_networks",
    "estimate_dense_layer",
    "estimate_scnn_layer",
    "get_network",
    "googlenet",
    "layer_energy",
    "pe_area_mm2",
    "run_functional_layer",
    "simulate_layer_cycles",
    "vggnet",
]
