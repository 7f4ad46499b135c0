"""The architecture registry: every accelerator the repo can simulate.

One place declares every evaluated accelerator as an
:class:`~repro.arch.spec.ArchitectureSpec`.  The canonical configurations of
the paper's Tables II and IV (SCNN, DCNN, DCNN-opt) are *defined* here, and
every simulator, model and experiment imports them from here; the sparsity
ablations (SCNN-SparseW / SCNN-SparseA) and the Section VI-C granularity
variants ride along as further registry entries.

Adding an accelerator variant is a data change, not a code change::

    from dataclasses import replace
    from repro.arch import ArchitectureSpec, default_registry

    spec = ArchitectureSpec(
        name="SCNN-A64",
        config=replace(SCNN_CONFIG, name="SCNN-A64", accumulator_banks=64),
        adapter="cartesian-sparse",
        description="SCNN with doubled accumulator banking",
        baseline="DCNN",
    )
    default_registry().register(spec)

and the new name is immediately accepted by ``repro compare``, the service's
``compare`` scenario and every registry-resolving entry point
(:func:`resolve_config` lets any simulator parameter accept an architecture
name in place of a config object).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Union

from repro.arch.spec import AcceleratorConfig, ArchitectureSpec
from repro.dataflow.dataflows import (
    PT_IS_CP_SPARSE,
    PT_IS_CP_SPARSE_A,
    PT_IS_CP_SPARSE_W,
    PT_IS_DP_DENSE,
    PT_IS_DP_DENSE_OPT,
)

# -- canonical configurations (paper Tables II and IV) --------------------------
#
# All evaluated accelerators provision the same 1,024 multipliers so the
# comparison isolates the dataflow; they differ in on-chip storage, sparsity
# support and area.

SCNN_CONFIG = AcceleratorConfig(name="SCNN", dataflow=PT_IS_CP_SPARSE)

DCNN_CONFIG = AcceleratorConfig(
    name="DCNN",
    dataflow=PT_IS_DP_DENSE,
    iaram_bytes=0,
    oaram_bytes=0,
    weight_fifo_entries=50,
    dense_sram_bytes=2 * 1024 * 1024,
    index_bits=0,
)

DCNN_OPT_CONFIG = AcceleratorConfig(
    name="DCNN-opt",
    dataflow=PT_IS_DP_DENSE_OPT,
    iaram_bytes=0,
    oaram_bytes=0,
    weight_fifo_entries=50,
    dense_sram_bytes=2 * 1024 * 1024,
    index_bits=0,
)

# Single-operand sparsity ablations: identical provisioning to SCNN (again so
# the comparison isolates the dataflow), but the dataflow compresses — and
# skips the zeros of — only one operand.
SCNN_SPARSE_W_CONFIG = AcceleratorConfig(
    name="SCNN-SparseW", dataflow=PT_IS_CP_SPARSE_W
)

SCNN_SPARSE_A_CONFIG = AcceleratorConfig(
    name="SCNN-SparseA", dataflow=PT_IS_CP_SPARSE_A
)


class ArchitectureRegistry:
    """Name → :class:`ArchitectureSpec` mapping with a JSON-able catalogue."""

    def __init__(self) -> None:
        self._specs: Dict[str, ArchitectureSpec] = {}

    def register(self, spec: ArchitectureSpec) -> ArchitectureSpec:
        """Add ``spec`` to the catalogue; duplicate names are rejected."""
        if spec.name in self._specs:
            raise ValueError(f"architecture {spec.name!r} is already registered")
        self._specs[spec.name] = spec
        return spec

    def get(self, name: str) -> ArchitectureSpec:
        """The spec registered under ``name``.

        An unknown name raises a :class:`KeyError` that lists every known
        architecture, mirroring :meth:`repro.engine.ArchitectureRun.column`.
        """
        try:
            return self._specs[name]
        except KeyError:
            known = ", ".join(map(repr, self.names())) or "(none)"
            raise KeyError(
                f"unknown architecture {name!r}; registered architectures: {known}"
            ) from None

    def names(self) -> List[str]:
        """Registered architecture names, in registration order."""
        return list(self._specs)

    def __contains__(self, name: object) -> bool:
        return name in self._specs

    def __len__(self) -> int:
        return len(self._specs)

    def __iter__(self) -> Iterator[ArchitectureSpec]:
        return iter(self._specs.values())


def _built_in_specs() -> List[ArchitectureSpec]:
    """The paper's accelerator catalogue, in presentation order."""
    specs = [
        ArchitectureSpec(
            name="DCNN",
            config=DCNN_CONFIG,
            adapter="dot-product-dense",
            description="Dense baseline: PT-IS-DP-dense over uncompressed "
            "operands; every multiply occupies a slot.",
            paper_reference="Table IV; Figures 8 and 10 baseline",
            baseline="",
            tags=("table4", "baseline"),
        ),
        ArchitectureSpec(
            name="DCNN-opt",
            config=DCNN_OPT_CONFIG,
            adapter="dot-product-dense",
            description="Dense baseline with zero-operand gating and DRAM "
            "activation compression (energy only — cycles match DCNN).",
            paper_reference="Table IV; Figure 10",
            baseline="DCNN",
            tags=("table4", "baseline"),
        ),
        ArchitectureSpec(
            name="SCNN",
            config=SCNN_CONFIG,
            adapter="cartesian-sparse",
            description="The paper's design point: PT-IS-CP-sparse, 8x8 PEs "
            "of 4x4 multipliers, 32 accumulator banks, Kc=8.",
            paper_reference="Tables II and IV; Figures 8-10",
            baseline="DCNN",
            tags=("table2", "table4"),
        ),
        ArchitectureSpec(
            name="SCNN-SparseW",
            config=SCNN_SPARSE_W_CONFIG,
            adapter="cartesian-sparse",
            description="Sparsity ablation: compresses and skips zero "
            "weights only; activations are delivered dense.",
            paper_reference="Table IV variants (sparsity ablation)",
            baseline="DCNN",
            tags=("ablation",),
        ),
        ArchitectureSpec(
            name="SCNN-SparseA",
            config=SCNN_SPARSE_A_CONFIG,
            adapter="cartesian-sparse",
            description="Sparsity ablation: compresses and skips zero "
            "activations only; weights are delivered dense.",
            paper_reference="Table IV variants (sparsity ablation)",
            baseline="DCNN",
            tags=("ablation",),
        ),
    ]
    for num_pes in (16, 4):
        config = SCNN_CONFIG.with_pe_count(num_pes)
        specs.append(
            ArchitectureSpec(
                name=config.name,
                config=config,
                adapter="cartesian-sparse",
                description=f"Section VI-C granularity variant: {num_pes} PEs "
                f"of {config.multipliers_f}x{config.multipliers_i} multipliers "
                "at a constant 1,024 chip-wide multipliers.",
                paper_reference="Section VI-C (PE granularity)",
                baseline="SCNN",
                tags=("sec6c",),
            )
        )
    return specs


_default_registry: Union[ArchitectureRegistry, None] = None


def default_registry() -> ArchitectureRegistry:
    """The process-wide architecture catalogue (created on first use)."""
    global _default_registry
    if _default_registry is None:
        registry = ArchitectureRegistry()
        for spec in _built_in_specs():
            registry.register(spec)
        _default_registry = registry
    return _default_registry


def get_architecture(name: str) -> ArchitectureSpec:
    """Spec of the named architecture from the default registry."""
    return default_registry().get(name)


def available_architectures() -> List[str]:
    """Names the default registry knows, in registration order."""
    return default_registry().names()


def resolve_config(
    config: Union[str, AcceleratorConfig], *, parameter: str = "config"
) -> AcceleratorConfig:
    """Accept an architecture name anywhere an :class:`AcceleratorConfig` is.

    Simulator entry points route their ``config`` arguments through this
    helper, so ``simulate_dcnn_layer(spec, "DCNN-opt")`` and
    ``estimate_scnn_layer(spec, config="SCNN-SparseA", ...)`` resolve through
    the registry.  Config objects pass through untouched; unknown names raise
    the registry's catalogue-listing :class:`KeyError`.
    """
    if isinstance(config, str):
        return get_architecture(config).config
    if not isinstance(config, AcceleratorConfig):
        raise TypeError(
            f"{parameter} must be an AcceleratorConfig or a registered "
            f"architecture name, got {type(config).__name__}"
        )
    return config
