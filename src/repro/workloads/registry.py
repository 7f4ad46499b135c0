"""The workload registry: every network the repo can simulate.

One place declares every workload as a :class:`~repro.workloads.spec.WorkloadSpec`.
The paper's Table I trio (AlexNet, GoogLeNet, VGGNet) is defined here —
built by the very same :mod:`repro.nn.networks` builders as before, pinned
bitwise-identical by ``tests/test_workloads_equivalence.py`` — together with
the ``googlenet-stem`` builder variant and a zoo of parametric synthetic
networks (:mod:`repro.workloads.synthetic`).

Adding a workload is a data change, not a code change::

    from repro.workloads import WorkloadSpec, default_registry
    from repro.workloads.synthetic import plain_cnn

    default_registry().register(WorkloadSpec(
        name="deep-thin-24",
        builder=lambda: plain_cnn(depth=24, channels=16, name="DeepThin-24"),
        density_profile="uniform-25",
        description="24 thin layers at a quarter density",
    ))

and the new name is immediately accepted by ``get_network``, the engine's
``run_network``/``sweep``, ``repro compare --network deep-thin-24`` and the
service's scenarios — whose parameter choices resolve against this registry
*at validation time*, not at service boot.
"""

from __future__ import annotations

import threading
from dataclasses import replace
from typing import Dict, Iterator, List, Tuple, Union

from repro.nn.densities import LayerSparsity
from repro.nn import networks as _networks
from repro.nn.networks import Network
from repro.workloads.spec import WorkloadSpec
from repro.workloads.synthetic import (
    bottleneck_stack,
    plain_cnn,
    resnet_style,
    wide_shallow,
)


class WorkloadRegistry:
    """Name → :class:`WorkloadSpec` mapping with a JSON-able catalogue.

    Safe for concurrent readers and writers: the service validates requests
    on HTTP handler threads while the headline flow of this subsystem —
    registering a workload *into a running service* — mutates the catalogue,
    so every read snapshots and every write locks.
    """

    def __init__(self) -> None:
        self._specs: Dict[str, WorkloadSpec] = {}
        self._lock = threading.Lock()

    @staticmethod
    def _key(name: str) -> str:
        return name.strip().lower()

    def register(self, spec: WorkloadSpec) -> WorkloadSpec:
        """Add ``spec`` to the catalogue; duplicate names are rejected."""
        key = self._key(spec.name)
        with self._lock:
            if key in self._specs:
                raise ValueError(f"workload {spec.name!r} is already registered")
            self._specs[key] = spec
        return spec

    def unregister(self, name: str) -> None:
        """Drop a registered workload (tests clean up runtime registrations)."""
        with self._lock:
            self._specs.pop(self._key(name), None)

    def get(self, name: str) -> WorkloadSpec:
        """The spec registered under ``name`` (case-insensitive).

        An unknown name raises a :class:`KeyError` that lists every known
        workload, mirroring :meth:`repro.engine.ArchitectureRun.column`.
        """
        with self._lock:
            spec = self._specs.get(self._key(name))
        if spec is None:
            known = ", ".join(map(repr, self.names())) or "(none)"
            raise KeyError(
                f"unknown workload {name!r}; registered workloads: {known}"
            )
        return spec

    def _snapshot(self) -> List[WorkloadSpec]:
        with self._lock:
            return list(self._specs.values())

    def names(self) -> List[str]:
        """Registered workload names, in registration order."""
        return [spec.name for spec in self._snapshot()]

    def describe(self) -> List[Dict[str, object]]:
        """JSON-able catalogue view, one entry per registered spec."""
        return [spec.describe() for spec in self._snapshot()]

    def __contains__(self, name: object) -> bool:
        if not isinstance(name, str):
            return False
        with self._lock:
            return self._key(name) in self._specs

    def __len__(self) -> int:
        with self._lock:
            return len(self._specs)

    def __iter__(self) -> Iterator[WorkloadSpec]:
        return iter(self._snapshot())


def _built_in_specs() -> List[WorkloadSpec]:
    """The default workload catalogue: paper trio, stem variant, synthetics."""
    return [
        WorkloadSpec(
            name="alexnet",
            builder=_networks.alexnet,
            density_profile="measured",
            description="AlexNet's five convolutional layers "
            "(Caffe BVLC reference, 227x227 input).",
            paper_reference="Table I",
            source="paper",
            tags=("table1", "paper"),
        ),
        WorkloadSpec(
            name="googlenet",
            builder=_networks.googlenet,
            density_profile="measured",
            description="GoogLeNet's 54 inception convolutions "
            "(9 modules x 6 layers).",
            paper_reference="Table I",
            source="paper",
            tags=("table1", "paper"),
        ),
        WorkloadSpec(
            name="googlenet-stem",
            # Same layer catalogue as googlenet(include_stem=True), under a
            # distinct display name: comparison sweeps and figure reports key
            # results by the network's display name, so the variant must not
            # shadow plain GoogLeNet when both are requested together.
            builder=lambda: replace(
                _networks.googlenet(include_stem=True), name="GoogLeNet-stem"
            ),
            density_profile="measured",
            description="GoogLeNet including the three stem convolutions "
            "the paper's Table I excludes (57 layers).",
            paper_reference="Table I (stem excluded there)",
            source="paper",
            tags=("paper", "variant"),
        ),
        WorkloadSpec(
            name="vggnet",
            builder=_networks.vggnet,
            density_profile="measured",
            description="VGG-16's thirteen 3x3 convolutional layers "
            "(224x224 input).",
            paper_reference="Table I",
            source="paper",
            tags=("table1", "paper"),
        ),
        WorkloadSpec(
            name="plain-cnn-8",
            builder=lambda: plain_cnn(depth=8, channels=32, extent=32),
            density_profile="uniform-50",
            description="Constant-width chain: eight 3x3 layers of 32 "
            "channels at 32x32, both operands half dense.",
            source="synthetic",
            tags=("synthetic", "chain"),
        ),
        WorkloadSpec(
            name="resnet-style-13",
            builder=lambda: resnet_style(blocks=(2, 2, 2), base_channels=16,
                                         extent=32),
            density_profile="decay-90-30",
            description="Staged backbone: stem plus three stages of 3x3 "
            "pairs, extent halving and channels doubling per stage.",
            source="synthetic",
            tags=("synthetic", "staged"),
        ),
        WorkloadSpec(
            name="wide-shallow-3",
            builder=lambda: wide_shallow(layers=3, channels=256, extent=56),
            density_profile="uniform-25",
            description="Three very wide 3x3 layers (256 channels at 56x56): "
            "the accumulator-bank pressure corner.",
            source="synthetic",
            tags=("synthetic", "wide"),
        ),
        WorkloadSpec(
            name="bottleneck-stack-4",
            builder=lambda: bottleneck_stack(blocks=4, channels=32, extent=28),
            density_profile="uniform-50",
            description="Four 1x1/3x3/1x1 bottleneck triplets: unit-filter "
            "layers sandwiching 3x3 convolutions.",
            source="synthetic",
            tags=("synthetic", "bottleneck"),
        ),
    ]


_default_registry: Union[WorkloadRegistry, None] = None
_default_registry_lock = threading.Lock()


def default_registry() -> WorkloadRegistry:
    """The process-wide workload catalogue (created on first use)."""
    global _default_registry
    if _default_registry is None:
        with _default_registry_lock:
            if _default_registry is None:
                registry = WorkloadRegistry()
                for spec in _built_in_specs():
                    registry.register(spec)
                _default_registry = registry
    return _default_registry


def register_workload(spec: WorkloadSpec) -> WorkloadSpec:
    """Register ``spec`` in the default registry (runtime registration)."""
    return default_registry().register(spec)


def get_workload(name: str) -> WorkloadSpec:
    """Spec of the named workload from the default registry."""
    return default_registry().get(name)


def available_workloads() -> List[str]:
    """Names the default registry knows, in registration order."""
    return default_registry().names()


def resolve_network(network: Union[str, Network]) -> Network:
    """Accept a workload name anywhere a :class:`Network` is.

    Network objects pass through untouched; unknown names raise the
    registry's catalogue-listing :class:`KeyError`.
    """
    if isinstance(network, str):
        return get_workload(network).build()
    if not isinstance(network, Network):
        raise TypeError(
            f"network must be a Network or a registered workload name, "
            f"got {type(network).__name__}"
        )
    return network


def resolve_workload(
    name: Union[str, Network]
) -> Tuple[Network, Dict[str, LayerSparsity]]:
    """Network plus per-layer sparsity table of one workload.

    The single resolution point the engine, the comparison sweeps and the
    service scenarios share: a workload *name* resolves through the registry
    (network built by the spec's builder, densities from its profile), while
    a bare :class:`Network` falls back to the measured Figure 1 calibration —
    exactly what the pre-registry code paths computed.
    """
    if isinstance(name, str):
        spec = get_workload(name)
        network = spec.build()
        return network, spec.sparsity(network)
    network = resolve_network(name)
    from repro.nn.densities import network_sparsity

    return network, network_sparsity(network)
