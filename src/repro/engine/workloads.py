"""Lazy, picklable workload handles.

A :class:`WorkloadHandle` stands in for a :class:`~repro.nn.inference.LayerWorkload`
everywhere the simulators and experiments read one, but carries only the
*recipe* for the operand tensors — network name, seed, layer index, spec and
target densities — plus the densities that recipe produces, known exactly
when the handle is built.  Operands are regenerated deterministically on
demand (``np.random.default_rng([seed, index])``, exactly as
:func:`repro.nn.inference.build_network_workloads` seeds each layer): the
simulators read :meth:`~WorkloadHandle.masks`, synthesised straight from the
seeded draws with no float tensor, and ablations that need the raw tensors
(``handle.weights`` / ``handle.activations``) get bit-identical arrays,
which the handle keeps but never pickles.

This is what keeps the process pool, the on-disk cache and the engine's
memo table cheap: results cross process and disk boundaries, and sit in
memory, at a few hundred bytes per layer instead of tens of megabytes of
activation tensors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.nn.densities import LayerSparsity, network_sparsity
from repro.nn.inference import (
    LayerWorkload,
    activation_nonzeros,
    build_layer_masks,
    build_layer_workload,
)
from repro.nn.layers import ConvLayerSpec
from repro.nn.networks import Network
from repro.nn.pruning import kept_count


@dataclass
class WorkloadHandle:
    """Slim stand-in for one layer's :class:`LayerWorkload`.

    Duck-type compatible with ``LayerWorkload`` for every attribute the
    simulators, experiments and benchmarks read (``spec``, ``target``,
    ``weights``, ``activations``, ``masks()``, ``weight_density``,
    ``activation_density``, ``dense_multiplies``).  The densities come from
    the recipe: synthesis keeps exactly :func:`~repro.nn.pruning.kept_count`
    weights and :func:`~repro.nn.inference.activation_nonzeros` activations.
    """

    network_name: str
    seed: int
    index: int
    spec: ConvLayerSpec
    target: LayerSparsity
    weight_density: float = field(init=False)
    activation_density: float = field(init=False)
    _materialized: Optional[LayerWorkload] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        spec, target = self.spec, self.target
        self.weight_density = (
            kept_count(spec.weight_count, target.weight_density) / spec.weight_count
        )
        self.activation_density = (
            activation_nonzeros(spec, target.activation_density)
            / spec.input_activation_count
        )

    def _rng(self) -> np.random.Generator:
        return np.random.default_rng([self.seed, self.index])

    def materialize(self) -> LayerWorkload:
        """The full workload, regenerating the tensors if necessary."""
        if self._materialized is None:
            self._materialized = build_layer_workload(
                self.network_name, self.spec, self.target, self._rng()
            )
        return self._materialized

    def masks(self) -> Tuple[np.ndarray, np.ndarray]:
        """Bool non-zero masks of the weights and the activations.

        Read from the tensors when they are in memory, synthesised from the
        recipe's draws otherwise (the same bits, no float tensor kept).
        """
        if self._materialized is not None:
            return self._materialized.masks()
        return build_layer_masks(self.spec, self.target, self._rng())

    # -- LayerWorkload duck-type surface ---------------------------------------

    @property
    def weights(self) -> np.ndarray:
        return self.materialize().weights

    @property
    def activations(self) -> np.ndarray:
        return self.materialize().activations

    @property
    def dense_multiplies(self) -> int:
        return self.spec.multiplies

    # -- pickling: never ship the tensors --------------------------------------

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["_materialized"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)


def resolve_network_sparsity(
    network: Union[str, Network],
    sparsity: Optional[Dict[str, LayerSparsity]] = None,
) -> Tuple[Network, Dict[str, LayerSparsity]]:
    """The network and its per-layer density table.

    A workload *name* resolves through the registry (the spec's density
    profile supplies the table unless the caller overrides it); a bare
    :class:`Network` falls back to the measured Figure 1 calibration.
    """
    if isinstance(network, str):
        from repro.workloads.registry import resolve_network, resolve_workload

        if sparsity is None:
            return resolve_workload(network)
        network = resolve_network(network)
    elif sparsity is None:
        sparsity = network_sparsity(network)
    missing = [spec.name for spec in network.layers if spec.name not in sparsity]
    if missing:
        raise KeyError(
            f"sparsity table assigns no density to layer(s) "
            f"{', '.join(map(repr, missing))} of {network.name}"
        )
    return network, sparsity


def network_handles(
    network: Union[str, Network],
    seed: int = 0,
    *,
    sparsity: Optional[Dict[str, LayerSparsity]] = None,
) -> Tuple[Network, List[WorkloadHandle]]:
    """The network (see :func:`resolve_network_sparsity`) and one recipe
    handle per layer, in layer order; nothing is synthesised."""
    network, sparsity = resolve_network_sparsity(network, sparsity)
    return network, [
        WorkloadHandle(network.name, seed, index, spec, sparsity[spec.name])
        for index, spec in enumerate(network.layers)
    ]
