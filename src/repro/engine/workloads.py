"""Lazy, picklable workload handles.

A :class:`WorkloadHandle` stands in for a :class:`~repro.nn.inference.LayerWorkload`
everywhere the simulators and experiments read one, but carries only the
*recipe* for the operand tensors — network name, seed, layer index, spec and
target densities — plus the measured densities.  The tensors themselves are
regenerated deterministically on first access (``np.random.default_rng([seed,
index])``, exactly as :func:`repro.nn.inference.build_network_workloads`
seeds each layer) and are dropped again when the handle is pickled or
:meth:`~WorkloadHandle.release`-d.

This is what keeps the process pool, the on-disk cache and the engine's
memo table cheap: results cross process and disk boundaries, and sit in
memory, at a few hundred bytes per layer instead of tens of megabytes of
activation tensors, while ablation studies that do need the raw tensors
(``handle.weights`` / ``handle.activations``) still get bit-identical
arrays on demand.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.nn.densities import LayerSparsity
from repro.nn.inference import LayerWorkload, build_layer_workload
from repro.nn.layers import ConvLayerSpec


@dataclass
class WorkloadHandle:
    """Slim stand-in for one layer's :class:`LayerWorkload`.

    Duck-type compatible with ``LayerWorkload`` for every attribute the
    simulators, experiments and benchmarks read (``spec``, ``target``,
    ``weights``, ``activations``, ``weight_density``, ``activation_density``,
    ``dense_multiplies``).  The densities are measured on the first
    synthesis; a handle built from its recipe alone holds ``None`` until
    then.
    """

    network_name: str
    seed: int
    index: int
    spec: ConvLayerSpec
    target: LayerSparsity
    weight_density: Optional[float] = None
    activation_density: Optional[float] = None
    _materialized: Optional[LayerWorkload] = field(
        default=None, repr=False, compare=False
    )

    @classmethod
    def wrap(
        cls, workload: LayerWorkload, network_name: str, seed: int, index: int
    ) -> "WorkloadHandle":
        """Wrap an already-built workload, keeping its tensors in memory."""
        return cls(
            network_name=network_name,
            seed=seed,
            index=index,
            spec=workload.spec,
            target=workload.target,
            weight_density=workload.weight_density,
            activation_density=workload.activation_density,
            _materialized=workload,
        )

    @classmethod
    def build(
        cls, network_name: str, seed: int, index: int, spec: ConvLayerSpec,
        target: LayerSparsity,
    ) -> "WorkloadHandle":
        """Generate the workload now and wrap it."""
        handle = cls(network_name, seed, index, spec, target)
        handle.materialize()
        return handle

    def materialize(self) -> LayerWorkload:
        """The full workload, regenerating the tensors if necessary."""
        if self._materialized is None:
            rng = np.random.default_rng([self.seed, self.index])
            workload = build_layer_workload(
                self.network_name, self.spec, self.target, rng
            )
            if self.weight_density is None:
                self.weight_density = workload.weight_density
                self.activation_density = workload.activation_density
            self._materialized = workload
        return self._materialized

    def release(self) -> None:
        """Drop the tensors; the next access regenerates them."""
        self._materialized = None

    @property
    def materialized(self) -> bool:
        """Whether the tensors are in memory now."""
        return self._materialized is not None

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
