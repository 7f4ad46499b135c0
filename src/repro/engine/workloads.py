"""Network workloads: each layer's :class:`~repro.nn.inference.WorkloadHandle`.

:func:`network_handles` resolves a network and its density table
(:func:`resolve_network_sparsity`) into one recipe handle per layer, with
nothing synthesised.  A handle pickles to a few hundred bytes and no
operand outlives the layer task that drew it, which is what keeps the
process pool, the on-disk cache and the engine's memo table cheap.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, Union

from repro.nn.densities import LayerSparsity, network_sparsity
from repro.nn.inference import WorkloadHandle
from repro.nn.networks import Network


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
