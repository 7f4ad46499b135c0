"""Declarative workload descriptions.

A :class:`WorkloadSpec` is to networks what
:class:`~repro.arch.spec.ArchitectureSpec` is to accelerators: one registered
workload as *data* — a network builder, the name of the density profile its
operands are generated at, and provenance metadata (paper table, synthetic
family, tags).  Registering a spec (see :mod:`repro.workloads.registry`) is
all it takes for a workload to be accepted by ``get_network``, the engine's
``run_network``/``sweep``, the comparison sweeps, the service scenarios and
the CLI.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Tuple

from repro.nn.densities import LayerSparsity
from repro.nn.networks import Network
from repro.workloads.profiles import get_profile


@dataclass(frozen=True)
class WorkloadSpec:
    """One registered workload: network builder + density profile + provenance.

    Attributes:
        name: registry key (lower-case by convention, e.g. ``alexnet``,
            ``plain-cnn-8``); what every ``network`` parameter accepts.
        builder: zero-argument callable producing the
            :class:`~repro.nn.networks.Network`.  Builder *options* are
            frozen into the spec (``googlenet-stem`` pins
            ``include_stem=True``), so every variant is reachable by name.
        density_profile: name of the registered
            :class:`~repro.workloads.profiles.DensityProfile` the operand
            tensors are generated at; resolved live, so a profile registered
            after the spec still applies.
        description: one-line human-readable summary.
        paper_reference: where the workload comes from in the paper, if
            anywhere (``Table I`` for the evaluated trio).
        source: provenance family — ``paper``, ``synthetic`` or ``user``.
        tags: free-form labels the catalogue views filter on.
    """

    name: str
    builder: Callable[[], Network] = field(compare=False)
    density_profile: str = "measured"
    description: str = ""
    paper_reference: str = ""
    source: str = "user"
    tags: Tuple[str, ...] = field(default=())

    def __post_init__(self) -> None:
        if not self.name or not self.name.strip():
            raise ValueError("a workload spec needs a non-empty name")
        if not callable(self.builder):
            raise TypeError(f"workload {self.name!r}: builder must be callable")
        if not self.density_profile:
            raise ValueError(f"workload {self.name!r} names no density profile")

    def build(self) -> Network:
        """Construct the network (a fresh object on every call)."""
        return self.builder()

    def sparsity(self, network: Network = None) -> Dict[str, LayerSparsity]:
        """Per-layer density table from the spec's profile.

        ``network`` avoids rebuilding when the caller already holds one;
        the profile is resolved against the live profile registry.
        """
        if network is None:
            network = self.build()
        return get_profile(self.density_profile).table(network)
