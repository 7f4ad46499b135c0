"""Cross-architecture comparison sweeps.

:func:`compare_network` evaluates one network on any set of registered
architectures and returns a :class:`NetworkComparison` — per-layer cycles and
energy for every architecture, with per-module and network-wide speedup /
energy-ratio / utilization aggregations relative to DCNN (:data:`BASELINE`;
a spec's ``baseline`` field is provenance metadata, not a sweep default).
:class:`NetworkComparison` is the only network-level view of a simulation:
Figure 8 is its speedup column, Figure 9 its utilization column, Figure 10
its energy column, and the service's ``network`` payload reads its totals.

Every architecture is an ordinary column of one evaluation, through the
shared :class:`~repro.engine.SimulationEngine` (cached, parallel):
:func:`~repro.arch.adapters.simulate_layer` gives each layer's cycles and
valid products, and
:func:`~repro.arch.adapters.price_energy` prices its energy, one accounting
for all.  The canonical trio (SCNN, DCNN, DCNN-opt) and every other
architecture (the sparsity ablations, granularity variants, anything a user
registers) are columns of one ``engine.run_architectures`` call, so a cold
comparison synthesises each layer once; the trio's columns assemble the
network simulation.  :func:`network_comparison` builds the rows with no
engine call, so a simulation already in hand (an example's, a service
payload's) is aggregated by the same code.  A renamed copy of a trio
architecture reproduces its original's rows exactly (pinned by
``tests/test_compare_equivalence.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Union

from repro.arch.adapters import ArchLayerResult, price_energy
from repro.arch.registry import get_architecture
from repro.arch.spec import ArchitectureSpec
from repro.nn.networks import Network
from repro.scnn.simulator import TRIO, NetworkSimulation, network_simulation

#: The paper's headline comparison (Figures 8 and 10).
DEFAULT_COMPARISON = ("DCNN", "DCNN-opt", "SCNN")

#: The architecture every speedup and energy ratio divides by (Figures 8
#: and 10).
BASELINE = "DCNN"


@dataclass(frozen=True)
class ArchLayerMetrics:
    """One layer of one architecture inside a comparison."""

    architecture: str
    layer: str
    module: str
    cycles: int
    operations: int
    multiplier_utilization: float
    idle_fraction: float
    energy_total: float


@dataclass
class NetworkComparison:
    """Per-layer, per-module and network-wide cross-architecture metrics.

    Every network-level number the figures, the service payloads and the
    examples report is one of these aggregations: each sums its layers in
    layer order, so its bits depend only on the per-layer results.
    """

    network: str
    seed: int
    baseline: str
    architectures: List[str]
    layers: Dict[str, List[ArchLayerMetrics]]
    oracle_cycles: List[int] = field(default_factory=list)

    def _column(self, architecture: str) -> List[ArchLayerMetrics]:
        try:
            return self.layers[architecture]
        except KeyError:
            known = ", ".join(map(repr, self.architectures)) or "(none)"
            raise KeyError(
                f"no compared architecture named {architecture!r}; "
                f"this comparison evaluated: {known}"
            ) from None

    # -- network-wide aggregation ----------------------------------------------

    def modules(self) -> List[str]:
        """Distinct module labels in first-appearance (layer) order."""
        seen: List[str] = []
        for metrics in self._column(self.baseline):
            if metrics.module not in seen:
                seen.append(metrics.module)
        return seen

    def total_cycles(self, architecture: str) -> int:
        """Summed cycles of one architecture across every layer."""
        return sum(metrics.cycles for metrics in self._column(architecture))

    def total_energy(self, architecture: str) -> float:
        """Summed energy (picojoules) of one architecture across every layer."""
        return sum(metrics.energy_total for metrics in self._column(architecture))

    def speedup(self, architecture: str) -> float:
        """Network speedup of ``architecture`` over the baseline."""
        cycles = self.total_cycles(architecture)
        if cycles == 0:
            return float("inf")
        return self.total_cycles(self.baseline) / cycles

    def energy_ratio(self, architecture: str) -> float:
        """Network energy relative to the baseline (lower is better)."""
        baseline = self.total_energy(self.baseline)
        if baseline == 0:
            return float("inf")
        return self.total_energy(architecture) / baseline

    def utilization(self, architecture: str) -> Dict[str, float]:
        """Cycle-weighted multiplier utilization and idle fraction over every
        layer (Figure 9's network averages); both are 0.0 when the
        architecture ran no cycles."""
        return _cycle_weighted(self._column(architecture))

    @property
    def oracle_total_cycles(self) -> int:
        """Summed oracle-bound cycles across every layer."""
        return sum(self.oracle_cycles)

    @property
    def oracle_speedup(self) -> float:
        """Network speedup of the oracular SCNN over the baseline."""
        oracle = self.oracle_total_cycles
        if oracle == 0:
            return float("inf")
        return self.total_cycles(self.baseline) / oracle

    # -- per-module aggregation -------------------------------------------------

    def _module_members(
        self, architecture: str, module: str
    ) -> List[ArchLayerMetrics]:
        return [m for m in self._column(architecture) if m.module == module]

    def module_cycles(self, module: str, architecture: str) -> int:
        """Summed cycles of one module on one architecture."""
        return sum(m.cycles for m in self._module_members(architecture, module))

    def module_speedup(self, module: str, architecture: str) -> float:
        """Module speedup over the baseline (Figure 8's bar groups)."""
        cycles = self.module_cycles(module, architecture)
        if cycles == 0:
            return float("inf")
        return self.module_cycles(module, self.baseline) / cycles

    def module_oracle_speedup(self, module: str) -> float:
        """Module speedup of the oracular SCNN over the baseline."""
        members = [
            self.oracle_cycles[index]
            for index, metrics in enumerate(self._column(self.baseline))
            if metrics.module == module
        ]
        oracle = sum(members)
        if oracle == 0:
            return float("inf")
        return self.module_cycles(module, self.baseline) / oracle

    def module_energy_ratio(self, module: str, architecture: str) -> float:
        """Module energy relative to the baseline (Figure 10's bar groups).

        Returns 0.0 when the baseline module energy is zero, matching the
        Figure 10 driver's guard.
        """
        baseline = sum(
            m.energy_total for m in self._module_members(self.baseline, module)
        )
        if not baseline:
            return 0.0
        total = sum(
            m.energy_total for m in self._module_members(architecture, module)
        )
        return total / baseline

    def module_utilization(self, module: str, architecture: str) -> Dict[str, float]:
        """Cycle-weighted multiplier utilization and idle fraction of a module
        (Figure 9's bars); both are 0.0 when the module ran no cycles."""
        return _cycle_weighted(self._module_members(architecture, module))


def _cycle_weighted(members: Sequence[ArchLayerMetrics]) -> Dict[str, float]:
    """Multiplier utilization and idle fraction of ``members``, each layer
    weighted by its cycles; both are 0.0 when the members ran no cycles."""
    total = sum(m.cycles for m in members)
    if total == 0:
        return {"multiplier_utilization": 0.0, "idle_fraction": 0.0}
    util = sum(m.multiplier_utilization * m.cycles for m in members)
    idle = sum(m.idle_fraction * m.cycles for m in members)
    return {
        "multiplier_utilization": util / total,
        "idle_fraction": idle / total,
    }


def _compared(architectures: Optional[Sequence[str]]) -> List[str]:
    """The requested names (the trio by default), each at its first
    request, with the baseline first when it was not listed."""
    names = list(dict.fromkeys(architectures or DEFAULT_COMPARISON))
    if BASELINE not in names:
        names.insert(0, BASELINE)
    return names


def _architecture_rows(
    spec: ArchitectureSpec,
    results: Sequence[ArchLayerResult],
    simulation: NetworkSimulation,
) -> List[ArchLayerMetrics]:
    """Every layer's row of one architecture, from its layer results.

    Energy is the one accounting, :func:`~repro.arch.adapters.price_energy`;
    a trio architecture's was priced when the network was simulated.
    """
    rows = []
    for layer, result in zip(simulation.layers, results):
        energy = layer.energy.get(spec.name) or price_energy(
            spec.config, result, layer.workload, layer.output_density
        )
        rows.append(
            ArchLayerMetrics(
                architecture=spec.name,
                layer=layer.layer_name,
                module=layer.module,
                cycles=result.cycles,
                operations=result.operations,
                multiplier_utilization=result.multiplier_utilization,
                idle_fraction=result.idle_fraction,
                energy_total=energy.total,
            )
        )
    return rows


def compare_network(
    network: Union[str, Network],
    architectures: Optional[Sequence[str]] = None,
    *,
    seed: int = 0,
    density_profile: Optional[str] = None,
    engine=None,
) -> NetworkComparison:
    """Evaluate ``network`` on every requested architecture.

    ``network`` accepts any registered workload name — the paper catalogue,
    the synthetic zoo, or anything registered at runtime (see
    :mod:`repro.workloads`) — or a :class:`Network` object.
    ``architectures`` defaults to the paper's headline trio
    (:data:`DEFAULT_COMPARISON`); any registered name is accepted, a name
    listed twice is compared once, and :data:`BASELINE` is always evaluated
    even when not listed.  ``density_profile`` names a registered
    :class:`~repro.workloads.profiles.DensityProfile` that overrides the
    workload's own densities — the hook that makes sparsity a swept axis of
    the comparison.  ``engine`` overrides the
    shared default :class:`~repro.engine.SimulationEngine` (the service's
    ``compare`` scenario passes its own warm engine).
    """
    from repro.engine import default_engine
    from repro.engine.workloads import network_handles

    if engine is None:
        engine = default_engine()
    names = _compared(architectures)
    # Fail fast (with the registry's catalogue-listing error) before any
    # simulation work starts.
    others = [get_architecture(name) for name in names if name not in TRIO]

    sparsity = None
    if density_profile is not None:
        from repro.workloads.profiles import get_profile
        from repro.workloads.registry import resolve_network

        network = resolve_network(network)
        sparsity = get_profile(density_profile).table(network)
    network, handles = network_handles(network, seed, sparsity=sparsity)
    grid = engine.run_architectures(handles, [*TRIO, *others])
    simulation = network_simulation(
        network,
        [(handle, row[: len(TRIO)]) for handle, row in zip(handles, grid.results)],
    )
    columns = {spec.name: grid.column(spec.name) for spec in others}
    return network_comparison(simulation, names, columns=columns)


def network_comparison(
    simulation: NetworkSimulation,
    architectures: Optional[Sequence[str]] = None,
    *,
    columns: Optional[Mapping[str, Sequence[ArchLayerResult]]] = None,
) -> NetworkComparison:
    """The comparison of an existing simulation, with no engine call.

    A trio architecture's rows come from each layer's ``results``; every
    other architecture's column (one layer result per layer, in layer
    order) is read from ``columns``.  ``architectures`` defaults to the
    paper's trio and :data:`BASELINE` is always compared.  The comparison's
    ``seed`` is the one the simulation's workloads were drawn at, which
    each engine layer's :class:`~repro.engine.workloads.WorkloadHandle`
    records (a network with no layers drew nothing and reads 0).
    """
    seed = simulation.layers[0].workload.seed if simulation.layers else 0
    names = _compared(architectures)
    columns = columns or {}
    rows = {}
    for name in names:
        if name in TRIO:
            results = [layer.results[name] for layer in simulation.layers]
        else:
            results = columns[name]
        rows[name] = _architecture_rows(get_architecture(name), results, simulation)
    return NetworkComparison(
        network=simulation.network.name,
        seed=seed,
        baseline=BASELINE,
        architectures=names,
        layers=rows,
        oracle_cycles=[int(layer.oracle_cycles) for layer in simulation.layers],
    )


def compare_networks(
    networks: Sequence[Union[str, Network]],
    architectures: Optional[Sequence[str]] = None,
    *,
    seed: int = 0,
    density_profile: Optional[str] = None,
    engine=None,
) -> Dict[str, NetworkComparison]:
    """Run :func:`compare_network` over several networks, keyed by name.

    Results are keyed by each network's *display* name (what the reports
    print).  Repeated requests for the same workload are deduplicated
    (harmless, as before); two *distinct* workloads whose builders produce
    the same display name would silently shadow each other, so that
    collision is an error — give the builders distinct ``Network`` names.
    """
    seen_requests = set()
    unique = []
    for network in networks:
        request_key = (
            network.strip().lower() if isinstance(network, str) else id(network)
        )
        if request_key in seen_requests:
            continue
        seen_requests.add(request_key)
        unique.append(network)
    comparisons: Dict[str, NetworkComparison] = {}
    for network in unique:
        comparison = compare_network(
            network,
            architectures,
            seed=seed,
            density_profile=density_profile,
            engine=engine,
        )
        existing = comparisons.get(comparison.network)
        if existing is not None:
            if existing == comparison:
                # Same workload requested under two spellings (name and
                # Network object, or two equal objects): a harmless repeat.
                continue
            raise ValueError(
                f"two requested workloads share the display name "
                f"{comparison.network!r}; results would overwrite each other "
                "— give their builders distinct Network names"
            )
        comparisons[comparison.network] = comparison
    return comparisons
