"""The scenario registry: named, validated, reusable request shapes.

A *scenario* is a named unit of work a client can submit over the wire —
"simulate this network", "re-run the Figure 8 study", "sweep the DSE
candidates" — with a declared parameter schema.  The registry validates and
normalises a request's parameters *before* the job is queued, so malformed
requests fail at submission time with a clear message instead of inside a
worker thread.

Every scenario runner is a pure function of ``(engine, params)`` returning
a JSON-serializable payload (built by :mod:`repro.analysis.serialization`),
and every built-in scenario routes through the shared
:class:`~repro.engine.SimulationEngine` — so repeated submissions of the
same scenario are served from the engine's content-addressed cache.

:func:`default_registry` registers the repo's catalogue: single-layer and
full-network simulation, the DSE sweep, the paper-figure regenerations
(Figure 8, Figure 10, Table II) adapted from :mod:`repro.experiments`, and
the cross-architecture ``compare`` sweep over the architecture registry
(:mod:`repro.arch`).

Network parameters accept any name the workload registry
(:mod:`repro.workloads`) knows, with choices resolved against the *live*
registry at validation time — a workload (or density profile, or
architecture) registered after the service booted is accepted immediately
rather than rejected by a schema frozen at boot.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.analysis.serialization import (
    comparison_payload,
    design_points_payload,
    simulation_payload,
    to_jsonable,
)
from repro.arch.registry import SCNN_CONFIG
from repro.engine import SimulationEngine, WorkloadHandle
from repro.nn.networks import available_networks, get_network
from repro.timeloop.dse import default_candidates


class ScenarioError(ValueError):
    """A request names an unknown scenario or carries invalid parameters."""


_REQUIRED = object()  # sentinel: parameter has no default, caller must supply


@dataclass(frozen=True)
class Parameter:
    """One declared scenario parameter.

    ``choices`` constrains string values to a closed set.  It accepts either
    a tuple (frozen at registration) or a *callable* returning the current
    set — callables are re-evaluated on every :meth:`coerce` and
    :meth:`describe`, so a parameter backed by a live registry (workload
    names, architecture names) accepts entries registered after the scenario
    registry was built instead of rejecting them with a stale "must be one
    of" error.
    """

    name: str
    type: str  # "int" | "float" | "bool" | "str" | "list[str]"
    description: str = ""
    default: Any = _REQUIRED
    choices: Union[None, Tuple[str, ...], Callable[[], Sequence[str]]] = None

    @property
    def required(self) -> bool:
        return self.default is _REQUIRED

    def resolved_choices(self) -> Optional[Tuple[str, ...]]:
        """The accepted values *right now* (callables hit the live source)."""
        if self.choices is None:
            return None
        choices = self.choices() if callable(self.choices) else self.choices
        return tuple(choices)

    def describe(self) -> Dict[str, Any]:
        """JSON-able schema entry for this parameter (``GET /scenarios``)."""
        info: Dict[str, Any] = {
            "name": self.name,
            "type": self.type,
            "description": self.description,
            "required": self.required,
        }
        if not self.required:
            info["default"] = self.default
        choices = self.resolved_choices()
        if choices is not None:
            info["choices"] = list(choices)
        return info

    def coerce(self, value: Any) -> Any:
        """Validate ``value`` against this parameter's type and choices."""
        if self.type == "int":
            # JSON encoders in several client stacks float-ize every number,
            # so {"priority": 4.0} must mean the integer 4.
            if isinstance(value, bool):
                raise ScenarioError(f"parameter {self.name!r} must be an integer")
            if isinstance(value, float):
                if not value.is_integer():
                    raise ScenarioError(
                        f"parameter {self.name!r} must be an integer"
                    )
                value = int(value)
            elif not isinstance(value, int):
                raise ScenarioError(f"parameter {self.name!r} must be an integer")
        elif self.type == "float":
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ScenarioError(f"parameter {self.name!r} must be a number")
            value = float(value)
        elif self.type == "bool":
            if not isinstance(value, bool):
                raise ScenarioError(f"parameter {self.name!r} must be a boolean")
        elif self.type == "str":
            if not isinstance(value, str):
                raise ScenarioError(f"parameter {self.name!r} must be a string")
        elif self.type == "list[str]":
            if isinstance(value, str):
                # CLI convenience: "alexnet,googlenet" means a two-item list.
                value = [part.strip() for part in value.split(",") if part.strip()]
            if not isinstance(value, (list, tuple)) or not all(
                isinstance(item, str) for item in value
            ):
                raise ScenarioError(
                    f"parameter {self.name!r} must be a list of strings"
                )
            value = list(value)
        else:  # pragma: no cover - registration-time programming error
            raise ScenarioError(f"parameter {self.name!r} has unknown type {self.type!r}")
        choices = self.resolved_choices()
        if choices is not None:
            # Match case-insensitively and substitute the canonical spelling,
            # mirroring how the registries themselves resolve names — a
            # client sending "AlexNet" means the registered "alexnet".
            canonical = {choice.strip().lower(): choice for choice in choices}
            values = value if self.type == "list[str]" else [value]
            normalised = []
            for item in values:
                if item in choices:
                    normalised.append(item)
                    continue
                match = canonical.get(item.strip().lower())
                if match is None:
                    raise ScenarioError(
                        f"parameter {self.name!r} must be one of "
                        f"{', '.join(choices)}; got {item!r}"
                    )
                normalised.append(match)
            value = normalised if self.type == "list[str]" else normalised[0]
        return value


@dataclass(frozen=True)
class Scenario:
    """A named request shape: parameter schema plus runner."""

    name: str
    description: str
    runner: Callable[[SimulationEngine, Dict[str, Any]], Any]
    parameters: Tuple[Parameter, ...] = ()

    def validate(self, params: Optional[Dict[str, Any]]) -> Dict[str, Any]:
        """Normalised parameters: defaults applied, types/choices enforced."""
        params = dict(params or {})
        known = {parameter.name for parameter in self.parameters}
        unknown = sorted(set(params) - known)
        if unknown:
            raise ScenarioError(
                f"scenario {self.name!r} does not accept parameter(s) "
                f"{', '.join(map(repr, unknown))}; known: "
                f"{', '.join(sorted(known)) or '(none)'}"
            )
        normalised: Dict[str, Any] = {}
        for parameter in self.parameters:
            if parameter.name in params:
                normalised[parameter.name] = parameter.coerce(params[parameter.name])
            elif parameter.required:
                raise ScenarioError(
                    f"scenario {self.name!r} requires parameter {parameter.name!r}"
                )
            else:
                normalised[parameter.name] = parameter.default
        return normalised

    def run(self, engine: SimulationEngine, params: Dict[str, Any]) -> Any:
        """Validate ``params`` and invoke the runner on ``engine``."""
        return self.runner(engine, self.validate(params))

    def describe(self) -> Dict[str, Any]:
        """JSON-able catalogue entry: name, description, parameter schema."""
        return {
            "name": self.name,
            "description": self.description,
            "parameters": [parameter.describe() for parameter in self.parameters],
        }


class ScenarioRegistry:
    """Name → :class:`Scenario` mapping with a JSON-able catalogue view."""

    def __init__(self) -> None:
        self._scenarios: Dict[str, Scenario] = {}

    def register(self, scenario: Scenario) -> Scenario:
        """Add ``scenario`` under its name; duplicate names are an error."""
        if scenario.name in self._scenarios:
            raise ValueError(f"scenario {scenario.name!r} is already registered")
        self._scenarios[scenario.name] = scenario
        return scenario

    def get(self, name: str) -> Scenario:
        """The scenario registered as ``name``; :class:`ScenarioError` if unknown."""
        try:
            return self._scenarios[name]
        except KeyError:
            raise ScenarioError(
                f"unknown scenario {name!r}; available: {', '.join(self.names())}"
            ) from None

    def names(self) -> List[str]:
        """Registered scenario names, sorted."""
        return sorted(self._scenarios)

    def describe(self) -> List[Dict[str, Any]]:
        """The full catalogue as JSON-able entries, sorted by name."""
        return [self._scenarios[name].describe() for name in self.names()]

    def __contains__(self, name: str) -> bool:
        return name in self._scenarios

    def __len__(self) -> int:
        return len(self._scenarios)


# -- built-in scenario runners --------------------------------------------------


def _live_network_choices() -> Tuple[str, ...]:
    """Workload names from the *live* registry (resolved at validation time).

    Passed as a callable ``choices`` so a workload registered after
    :func:`default_registry` built the scenario catalogue is accepted
    instead of tripping a stale "must be one of" error.
    """
    return tuple(available_networks())


def _network_parameter(description: str) -> Parameter:
    return Parameter(
        "network",
        "str",
        description,
        default="alexnet",
        choices=_live_network_choices,
    )


def _live_profile_choices() -> Tuple[str, ...]:
    """Density-profile names from the live registry, plus the empty default.

    Resolved at validation time like :func:`_live_network_choices`, so a
    typo'd profile is rejected with an immediate 400 instead of failing
    asynchronously inside a worker.
    """
    from repro.workloads.profiles import available_profiles

    return ("",) + tuple(available_profiles())


def _density_profile_parameter() -> Parameter:
    return Parameter(
        "density_profile",
        "str",
        "density profile overriding the workload's own (see "
        "`repro workloads --profiles`); empty = the workload's profile",
        default="",
        choices=_live_profile_choices,
    )


def _resolve_profile(profile_name: str):
    """The named density profile, or ``None`` for the empty name.

    Like the ``compare`` scenario's architecture check, the profile is
    resolved against the live profile registry here (not frozen into the
    schema), with the catalogue-listing error surfacing as a
    :class:`ScenarioError` before any simulation work starts.
    """
    if not profile_name:
        return None
    from repro.workloads.profiles import get_profile

    try:
        return get_profile(profile_name)
    except KeyError as error:
        raise ScenarioError(error.args[0]) from None


def _run_single_layer(engine: SimulationEngine, params: Dict[str, Any]) -> Any:
    from repro.workloads.registry import resolve_workload

    network, sparsity = resolve_workload(params["network"])
    names = [spec.name for spec in network.layers]
    try:
        index = names.index(params["layer"])
    except ValueError:
        raise ScenarioError(
            f"network {network.name!r} has no layer {params['layer']!r}; "
            f"layers: {', '.join(names)}"
        ) from None
    spec = network.layers[index]
    # A recipe handle: a cache hit draws nothing.
    handle = WorkloadHandle(
        network.name, params["seed"], index, spec, sparsity[spec.name]
    )
    [result] = engine.run_architectures([handle], ["SCNN"]).column("SCNN")
    return {
        "workloads": [spec.name],
        "configs": ["SCNN"],
        "cycles": [[result.cycles]],
        "products": [[result.operations]],
        "total_cycles": {"SCNN": result.cycles},
        "network": network.name,
        "layer": spec.name,
    }


def _run_network(engine: SimulationEngine, params: Dict[str, Any]) -> Any:
    profile = _resolve_profile(params["density_profile"])
    if profile is None:
        # The engine resolves the name itself (the spec's profile applies).
        simulation = engine.run_network(params["network"], seed=params["seed"])
    else:
        network = get_network(params["network"])
        simulation = engine.run_network(
            network, seed=params["seed"], sparsity=profile.table(network)
        )
    return simulation_payload(simulation)


def _run_dse_sweep(engine: SimulationEngine, params: Dict[str, Any]) -> Any:
    candidates = list(default_candidates())
    if params["include_baseline"]:
        candidates.insert(0, SCNN_CONFIG)
    points = engine.sweep(candidates, params["network"])
    payload = design_points_payload(points)
    payload["network"] = params["network"]
    return payload


def _run_fig8(engine: SimulationEngine, params: Dict[str, Any]) -> Any:
    from repro.experiments import fig8_performance

    reports = fig8_performance.run(
        networks=tuple(params["networks"]), seed=params["seed"], engine=engine
    )
    return {
        "reports": {name: to_jsonable(report) for name, report in reports.items()},
        "average_speedup": fig8_performance.average_speedup(reports),
    }


def _run_fig10(engine: SimulationEngine, params: Dict[str, Any]) -> Any:
    from repro.experiments import fig10_energy

    reports = fig10_energy.run(
        networks=tuple(params["networks"]), seed=params["seed"], engine=engine
    )
    return {
        "reports": {name: to_jsonable(report) for name, report in reports.items()},
        "average_improvements": fig10_energy.average_improvements(reports),
    }


def _run_table2(engine: SimulationEngine, params: Dict[str, Any]) -> Any:
    from repro.experiments import table2_design_params

    return table2_design_params.payload()


def _run_compare(engine: SimulationEngine, params: Dict[str, Any]) -> Any:
    from repro.arch.compare import compare_networks
    from repro.arch.registry import get_architecture

    # Architecture names are validated against the *live* registry here (not
    # frozen into the parameter schema), so names registered after the
    # service booted are accepted; unknown names fail with the registry's
    # catalogue-listing message before any simulation work starts.
    try:
        for name in params["architectures"]:
            get_architecture(name)
    except KeyError as error:
        raise ScenarioError(error.args[0]) from None
    _resolve_profile(params["density_profile"])
    try:
        comparisons = compare_networks(
            params["networks"],
            params["architectures"],
            seed=params["seed"],
            density_profile=params["density_profile"] or None,
            engine=engine,
        )
    except ValueError as error:
        # Display-name collision between distinct workloads: surface it as a
        # clean scenario failure rather than an anonymous worker traceback.
        raise ScenarioError(error.args[0]) from None
    return {
        "comparisons": {
            name: comparison_payload(comparison)
            for name, comparison in comparisons.items()
        }
    }


def default_registry() -> ScenarioRegistry:
    """The repo's scenario catalogue, freshly constructed."""
    seed = Parameter("seed", "int", "workload generation seed", default=0)
    # The default stays the paper's evaluated trio; the *accepted* names are
    # resolved against the live workload registry at validation time, so a
    # workload registered after this scenario catalogue was built (or after
    # the service booted) is accepted rather than rejected by a frozen
    # choices tuple.
    networks = Parameter(
        "networks",
        "list[str]",
        "workloads to evaluate (any registered workload name; see "
        "`repro workloads --list`)",
        default=["alexnet", "googlenet", "vggnet"],
        choices=_live_network_choices,
    )
    registry = ScenarioRegistry()
    registry.register(
        Scenario(
            "layer",
            "Cycle-model evaluation of one layer on the SCNN configuration.",
            _run_single_layer,
            (
                _network_parameter("network the layer belongs to"),
                Parameter("layer", "str", "layer name, e.g. conv1"),
                seed,
            ),
        )
    )
    registry.register(
        Scenario(
            "network",
            "Full network simulation (SCNN + DCNN + oracle + energy).",
            _run_network,
            (
                _network_parameter("registered workload to simulate"),
                seed,
                _density_profile_parameter(),
            ),
        )
    )
    registry.register(
        Scenario(
            "dse_sweep",
            "Design-space sweep over the paper's candidate configurations, "
            "with the Pareto frontier.",
            _run_dse_sweep,
            (
                _network_parameter("network the candidates are evaluated on"),
                Parameter(
                    "include_baseline",
                    "bool",
                    "include the paper's SCNN design point as candidate 0",
                    default=True,
                ),
            ),
        )
    )
    registry.register(
        Scenario(
            "fig8",
            "Regenerate Figure 8: per-layer and network speedup over DCNN.",
            _run_fig8,
            (networks, seed),
        )
    )
    registry.register(
        Scenario(
            "fig10",
            "Regenerate Figure 10: energy relative to DCNN and DCNN-opt.",
            _run_fig10,
            (networks, seed),
        )
    )
    registry.register(
        Scenario(
            "table2",
            "Regenerate Table II: the SCNN design parameters vs the paper.",
            _run_table2,
        )
    )
    registry.register(
        Scenario(
            "compare",
            "Cross-architecture comparison sweep: speedup and energy of any "
            "registered architectures relative to the DCNN baseline.",
            _run_compare,
            (
                networks,
                Parameter(
                    "architectures",
                    "list[str]",
                    "registered architectures to compare (checked against "
                    "the live registry at run time; see "
                    "`repro compare --list`)",
                    default=["DCNN", "DCNN-opt", "SCNN"],
                ),
                seed,
                _density_profile_parameter(),
            ),
        )
    )
    return registry
