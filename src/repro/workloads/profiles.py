"""The density-profile library: sparsity as a swept axis.

The paper bakes one sparsity assumption into its evaluation — the per-layer
weight/activation densities measured on pruned networks (Figure 1).  This
module makes that assumption *one profile among many*: a
:class:`DensityProfile` maps any network to a per-layer
:class:`~repro.nn.densities.LayerSparsity` table, and a process-wide profile
registry lets workloads, scenarios and the CLI name the profile they want.

Built-in profiles:

* ``measured`` — the Figure 1 calibration
  (:func:`repro.nn.densities.network_sparsity`); what the paper networks use.
* ``dense`` — both operands fully dense (the no-sparsity baseline).
* ``uniform-10`` / ``uniform-25`` / ``uniform-50`` / ``uniform-75`` —
  uniform densities, the grid Figure 7 sweeps.
* ``decay-90-30`` — densities decaying linearly with depth from 0.9 to 0.3,
  the shape pruning typically produces on deep networks.

Parametric constructors (:func:`uniform_profile`, :func:`decay_profile`)
mint further profiles at any density, and :func:`register_profile`
publishes them so scenario validation, ``repro workloads --profiles`` and
workload specs can resolve them by name.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Union

from repro.nn.densities import (
    MIN_DENSITY,
    LayerSparsity,
    network_sparsity,
    uniform_sparsity,
)
from repro.nn.networks import Network


def clamp_density(value: float) -> float:
    """Clamp a density into the representable ``[MIN_DENSITY, 1.0]`` band.

    The floor is :data:`repro.nn.densities.MIN_DENSITY` — the same one the
    measured calibration clamps to, so profiles and the Figure 1 tables can
    never diverge on what "as sparse as representable" means.
    """
    return max(MIN_DENSITY, min(1.0, float(value)))


@dataclass(frozen=True)
class DensityProfile:
    """A named rule assigning operand densities to every layer of a network.

    ``fn`` receives the :class:`~repro.nn.networks.Network` and returns the
    per-layer table keyed by layer name — exactly the shape
    :func:`repro.nn.densities.network_sparsity` produces, so profiles and the
    measured calibration are interchangeable everywhere sparsity flows
    (engine, comparison sweeps, service scenarios).
    """

    name: str
    fn: Callable[[Network], Dict[str, LayerSparsity]] = field(compare=False)
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("a density profile needs a non-empty name")
        if not callable(self.fn):
            raise TypeError(f"profile {self.name!r}: fn must be callable")

    def table(self, network: Network) -> Dict[str, LayerSparsity]:
        """Per-layer sparsity table for ``network``, keyed by layer name."""
        table = self.fn(network)
        missing = [spec.name for spec in network.layers if spec.name not in table]
        if missing:
            raise KeyError(
                f"profile {self.name!r} assigned no density to layer(s) "
                f"{', '.join(map(repr, missing))} of {network.name}"
            )
        return table


# -- parametric constructors ------------------------------------------------------


def measured_profile() -> DensityProfile:
    """The paper's Figure 1 calibration as a profile."""
    return DensityProfile(
        name="measured",
        fn=network_sparsity,
        description="Per-layer densities measured on pruned networks "
        "(paper Figure 1); unknown networks fall back to 0.40/0.45.",
    )


def uniform_profile(
    density: float,
    *,
    activation_density: Optional[float] = None,
    name: Optional[str] = None,
) -> DensityProfile:
    """Every layer at one weight density (and optionally another for activations).

    This is the axis the Figure 7 sensitivity study sweeps; densities outside
    ``(0, 1]`` are rejected rather than clamped so sweep grids fail loudly.
    """
    activation = density if activation_density is None else activation_density
    for label, value in (("density", density), ("activation_density", activation)):
        if not 0.0 < value <= 1.0:
            raise ValueError(f"{label} must be in (0, 1], got {value}")
    if name is None:
        name = (
            f"uniform-{round(density * 100):d}"
            if activation == density
            else f"uniform-w{round(density * 100):d}-a{round(activation * 100):d}"
        )
    table = LayerSparsity(density, activation)

    def fn(network: Network) -> Dict[str, LayerSparsity]:
        if activation == density:
            # The Figure 7 sweep helper already builds exactly this table.
            return uniform_sparsity(network, density)
        return {spec.name: table for spec in network.layers}

    return DensityProfile(
        name=name,
        fn=fn,
        description=f"Uniform densities: weights {density:.2f}, "
        f"activations {activation:.2f} on every layer.",
    )


def decay_profile(
    start: float, end: float, *, name: Optional[str] = None
) -> DensityProfile:
    """Densities interpolated linearly with depth from ``start`` to ``end``.

    Pruned networks keep early layers denser than late ones (Figure 1 shows
    exactly this shape); the profile reproduces that trend parametrically.
    Both endpoints are clamped into the representable band, so ``end=0.0``
    degrades to :data:`MIN_DENSITY` instead of an invalid zero density.
    """
    start = clamp_density(start)
    end = clamp_density(end)
    if name is None:
        name = f"decay-{round(start * 100):d}-{round(end * 100):d}"

    def fn(network: Network) -> Dict[str, LayerSparsity]:
        count = len(network.layers)
        table: Dict[str, LayerSparsity] = {}
        for index, spec in enumerate(network.layers):
            fraction = index / (count - 1) if count > 1 else 0.0
            density = clamp_density(start + (end - start) * fraction)
            table[spec.name] = LayerSparsity(density, density)
        return table

    return DensityProfile(
        name=name,
        fn=fn,
        description=f"Densities decaying linearly with depth from "
        f"{start:.2f} to {end:.2f}.",
    )


# -- the process-wide profile registry --------------------------------------------

_profiles: Union[Dict[str, DensityProfile], None] = None
# One lock covers catalogue creation and every mutation/snapshot: profiles
# register at runtime while service threads resolve them during validation.
_profiles_lock = threading.Lock()


def _built_in_profiles() -> List[DensityProfile]:
    """The default profile catalogue, in presentation order."""
    return [
        measured_profile(),
        uniform_profile(1.0, name="dense"),
        uniform_profile(0.75),
        uniform_profile(0.50),
        uniform_profile(0.25),
        uniform_profile(0.10),
        decay_profile(0.9, 0.3),
    ]


def _key(name: str) -> str:
    """Catalogue key: lookups are case-insensitive, like the workload registry."""
    return name.strip().lower()


def _catalogue() -> Dict[str, DensityProfile]:
    """The live catalogue dict.  Caller holds ``_profiles_lock``."""
    global _profiles
    if _profiles is None:
        _profiles = {}
        for profile in _built_in_profiles():
            _profiles[_key(profile.name)] = profile
    return _profiles


def register_profile(profile: DensityProfile) -> DensityProfile:
    """Publish ``profile`` under its name; duplicate names are rejected."""
    key = _key(profile.name)
    with _profiles_lock:
        catalogue = _catalogue()
        if key in catalogue:
            raise ValueError(
                f"density profile {profile.name!r} is already registered"
            )
        catalogue[key] = profile
    return profile


def unregister_profile(name: str) -> None:
    """Remove a registered profile (tests clean up runtime registrations)."""
    with _profiles_lock:
        _catalogue().pop(_key(name), None)


def get_profile(name: str) -> DensityProfile:
    """The profile registered under ``name`` (case-insensitive).

    An unknown name raises a :class:`KeyError` that lists the catalogue,
    mirroring :meth:`repro.engine.ArchitectureRun.column`.
    """
    with _profiles_lock:
        profile = _catalogue().get(_key(name))
    if profile is None:
        known = ", ".join(map(repr, available_profiles())) or "(none)"
        raise KeyError(
            f"unknown density profile {name!r}; registered profiles: {known}"
        )
    return profile


def available_profiles() -> List[str]:
    """Registered profile names, in registration order."""
    with _profiles_lock:
        return [profile.name for profile in _catalogue().values()]
