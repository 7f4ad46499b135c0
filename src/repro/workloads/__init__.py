"""The workload subsystem: registry, density profiles, synthetic generators.

Mirrors the architecture subsystem (:mod:`repro.arch`) on the workload axis:
every network the repository can simulate is declared as a
:class:`WorkloadSpec` — a network builder bound to a named density profile
plus provenance — and registered in the :class:`WorkloadRegistry`.  The
paper's Table I trio is defined here (built by the unchanged
:mod:`repro.nn.networks` builders); parametric synthetic generators and a
density-profile library widen the evaluated space far beyond it, making both
topology *and* sparsity swept axes.

Public surface:

* :func:`default_registry` / :func:`get_workload` /
  :func:`available_workloads` / :func:`register_workload` /
  :func:`resolve_network` / :func:`resolve_workload` — the catalogue
  (see :mod:`repro.workloads.registry`).
* :class:`WorkloadSpec` — the declarative description
  (see :mod:`repro.workloads.spec`).
* :class:`DensityProfile` / :func:`get_profile` / :func:`register_profile` /
  :func:`available_profiles` / :func:`uniform_profile` /
  :func:`decay_profile` — sparsity as data
  (see :mod:`repro.workloads.profiles`).
* :func:`plain_cnn` / :func:`resnet_style` / :func:`wide_shallow` /
  :func:`bottleneck_stack` — the synthetic generators
  (see :mod:`repro.workloads.synthetic`).

``repro.nn.networks.get_network`` and ``available_networks`` are shims over
this registry, so every consumer of those entry points — engine, comparison
sweeps, service scenarios, CLI — accepts registered workload names.
"""

from __future__ import annotations

from repro.workloads.profiles import (
    DensityProfile,
    available_profiles,
    decay_profile,
    get_profile,
    measured_profile,
    register_profile,
    uniform_profile,
)
from repro.workloads.registry import (
    WorkloadRegistry,
    available_workloads,
    default_registry,
    get_workload,
    register_workload,
    resolve_network,
    resolve_workload,
)
from repro.workloads.spec import WorkloadSpec
from repro.workloads.synthetic import (
    bottleneck_stack,
    plain_cnn,
    resnet_style,
    wide_shallow,
)

__all__ = [
    "DensityProfile",
    "WorkloadRegistry",
    "WorkloadSpec",
    "available_profiles",
    "available_workloads",
    "bottleneck_stack",
    "decay_profile",
    "default_registry",
    "get_profile",
    "get_workload",
    "measured_profile",
    "plain_cnn",
    "register_profile",
    "register_workload",
    "resnet_style",
    "resolve_network",
    "resolve_workload",
    "uniform_profile",
    "wide_shallow",
]
