"""Shared fixtures for the benchmark harness.

Each benchmark regenerates one of the paper's tables or figures and asserts
the landmark relationships the paper reports (who wins, by roughly what
factor, where the crossovers fall).  The expensive part — building the
synthetic workloads and simulating all 72 convolutional layers — is done once
per session through the experiment layer's own cache, so the timed section of
each benchmark measures the table/figure regeneration itself.
"""

from __future__ import annotations

import pytest

from repro.experiments.common import EVALUATED_NETWORKS, cached_simulation


@pytest.fixture(scope="session")
def warm_simulations():
    """Build the per-network simulations once for the whole benchmark session."""
    return {name: cached_simulation(name) for name in EVALUATED_NETWORKS}


@pytest.fixture(scope="session")
def alexnet_simulation():
    return cached_simulation("alexnet")


@pytest.fixture(scope="session")
def alexnet_masks(alexnet_simulation):
    """``(spec, weight mask, activation mask)`` of every AlexNet layer.

    A handle's ``masks()`` redraws the operands on every call, so the
    ablations that sweep the cycle model over these layers draw them once.
    """
    return [
        (layer.workload.spec, *layer.workload.masks())
        for layer in alexnet_simulation.layers
    ]
