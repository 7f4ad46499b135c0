"""Shared fixtures for the test suite.

All fixtures use fixed seeds so test failures are reproducible, and all layer
shapes are kept small enough that the element-exact functional simulator runs
in well under a second per layer.

Concurrency safety nets (see docs/static_analysis.md):

* background-thread exceptions are captured via ``threading.excepthook``
  and fail the test that spawned them — a worker thread dying silently is
  a bug, not background noise;
* ``faulthandler`` is enabled so a hung or crashed run dumps every
  thread's stack;
* ``pytest --track-locks`` patches the service/engine/obs lock sites with
  :mod:`repro.devtools.locks` tracked wrappers and fails the session if
  the observed lock-order graph contains a cycle (a potential deadlock),
  turning the 64-way burst tests into a deadlock detector.
"""

from __future__ import annotations

import faulthandler
import threading
import traceback
from typing import List, Tuple

import numpy as np
import pytest

from repro.nn.layers import ConvLayerSpec

from _helpers import make_workload

faulthandler.enable()

# -- background-thread exception capture ------------------------------------

_THREAD_FAILURES: List[str] = []
_ORIGINAL_EXCEPTHOOK = threading.excepthook


def _capturing_excepthook(args: threading.ExceptHookArgs) -> None:
    """Record the failure for the owning test, then chain to the original."""
    if args.exc_type is not SystemExit:
        detail = "".join(
            traceback.format_exception(
                args.exc_type, args.exc_value, args.exc_traceback
            )
        )
        thread_name = args.thread.name if args.thread is not None else "?"
        _THREAD_FAILURES.append(f"thread {thread_name!r} died:\n{detail}")
    _ORIGINAL_EXCEPTHOOK(args)


threading.excepthook = _capturing_excepthook


@pytest.fixture(autouse=True)
def _fail_on_background_thread_exceptions():
    """Fail any test during which a background thread raised."""
    before = len(_THREAD_FAILURES)
    yield
    new = _THREAD_FAILURES[before:]
    if new:
        pytest.fail(
            "background thread(s) raised during this test:\n" + "\n".join(new),
            pytrace=False,
        )


# -- opt-in lock-order tracking (pytest --track-locks) ----------------------


def pytest_addoption(parser: pytest.Parser) -> None:
    """Register the ``--track-locks`` opt-in flag."""
    parser.addoption(
        "--track-locks",
        action="store_true",
        default=False,
        help=(
            "patch service/engine/obs lock sites with tracked wrappers; "
            "fail the session on lock-order cycles (potential deadlocks)"
        ),
    )


@pytest.fixture(scope="session", autouse=True)
def _lock_order_tracking(request: pytest.FixtureRequest):
    """When ``--track-locks`` is given, track every lock created during the
    session and fail at teardown if the acquisition graph has a cycle."""
    if not request.config.getoption("--track-locks"):
        yield None
        return
    from repro.devtools.locks import track_locks

    with track_locks() as tracker:
        yield tracker
    cycles = tracker.cycles()
    for violation in tracker.io_violations:
        # Reported, not fatal: the journal write under the queue lock is
        # an accepted design decision (see docs/static_analysis.md).
        print(f"[track-locks] io-under-lock: {violation.format()}")
    if cycles:
        rendered = "; ".join(" <-> ".join(cycle) for cycle in cycles)
        pytest.fail(
            f"lock-order cycle(s) observed (potential deadlock): {rendered}",
            pytrace=False,
        )


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


@pytest.fixture
def small_spec() -> ConvLayerSpec:
    """A small 3x3 same-padded layer, the most common shape in the catalogues."""
    return ConvLayerSpec(
        "small_3x3", in_channels=8, out_channels=16,
        input_height=14, input_width=14,
        filter_height=3, filter_width=3, padding=1,
    )


@pytest.fixture
def strided_spec() -> ConvLayerSpec:
    """A strided, unpadded layer (AlexNet-conv1 style, scaled down)."""
    return ConvLayerSpec(
        "strided_5x5", in_channels=3, out_channels=8,
        input_height=23, input_width=23,
        filter_height=5, filter_width=5, stride=2, padding=0,
    )


@pytest.fixture
def grouped_spec() -> ConvLayerSpec:
    """A grouped convolution (AlexNet conv2 style, scaled down)."""
    return ConvLayerSpec(
        "grouped_3x3", in_channels=8, out_channels=16,
        input_height=13, input_width=13,
        filter_height=3, filter_width=3, padding=1, groups=2,
    )


@pytest.fixture
def pointwise_spec() -> ConvLayerSpec:
    """A 1x1 layer on a small plane (GoogLeNet late-inception style)."""
    return ConvLayerSpec(
        "pointwise", in_channels=24, out_channels=16,
        input_height=7, input_width=7,
        filter_height=1, filter_width=1,
    )


# Each ``*_workload`` fixture is its spec's float (weights, activations).


@pytest.fixture
def small_workload(small_spec) -> Tuple[np.ndarray, np.ndarray]:
    return make_workload(small_spec)


@pytest.fixture
def strided_workload(strided_spec) -> Tuple[np.ndarray, np.ndarray]:
    return make_workload(strided_spec, weight_density=0.6, activation_density=0.8)


@pytest.fixture
def grouped_workload(grouped_spec) -> Tuple[np.ndarray, np.ndarray]:
    return make_workload(grouped_spec, weight_density=0.45, activation_density=0.5)


@pytest.fixture
def pointwise_workload(pointwise_spec) -> Tuple[np.ndarray, np.ndarray]:
    return make_workload(pointwise_spec, weight_density=0.3, activation_density=0.35)
