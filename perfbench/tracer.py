"""In-process span tracer that wraps the program's functions from outside.

Nothing in the program under test is edited: each traced function is
replaced, *where its caller looks it up* (``repro.scnn.simulator``'s global
``nonzero_multiplies``, a ``SimulationEngine`` method on the class), by a
wrapper that records one span per call.  Spans nest through a stack, so a
layer's **self time** is its span's duration minus the time its child spans
cover, and self times of all spans add up to the traced wall time without
double counting.

A span may carry a *label* (the conv layer it works on); spans without one
inherit their parent's, which is what fills the layer x stage table.
"""

from __future__ import annotations

import functools
import importlib
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Row of the layer x stage table for self time spent outside any layer
#: (network-level engine and comparison code).
OUTSIDE_LAYERS = "(outside layers)"


@dataclass
class SpanStats:
    """Aggregate of every span recorded under one name."""

    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    first_s: float = 0.0


@dataclass
class _Frame:
    name: str
    stage: Optional[str]
    label: Optional[str]
    start: float
    child_s: float = 0.0


@dataclass
class Tracer:
    """Records nested spans; aggregates per name and per (label, stage)."""

    clock: Callable[[], float] = time.perf_counter
    stats: Dict[str, SpanStats] = field(default_factory=dict)
    cells: Dict[Tuple[str, str], float] = field(default_factory=dict)
    counters: Dict[str, float] = field(default_factory=dict)
    missing: List[str] = field(default_factory=list)
    _stack: List[_Frame] = field(default_factory=list)
    _patches: List[Tuple[Any, str, Any]] = field(default_factory=list)

    # -- spans --------------------------------------------------------------------

    def push(self, name: str, stage: Optional[str] = None, label: Optional[str] = None) -> _Frame:
        """Open a span; it inherits the enclosing span's label if it has none."""
        if label is None and self._stack:
            label = self._stack[-1].label
        frame = _Frame(name, stage, label, self.clock())
        self._stack.append(frame)
        return frame

    def pop(self, frame: _Frame) -> None:
        """Close ``frame`` (the innermost open span) and account its time."""
        duration = self.clock() - frame.start
        popped = self._stack.pop()
        if popped is not frame:
            raise RuntimeError(f"span {frame.name!r} closed out of order")
        if self._stack:
            self._stack[-1].child_s += duration
        own = duration - frame.child_s
        stats = self.stats.setdefault(frame.name, SpanStats())
        if stats.calls == 0:
            stats.first_s = duration
        stats.calls += 1
        stats.total_s += duration
        stats.self_s += own
        if frame.stage is not None:
            key = (frame.label or OUTSIDE_LAYERS, frame.stage)
            self.cells[key] = self.cells.get(key, 0.0) + own

    def count(self, name: str, amount: float = 1) -> None:
        """Add ``amount`` to a named counter."""
        self.counters[name] = self.counters.get(name, 0) + amount

    def self_s(self, name: str) -> float:
        """Summed self time of every span called ``name`` (0 if none ran)."""
        stats = self.stats.get(name)
        return stats.self_s if stats else 0.0

    # -- wrapping -----------------------------------------------------------------

    def wrap(
        self,
        target: str,
        name: str,
        *,
        stage: Optional[str] = None,
        label: Optional[Callable[..., Optional[str]]] = None,
        on_result: Optional[Callable[["Tracer", Any], None]] = None,
    ) -> None:
        """Trace calls to ``target`` (``"module:attr"`` or ``"module:Class.attr"``).

        A target the program no longer has is recorded in :attr:`missing`
        instead of failing the run: its metrics then read zero, and the
        printout says why.
        """
        module_name, _, path = target.partition(":")
        try:
            owner: Any = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
        except (ImportError, AttributeError):
            self.missing.append(target)
            return
        tracer = self

        @functools.wraps(original)
        def traced(*args: Any, **kwargs: Any) -> Any:
            frame = tracer.push(name, stage, label(*args, **kwargs) if label else None)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.pop(frame)
            if on_result is not None:
                on_result(tracer, result)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def unwrap_all(self) -> None:
        """Restore every wrapped function, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
