"""Ordered event traces for the cycle-level simulators.

Counters (``repro.obs.registry``) answer "how many"; traces answer
"when". A :class:`Tracer` collects timestamped :class:`TraceEvent`
records — pass completions in the event simulator, layer boundaries in
the per-layer simulators — into a bounded ring so tracing a long run
cannot exhaust memory. Like the registry, a disabled tracer degrades to
a shared no-op singleton.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List

__all__ = ["TraceEvent", "Tracer", "NULL_TRACER"]


@dataclass(frozen=True)
class TraceEvent:
    """One timestamped simulator event.

    ``cycle`` is the simulated cycle (or layer index for per-layer
    events); ``kind`` is a short category like ``pass_done`` or
    ``layer``; ``payload`` holds small JSON-able details.
    """

    cycle: int
    kind: str
    payload: Dict[str, Any] = field(default_factory=dict)


class Tracer:
    """Bounded collector of :class:`TraceEvent` records."""

    def __init__(self, capacity: int = 65536, enabled: bool = True):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.enabled = enabled
        self._ring: Deque[TraceEvent] = deque(maxlen=capacity)
        #: events discarded once the ring filled (oldest are dropped)
        self.dropped = 0

    @property
    def events(self) -> List[TraceEvent]:
        """The retained events, oldest first (a list copy of the ring)."""
        return list(self._ring)

    def emit(self, cycle: int, kind: str, **payload: Any) -> None:
        if not self.enabled:
            return
        if len(self._ring) == self.capacity:
            self.dropped += 1  # the full ring's append drops the oldest
        self._ring.append(TraceEvent(cycle=cycle, kind=kind, payload=payload))

    def of_kind(self, kind: str) -> List[TraceEvent]:
        return [e for e in self._ring if e.kind == kind]

    def to_dicts(self) -> List[Dict[str, Any]]:
        return [
            {"cycle": e.cycle, "kind": e.kind, **e.payload} for e in self._ring
        ]

    def reset(self) -> None:
        self._ring.clear()
        self.dropped = 0


class _NullTracer(Tracer):
    def __init__(self):
        super().__init__(capacity=1, enabled=False)

    def emit(self, cycle: int, kind: str, **payload: Any) -> None:
        pass


#: Shared disabled tracer — the default of every traced simulator.
NULL_TRACER: Tracer = _NullTracer()
