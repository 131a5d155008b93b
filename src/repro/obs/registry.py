"""Hierarchical counter/timer registry — the core of ``repro.obs``.

Every simulator in the repository accepts an optional :class:`Registry`.
When one is supplied (and enabled) the simulators record named counters,
value histograms and wall-clock timers under a hierarchical ``a/b/c``
path built from nested :meth:`Registry.scope` blocks. When no registry is
supplied they fall back to :data:`NULL_REGISTRY`, whose instruments are
shared no-op singletons — the disabled path costs one attribute lookup
and an empty method call, so instrumentation can stay in hot loops.

Design rules:

- *No dependencies*: stdlib only (``time.perf_counter`` for timers).
- *Plain data out*: :meth:`Registry.snapshot` returns a flat
  ``{path: value}`` dict and :meth:`Registry.to_dict` a structured,
  JSON-ready document (see docs/EXPERIMENTS.md for the schema).
- *Deterministic*: counters and histograms only record what the caller
  passes in; iteration order is insertion order.
"""

from __future__ import annotations

import time
from typing import Dict, Iterator, List, Optional

__all__ = [
    "Counter",
    "Histogram",
    "Timer",
    "Scope",
    "Registry",
    "NULL_REGISTRY",
    "get_registry",
    "set_registry",
]


class Counter:
    """A named monotonically growing count (float to allow expectations)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def add(self, amount: float = 1.0) -> None:
        self.value += amount

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Counter({self.name}={self.value})"


class Histogram:
    """A named histogram over integer-bucketed observations.

    Tracks the full bucket map plus count/total/min/max so means and
    maxima survive serialization without the raw samples.
    """

    __slots__ = ("name", "buckets", "count", "total", "min", "max")

    def __init__(self, name: str):
        self.name = name
        self.buckets: Dict[int, int] = {}
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def record(self, value: float, count: int = 1) -> None:
        """Record ``value`` ``count`` times (exactly so for integer values)."""
        bucket = int(value)
        self.buckets[bucket] = self.buckets.get(bucket, 0) + count
        self.count += count
        self.total += value * count
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def to_dict(self) -> Dict[str, object]:
        return {
            "count": self.count,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "buckets": {str(k): v for k, v in sorted(self.buckets.items())},
        }


class Timer:
    """A named wall-clock timer; use as a context manager around the work."""

    __slots__ = ("name", "seconds", "calls", "_t0")

    def __init__(self, name: str):
        self.name = name
        self.seconds = 0.0
        self.calls = 0
        self._t0 = 0.0

    def __enter__(self) -> "Timer":
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.seconds += time.perf_counter() - self._t0
        self.calls += 1


class _NullCounter:
    __slots__ = ()

    def add(self, amount: float = 1.0) -> None:
        pass


class _NullHistogram:
    __slots__ = ()

    def record(self, value: float, count: int = 1) -> None:
        pass


class _NullTimer:
    __slots__ = ()

    def __enter__(self) -> "_NullTimer":
        return self

    def __exit__(self, *exc) -> None:
        pass


_NULL_COUNTER = _NullCounter()
_NULL_HISTOGRAM = _NullHistogram()
_NULL_TIMER = _NullTimer()


class Scope:
    """Context manager that pushes one path segment onto a registry."""

    __slots__ = ("_registry", "_name")

    def __init__(self, registry: "Registry", name: str):
        self._registry = registry
        self._name = name

    def __enter__(self) -> "Scope":
        self._registry._stack.append(self._name)
        return self

    def __exit__(self, *exc) -> None:
        self._registry._stack.pop()


class Registry:
    """Hierarchical home for counters, histograms and timers.

    ``Registry(enabled=False)`` hands out shared no-op instruments, so
    instrumented code pays near-zero cost when observability is off.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.counters: Dict[str, Counter] = {}
        self.histograms: Dict[str, Histogram] = {}
        self.timers: Dict[str, Timer] = {}
        self._stack: List[str] = []

    # -- path handling ------------------------------------------------------

    def _path(self, name: str) -> str:
        return "/".join(self._stack + [name]) if self._stack else name

    def scope(self, name: str) -> Scope:
        """Nest subsequent instrument names under ``name/``."""
        return Scope(self, name)

    # -- instruments --------------------------------------------------------

    def counter(self, name: str):
        if not self.enabled:
            return _NULL_COUNTER
        path = self._path(name)
        found = self.counters.get(path)
        if found is None:
            found = self.counters[path] = Counter(path)
        return found

    def histogram(self, name: str):
        if not self.enabled:
            return _NULL_HISTOGRAM
        path = self._path(name)
        found = self.histograms.get(path)
        if found is None:
            found = self.histograms[path] = Histogram(path)
        return found

    def timer(self, name: str):
        if not self.enabled:
            return _NULL_TIMER
        path = self._path(name)
        found = self.timers.get(path)
        if found is None:
            found = self.timers[path] = Timer(path)
        return found

    def count(self, scope: str, amounts: Dict[str, float]) -> None:
        """Add each ``name: amount`` to the counter ``<path>/<scope>/<name>``.

        One call does what a ``scope(scope)`` block of
        ``counter(name).add(amount)`` calls does, creating counters in
        ``amounts`` order; a disabled registry returns at once.
        """
        if not self.enabled:
            return
        prefix = self._path(scope) + "/"
        counters = self.counters
        for name, amount in amounts.items():
            path = prefix + name
            found = counters.get(path)
            if found is None:
                found = counters[path] = Counter(path)
            found.value += amount

    # -- export -------------------------------------------------------------

    def snapshot(self) -> Dict[str, float]:
        """Flat ``{path: value}`` view (counter values, timer seconds)."""
        out: Dict[str, float] = {path: c.value for path, c in self.counters.items()}
        out.update({f"{path}.seconds": t.seconds for path, t in self.timers.items()})
        return out

    def to_dict(self) -> Dict[str, object]:
        """Structured JSON-ready document of everything recorded."""
        return {
            "counters": {path: c.value for path, c in self.counters.items()},
            "histograms": {path: h.to_dict() for path, h in self.histograms.items()},
            "timers": {
                path: {"seconds": t.seconds, "calls": t.calls}
                for path, t in self.timers.items()
            },
        }

    def reset(self) -> None:
        self.counters.clear()
        self.histograms.clear()
        self.timers.clear()

    def iter_counters(self, prefix: str = "") -> Iterator[Counter]:
        for path, counter in self.counters.items():
            if path.startswith(prefix):
                yield counter


#: Shared disabled registry — the default ``obs`` of every simulator.
NULL_REGISTRY = Registry(enabled=False)

_active = NULL_REGISTRY


def get_registry() -> Registry:
    """The process-wide default registry (disabled unless replaced)."""
    return _active


def set_registry(registry: Optional[Registry]) -> Registry:
    """Swap the process-wide default registry; ``None`` restores the null.

    Returns the previous registry so callers can restore it.
    """
    global _active
    previous = _active
    _active = registry if registry is not None else NULL_REGISTRY
    return previous
