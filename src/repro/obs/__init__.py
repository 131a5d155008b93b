"""``repro.obs`` — dependency-free observability for every simulator.

Three pieces:

- :mod:`repro.obs.registry` — hierarchical :class:`Counter`,
  :class:`Histogram` and wall-clock :class:`Timer` instruments grouped
  under ``a/b/c`` paths by nested :meth:`Registry.scope` blocks, with a
  shared no-op fast path when disabled;
- :mod:`repro.obs.trace` — bounded, timestamped event traces
  (:class:`Tracer`) for the cycle-stepped event simulator;
- JSON-ready export via ``Registry.to_dict()`` / ``Tracer.to_dicts()``,
  consumed by ``repro profile`` and the ``--json`` CLI flags.

Every simulator (`OLAccelSimulator`, `EyerissSimulator`,
`ZenaSimulator`, `ClusterSim`) takes an optional ``obs=Registry(...)``;
without one they use :data:`NULL_REGISTRY` and record nothing.
See docs/ARCHITECTURE.md for where each hook sits.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".registry": (
            "Counter",
            "Histogram",
            "NULL_REGISTRY",
            "Registry",
            "Scope",
            "Timer",
            "get_registry",
            "set_registry",
        ),
        ".trace": ("NULL_TRACER", "TraceEvent", "Tracer"),
    },
)
