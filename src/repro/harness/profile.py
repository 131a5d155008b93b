"""``repro profile`` — wall-clock + simulated-cycle report for a network.

Profiles two distinct clocks for every accelerator in the comparison:

- **simulated time**: total modelled cycles at the paper's 250 MHz
  synthesis clock (Sec. IV), split into run/skip/idle where the model
  distinguishes them;
- **wall-clock time**: how long *our simulator* took to produce those
  numbers, from ``repro.obs`` timers — the number a perf PR must move.

A micro-trace section runs the cluster event simulator
(:class:`~repro.olaccel.event_sim.ClusterSim`) with a registry attached
on passes synthesized from the first sparse conv layer's measured
density/outlier statistics, and reports the micro-op counts
(skip/bcast/stall) plus the queue-depth histogram's mean and maximum.
The registry observes the same vectorized run an unobserved simulator
computes, so the profile times production code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import numpy as np

from ..arch.stats import STATS_SCHEMA_VERSION, RunStats
from ..obs import Registry
from ..olaccel import ClusterSim, passes_from_levels
from .report import format_table
from .workloads import paper_workload

__all__ = ["ProfileRow", "ProfileResult", "profile_network", "CLOCK_MHZ"]

#: The paper's synthesis clock (Sec. IV): 65 nm / 1.0 V / 250 MHz.
CLOCK_MHZ = 250.0


@dataclass
class ProfileRow:
    """One accelerator's cost on the profiled network."""

    accelerator: str
    layers: int
    sim_cycles: float
    sim_ms: float  # simulated time at CLOCK_MHZ
    wall_ms: float  # simulator wall-clock
    run_fraction: float
    skip_fraction: float
    idle_fraction: float


@dataclass
class ProfileResult:
    """Profile of every accelerator on one network, plus an event micro-trace."""

    network: str
    ratio: float
    rows: List[ProfileRow] = field(default_factory=list)
    #: event-sim micro-trace: micro-op counts and queue/backlog pressure
    event_trace: Dict[str, Any] = field(default_factory=dict)
    #: flat obs-counter snapshot (per accelerator/layer paths)
    counters: Dict[str, float] = field(default_factory=dict)

    def format(self) -> str:
        table_rows = [
            (
                r.accelerator,
                r.layers,
                f"{r.sim_cycles:.3e}",
                f"{r.sim_ms:.3f}",
                f"{r.wall_ms:.2f}",
                f"{r.run_fraction:.3f}",
                f"{r.skip_fraction:.3f}",
                f"{r.idle_fraction:.3f}",
            )
            for r in self.rows
        ]
        table = format_table(
            ["accelerator", "layers", "sim cycles", "sim ms", "wall ms", "run", "skip", "idle"],
            table_rows,
            title=(
                f"Profile — {self.network} (ratio {self.ratio}, "
                f"{CLOCK_MHZ:.0f} MHz clock; run/skip/idle as group-cycle fractions)"
            ),
        )
        trace = self.event_trace
        lines = [table]
        if trace:
            lines.append(
                "event-sim micro-trace ({passes} passes, layer {layer}): "
                "skip={skip} bcast={bcast} stall={stall} cycles={cycles} "
                "queue depth mean={queue_mean:.1f} max={queue_max}".format(**trace)
            )
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, Any]:
        """Versioned plain-dict form of the profile (documented schema)."""
        return {
            "schema_version": STATS_SCHEMA_VERSION,
            "kind": "profile",
            "network": self.network,
            "ratio": self.ratio,
            "clock_mhz": CLOCK_MHZ,
            "rows": [
                {
                    "accelerator": r.accelerator,
                    "layers": r.layers,
                    "sim_cycles": r.sim_cycles,
                    "sim_ms": r.sim_ms,
                    "wall_ms": r.wall_ms,
                    "run_fraction": r.run_fraction,
                    "skip_fraction": r.skip_fraction,
                    "idle_fraction": r.idle_fraction,
                }
                for r in self.rows
            ],
            "event_trace": dict(self.event_trace),
            "counters": dict(self.counters),
        }


def _fractions(run: RunStats, n_lanes_cycles: float) -> tuple:
    """Run/skip/idle shares of the total lane-cycle budget."""
    if n_lanes_cycles <= 0:
        return 0.0, 0.0, 0.0
    return (
        run.total_run_cycles / n_lanes_cycles,
        run.total_skip_cycles / n_lanes_cycles,
        run.total_idle_cycles / n_lanes_cycles,
    )


def profile_network(
    network: str,
    ratio: float = 0.03,
    event_sim_passes: int = 512,
    seed: Optional[int] = None,
) -> ProfileResult:
    """Profile every accelerator on ``network``; see module docstring.

    ``seed`` drives the synthesized event-sim micro-trace (``repro
    profile --seed``); ``None`` means the historical 0.
    """
    # Imported here (not at module top) to avoid a circular import with
    # experiments.py, which re-exports both modules via the package init.
    from .experiments import ALL_ACCELERATORS, _simulator

    seed = 0 if seed is None else seed

    workload = paper_workload(network, ratio=ratio)
    result = ProfileResult(network=network, ratio=ratio)
    obs = Registry()
    for kind in ALL_ACCELERATORS:
        sim = _simulator(kind, network, ratio, obs=obs)
        with obs.timer(f"wall/{kind}"):
            run = sim.simulate_network(workload)
        wall_ms = obs.timers[f"wall/{kind}"].seconds * 1e3
        if kind.startswith("olaccel"):
            budget = run.total_cycles * sim.config.n_groups
        else:
            budget = run.total_cycles
        run_f, skip_f, idle_f = _fractions(run, budget)
        result.rows.append(
            ProfileRow(
                accelerator=kind,
                layers=len(run.layers),
                sim_cycles=run.total_cycles,
                sim_ms=run.total_cycles / (CLOCK_MHZ * 1e3),
                wall_ms=wall_ms,
                run_fraction=run_f,
                skip_fraction=skip_f,
                idle_fraction=idle_f,
            )
        )

    result.event_trace = _event_micro_trace(workload, event_sim_passes, seed)
    result.counters = obs.snapshot()
    return result


def _event_micro_trace(workload, n_passes: int, seed: int) -> Dict[str, Any]:
    """Simulate synthesized passes matching a real layer's statistics."""
    sparse = [layer for layer in workload.layers if not layer.is_first]
    if not sparse or n_passes <= 0:
        return {}
    layer = sparse[0]
    rng = np.random.default_rng(seed)
    density = layer.act_density * (1.0 - layer.act_outlier_ratio)
    levels = (rng.random((n_passes, 16)) < density) * rng.integers(1, 16, size=(n_passes, 16))
    flags = rng.random((n_passes, 16)) < layer.weight_outlier_ratio
    obs = Registry()
    sim = ClusterSim(n_groups=6, obs=obs)
    outcome = sim.run(passes_from_levels(levels, flags))
    queue = obs.histograms["queue_depth"]
    return {
        "layer": layer.name,
        "passes": outcome.passes,
        "cycles": outcome.cycles,
        "skip": outcome.skip_cycles,
        "bcast": outcome.bcast_cycles,
        "stall": outcome.stall_cycles,
        "queue_mean": queue.mean,
        "queue_max": queue.max,
    }
