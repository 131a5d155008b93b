"""Microarchitectural simulation of one PE cluster, exact to the cycle.

The analytic model in :mod:`repro.olaccel.accelerator` aggregates expected
pass costs; this module instead follows every pass of a small batch
through the hardware, modelling exactly:

- the PE-group front end: quad-at-a-time zero scanning (one cycle per
  all-zero quad), one broadcast cycle per nonzero activation, a stall
  cycle when the paired weight chunk spills (``ol_ptr`` set, Fig. 8);
- dynamic pass dispatch: each cycle, every idle group grabs the next
  pending pass from the cluster queue (Fig. 6's ready-group allocation);
- the outlier PE group draining the outlier-activation FIFO one broadcast
  per cycle (Fig. 9);
- the accumulation back end: the normal unit merges at most two group
  results per cycle and the outlier unit one, a stage behind, through the
  tri-buffer (Fig. 10) — results queue up when the units are saturated.

It exists to *cross-validate* the fast analytic model: tests drive both on
identical workloads and require agreement.

:meth:`ClusterSim.run` computes a run in a few array passes rather than
a cycle loop: the per-pass micro-op schedule (quad zero-scan / broadcast
/ spill-stall) collapses to three counted terms per pass, greedy queue
dispatch replays as a (next-free-cycle, group-index) heap, and the
accumulation backlog follows the Lindley recursion
``Q_c = max(0, Q_{c-1} + arrivals_c - bandwidth)`` evaluated with a
cumulative-sum/running-minimum identity. An attached registry or tracer
observes that same computation: the per-cycle histograms and per-pass
trace events are read off its arrays. The cycle-by-cycle stepper it is
held to, bit for bit, is :func:`repro.reference.cluster_run_scalar`
(docs/PERFORMANCE.md).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..arch.chunks import LANES
from ..errors import ChunkIntegrityError, ConfigError
from ..obs import NULL_REGISTRY, NULL_TRACER, Registry, Tracer
from .pe_group import pass_op_counts

__all__ = [
    "PassDescriptor",
    "PassMatrix",
    "ClusterSim",
    "ClusterResult",
    "passes_from_levels",
]


@dataclass(frozen=True)
class PassDescriptor:
    """One unit of PE-group work: an activation chunk against weight chunks.

    ``activations`` is the 16-lane chunk (normal-stream levels, outliers
    already diverted); ``spill`` flags, per lane, whether the weight chunk
    consumed by that lane's broadcast has multiple outliers (2-cycle op).
    """

    activations: Sequence[int]
    spill: Sequence[bool]

    def __post_init__(self):
        if len(self.activations) != LANES or len(self.spill) != LANES:
            raise ChunkIntegrityError(f"pass descriptors are {LANES} lanes wide", field="lanes")


class PassMatrix(Sequence):
    """A pass batch held as flat arrays, materializing descriptors lazily.

    :func:`passes_from_levels` returns this instead of a descriptor list:
    :meth:`ClusterSim.run` consumes ``acts`` / ``spill`` directly (no
    per-pass Python objects), while scalar consumers — the reference
    stepper, or anything indexing the sequence — get real
    :class:`PassDescriptor` objects on demand.
    """

    def __init__(self, acts: np.ndarray, spill: np.ndarray):
        self.acts = acts
        self.spill = spill

    def __len__(self) -> int:
        return self.acts.shape[0]

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        row = self.acts[index]
        srow = self.spill[index]
        return PassDescriptor(
            tuple(int(v) for v in row), tuple(bool(s) for s in srow)
        )


@dataclass
class ClusterResult:
    """Outcome of a cluster run."""

    cycles: int
    run_cycles: int
    skip_cycles: int
    idle_cycles: int
    outlier_cycles: int
    accumulation_stalls: int
    passes: int
    tri_buffer_conflict_free: bool
    #: micro-op split of ``run_cycles`` (broadcast vs spill stall)
    bcast_cycles: int = 0
    stall_cycles: int = 0
    #: deepest pass backlog observed in the cluster queue
    max_queue_depth: int = 0


class ClusterSim:
    """A PE cluster: N group front ends + outlier group + accumulation.

    Pass ``obs=Registry(...)`` to record micro-op counters (``ops/skip``,
    ``ops/bcast``, ``ops/stall``), per-cycle queue-depth and
    pending-result histograms, and tri-buffer occupancy; pass
    ``tracer=Tracer(...)`` for timestamped per-pass completion events.
    Both default to shared no-ops, and neither changes how :meth:`run`
    computes. The simulator holds only its configuration, so one
    instance can run any number of batches.
    """

    def __init__(
        self,
        n_groups: int = 6,
        accumulation_bandwidth: int = 2,
        obs: Optional[Registry] = None,
        tracer: Optional[Tracer] = None,
    ):
        if n_groups < 1:
            raise ConfigError("n_groups must be >= 1")
        self.n_groups = n_groups
        self.accumulation_bandwidth = accumulation_bandwidth
        self.obs = obs if obs is not None else NULL_REGISTRY
        self.tracer = tracer if tracer is not None else NULL_TRACER

    def run(
        self,
        passes: Sequence[PassDescriptor],
        outlier_broadcasts: int = 0,
        max_cycles: int = 10_000_000,
    ) -> ClusterResult:
        """Run all passes to completion and return cycle statistics.

        Per pass, the micro-op schedule reduces to counts — skips
        (all-zero quads), broadcasts (nonzero lanes) and stalls (spilled
        nonzero lanes) — whose sum is the pass length. Greedy per-cycle
        dispatch of a static queue is equivalent to assigning each pass
        to the earliest-free group (ties by group index), replayed with
        a heap in O(P log G). Completions per cycle then feed the
        accumulation queue's Lindley recursion, evaluated closed-form
        with a cumulative sum and a running minimum.

        Raises :class:`RuntimeError` when the run needs ``max_cycles``
        cycles or more; an attached registry or tracer has then seen the
        first ``max_cycles`` cycles and no counters.
        """
        n_passes = len(passes)
        outlier_done = int(outlier_broadcasts)
        bw = self.accumulation_bandwidth

        if isinstance(passes, PassMatrix):
            acts, spill = passes.acts, passes.spill
        else:
            acts = np.asarray([p.activations for p in passes], dtype=np.int64).reshape(n_passes, LANES)
            spill = np.asarray([p.spill for p in passes], dtype=bool).reshape(n_passes, LANES)
        bcast_p, stall_p, skip_p = pass_op_counts(acts, spill)
        length_p = bcast_p + stall_p + skip_p

        # Greedy dispatch replay: pass i starts the cycle its group frees.
        finish_p = np.empty(n_passes, dtype=np.int64)
        group_p = np.empty(n_passes, dtype=np.int64)
        heap: List[Tuple[int, int]] = [(1, g) for g in range(self.n_groups)]
        for i, length in enumerate(length_p.tolist()):
            free, g = heapq.heappop(heap)
            finish_p[i] = free + length - 1
            group_p[i] = g
            heapq.heappush(heap, (free + length, g))

        last_finish = int(finish_p.max(initial=0))
        arrivals = np.bincount(finish_p, minlength=last_finish + 1)[1:]

        # Accumulation backlog: Q_c = max(0, Q_{c-1} + a_c - bw) unrolls to
        # S_c - min(0, min_{j<=c} S_j) with S_c = cumsum(a)_c - bw*c.
        s = np.cumsum(arrivals, dtype=np.int64) - bw * np.arange(1, last_finish + 1, dtype=np.int64)
        q = s - np.minimum(np.minimum.accumulate(s), 0)
        # Results waiting before each cycle's merge: the backlog plus that
        # cycle's arrivals, then the leftover backlog draining at bw.
        q_prev = np.concatenate(([0], q))[:-1]
        q_final = int(q[-1]) if q.size else 0
        waiting = np.concatenate((q_prev + arrivals, np.arange(q_final, 0, -bw)))
        cycles = max(waiting.size, outlier_done)

        horizon = max(0, min(cycles, max_cycles))
        if self.obs.enabled:
            self._record_histograms(horizon, waiting, finish_p - length_p + 1)
        if self.tracer.enabled:
            order = np.lexsort((group_p, finish_p))
            for cycle, group in zip(finish_p[order].tolist(), group_p[order].tolist()):
                if cycle > horizon:
                    break
                self.tracer.emit(cycle, "pass_done", group=group)
        if cycles >= max_cycles:
            raise RuntimeError(f"cluster did not converge within {max_cycles} cycles")

        bcast = int(bcast_p.sum())
        stall = int(stall_p.sum())
        skip = int(skip_p.sum())
        result = ClusterResult(
            cycles=cycles,
            run_cycles=bcast + stall,
            skip_cycles=skip,
            idle_cycles=cycles * self.n_groups - int(length_p.sum()),
            outlier_cycles=outlier_done,
            accumulation_stalls=int((waiting > bw).sum()),
            passes=n_passes,
            tri_buffer_conflict_free=True,
            bcast_cycles=bcast,
            stall_cycles=stall,
            max_queue_depth=n_passes,
        )
        _record_counters(self.obs, result)
        return result

    def _record_histograms(self, horizon: int, waiting: np.ndarray, start_p: np.ndarray) -> None:
        """The per-cycle histograms of cycles 1..``horizon``, one
        :meth:`~repro.obs.registry.Histogram.record` per distinct value."""
        # Queue depth (sampled before dispatch) is the passes not started
        # yet. Starts never decrease, so depth n-k holds on the cycles
        # after start[k-1] up to start[k].
        edges = np.concatenate(([0], np.minimum(start_p, horizon), [horizon]))
        _record_counts(self.obs.histogram("queue_depth"), np.diff(edges)[::-1])
        # Pending results, zero through the outlier tail.
        waiting = waiting[:horizon]
        counts = np.bincount(waiting, minlength=1)
        counts[0] += horizon - waiting.size
        _record_counts(self.obs.histogram("pending_results"), counts)
        # Tri-buffer (TriBuffer rotation): the first merging cycle holds
        # the normal unit's two buffers, every later one the outlier's too.
        tri = self.obs.histogram("tribuffer_active")
        active = int(np.count_nonzero(waiting))
        if active:
            tri.record(2)
        if active > 1:
            tri.record(3, active - 1)


def _record_counts(histogram, counts: np.ndarray) -> None:
    """Record each value ``v`` ``counts[v]`` times."""
    for value in np.flatnonzero(counts).tolist():
        histogram.record(value, int(counts[value]))


def _record_counters(obs: Registry, result: ClusterResult) -> None:
    """Add a finished run's totals to ``obs`` (shared with the stepper)."""
    with obs.scope("ops"):
        obs.counter("skip").add(result.skip_cycles)
        obs.counter("bcast").add(result.bcast_cycles)
        obs.counter("stall").add(result.stall_cycles)
    obs.counter("run_cycles").add(result.run_cycles)
    obs.counter("skip_cycles").add(result.skip_cycles)
    obs.counter("idle_cycles").add(result.idle_cycles)
    obs.counter("cycles").add(result.cycles)
    obs.counter("passes").add(result.passes)
    obs.counter("outlier_broadcasts").add(result.outlier_cycles)
    obs.counter("accumulation_stalls").add(result.accumulation_stalls)


def passes_from_levels(
    act_levels: np.ndarray,
    spill_flags: Optional[np.ndarray] = None,
) -> PassMatrix:
    """Build a pass batch from an (n_passes, 16) activation level array.

    ``spill_flags`` (same shape, boolean) marks lanes whose weight chunk
    has multiple outliers; defaults to no spills. Returns a
    :class:`PassMatrix` — a sequence of :class:`PassDescriptor`\\ s whose
    backing arrays the vectorized cluster run consumes without ever
    building the per-pass objects.
    """
    act_levels = np.asarray(act_levels, dtype=np.int64)
    if act_levels.ndim != 2 or act_levels.shape[1] != LANES:
        raise ConfigError(f"expected (n, {LANES}) activation levels, got {act_levels.shape}")
    if spill_flags is None:
        spill_flags = np.zeros(act_levels.shape, dtype=bool)
    spill_flags = np.asarray(spill_flags, dtype=bool)
    if spill_flags.shape != act_levels.shape:
        raise ConfigError("spill_flags must match act_levels shape")
    return PassMatrix(act_levels, spill_flags)
