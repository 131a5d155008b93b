"""PE-cluster scheduling (paper Fig. 6).

The cluster keeps its PE groups busy by handing a new activation chunk to
whichever group finishes first ("the PE cluster allocates new input
activation chunks to the PE groups that are ready"). With work units of
variable cost (sparsity makes some chunks cheap), this greedy dynamic
assignment is an LPT-style schedule whose makespan exceeds the ideal
``total_work / n_groups`` only by a fraction of one work unit.

:func:`schedule_passes` simulates the greedy assignment exactly (used for
small layers, tests, and the load-balance analysis);
:func:`load_balance_efficiency` is the closed-form estimate the full-size
layer simulator uses.
"""

from __future__ import annotations

from heapq import heapreplace
from typing import Sequence

__all__ = ["schedule_passes", "load_balance_efficiency"]


def schedule_passes(costs: Sequence[float], n_groups: int) -> float:
    """Makespan of greedily assigning pass ``costs`` to ``n_groups`` groups.

    Work units are dispatched in order to the earliest-available group,
    which is exactly the cluster's ready-group allocation policy.
    """
    if n_groups <= 0:
        raise ValueError("n_groups must be positive")
    heap = [0.0] * n_groups
    for cost in costs:
        if cost < 0:
            raise ValueError("pass costs must be non-negative")
        heapreplace(heap, heap[0] + cost)
    return max(heap)


def load_balance_efficiency(n_passes: float, n_groups: int, mean_cost: float = 8.0) -> float:
    """Fraction of ideal throughput achieved by dynamic chunk allocation.

    Greedy dispatch wastes at most ~one work unit per group at the end of
    the layer, so the efficiency is ``ideal / (ideal + tail)`` with
    ``tail ~ mean_cost / 2``. For the millions of passes in a real conv
    layer this is ~1; it only bites for tiny layers.

    ``n_groups`` must be positive (``OLAccelSimulator`` checks it once
    per design). It may be a float64 vector of group counts, one per
    design of a batch; the result is then a vector too.
    """
    if n_passes <= 0:
        return 1.0
    ideal = n_passes * mean_cost / n_groups
    tail = mean_cost / 2.0
    return ideal / (ideal + tail)
