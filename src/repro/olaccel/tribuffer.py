"""Cluster output tri-buffer and pipelined accumulation (paper Fig. 10).

The cluster output is triple-buffered: on any cycle the *normal*
accumulation unit reads/writes two of the three partial-sum buffers while
the *outlier* accumulation unit owns the third — the outlier unit only
touches a buffer once the normal unit has finished with it, so the two
units never race on a partial sum (the paper's coherence argument). This
module models that rotation explicitly so tests can assert the invariant,
and provides the pipeline drain cost the top-level simulator charges per
layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Set, Tuple

__all__ = ["TriBuffer", "accumulation_drain_cycles"]


@dataclass
class TriBuffer:
    """Rotation state of the three partial-sum buffers.

    ``step()`` advances one pipeline stage and returns the buffer indices
    assigned to (normal unit, outlier unit) for that stage, mirroring the
    paper's t0/t1 example: normal reads {0,1} at t0, {1,2} at t1 while the
    outlier unit takes {0}, and so on cyclically.
    """

    stage: int = 0
    history: List[Tuple[Set[int], Set[int]]] = field(default_factory=list)

    def step(self) -> Tuple[Set[int], Set[int]]:
        normal = {self.stage % 3, (self.stage + 1) % 3}
        # The outlier unit trails the normal unit by one stage and owns the
        # buffer the normal unit just released.
        outlier = {(self.stage + 2) % 3} if self.stage > 0 else set()
        self.stage += 1
        self.history.append((normal, outlier))
        return normal, outlier

    def run(self, stages: int) -> None:
        for _ in range(stages):
            self.step()

    @property
    def conflict_free(self) -> bool:
        """True when normal and outlier units never shared a buffer."""
        return all(not (normal & outlier) for normal, outlier in self.history)


def accumulation_drain_cycles(out_groups: int, pipeline_depth: int = 2) -> int:
    """Cycles to drain the accumulation pipeline at the end of a layer.

    The outlier accumulation unit trails the normal unit by one stage per
    output-channel group still in flight; with a ``pipeline_depth``-stage
    accumulate path the drain is a small additive term (it only matters for
    tiny layers).
    """
    if out_groups < 0:
        raise ValueError("out_groups must be non-negative")
    return pipeline_depth * (1 if 1 > out_groups else out_groups)
