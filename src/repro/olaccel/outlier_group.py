"""Outlier PE group model (paper Fig. 9).

Each cluster has one outlier PE group with 17 mixed-precision MAC units
(``act_outlier_bits x 4``). Outlier activations arrive as sparse
(value, coordinates) chunks from the swarm buffer FIFO; each is broadcast
to the 16 lanes, producing partial sums for one output-channel group per
cycle — structurally the same dataflow as the normal group but on sparse
high-precision data, running in parallel with the dense computation. The
outlier accumulation unit merges its partial sums through the tri-buffer
one pipeline stage behind the normal unit (Fig. 10), so outlier work only
extends the layer when it exceeds the dense work.
"""

from __future__ import annotations

from typing import NamedTuple

__all__ = ["OutlierWork", "outlier_work"]


class OutlierWork(NamedTuple):
    """Outlier-path load for one layer."""

    outlier_activations: float  # sparse high-precision activations fetched
    broadcasts: float  # (outlier act x kernel position x out-group) ops
    cycles_per_group: float  # broadcasts / number of outlier groups

    #: high-precision value width for FIFO sizing (16 in the 16-bit
    #: comparison, 8 in the 8-bit one)
    value_bits: int = 16

    @property
    def fifo_bits(self) -> float:
        """Swarm-buffer FIFO traffic per Fig. 9's outlier chunks.

        Each entry is the high-precision value plus three coordinates
        (8-bit width/height indices and an 8-bit channel-chunk index).
        """
        return self.outlier_activations * (self.value_bits + 24.0)


def outlier_work(
    input_activations: float,
    act_density: float,
    act_outlier_ratio: float,
    broadcast_slots_per_input: float,
    n_outlier_groups: int,
    value_bits: int = 16,
) -> OutlierWork:
    """Compute the outlier PE groups' load for a layer.

    ``act_outlier_ratio`` is the fraction of *nonzero* input activations
    above the calibrated threshold (Sec. II); each outlier activation
    needs ``broadcast_slots_per_input`` broadcasts (kernel positions x
    output-channel groups it contributes to), spread over the clusters'
    outlier groups.
    """
    if n_outlier_groups <= 0:
        raise ValueError("n_outlier_groups must be positive")
    if not 0.0 <= act_outlier_ratio <= 1.0:
        raise ValueError(f"act_outlier_ratio must be in [0, 1], got {act_outlier_ratio}")
    outliers = input_activations * act_density * act_outlier_ratio
    broadcasts = outliers * broadcast_slots_per_input
    return OutlierWork(
        outlier_activations=outliers,
        broadcasts=broadcasts,
        cycles_per_group=broadcasts / n_outlier_groups,
        value_bits=value_bits,
    )
