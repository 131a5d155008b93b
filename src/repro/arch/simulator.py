"""Network loop and activation-spill policy shared by the analytic simulators.

OLAccel, Eyeriss and ZeNA account a network alike (Sec. IV): layers run in
order, activations spill to DRAM once a layer's input+output outgrows the
on-chip buffer, and the final output is written back to DRAM. Subclasses
supply ``simulate_layer(layer) -> LayerStats``.
"""

from __future__ import annotations

from ..obs import NULL_REGISTRY, Registry
from .energy import EnergyModel
from .stats import RunStats
from .workload import NetworkWorkload

__all__ = ["AnalyticSimulator", "larger"]


def larger(a, b):
    """``a if a > b else b``, per element when an operand is an array.

    On floats this is that expression. An array comparison gives an
    array of flags, and ``numpy.where(a > b, a, b)`` makes the same
    choice for each element, signed zeros and NaNs included. numpy is
    imported only then, so scalar callers never load it.
    """
    flags = a > b
    if flags is True:
        return a
    if flags is False:
        return b
    import numpy

    return numpy.where(flags, a, b)


class AnalyticSimulator:
    """Base of the per-layer cycle + energy models.

    ``buffer_bits`` is the on-chip activation buffer a layer spills past;
    ``io_bits`` is the width at which the network's output is written
    back to DRAM. ``obs`` defaults to the disabled registry. In a batch
    of designs (``OLAccelSimulator.batch``) both widths are float64
    vectors, one entry per design.
    """

    def __init__(self, config, energy: EnergyModel, obs: Registry, buffer_bits: int, io_bits: int):
        self.config = config
        self.energy = energy
        self.obs = obs if obs is not None else NULL_REGISTRY
        self._buffer_bits = buffer_bits
        self._io_bits = io_bits
        self._dram_pj_per_bit = energy.params.dram_pj_per_bit

    def _dram_energy(
        self, weight_bits: float, in_bits: float, out_bits: float, is_first: bool
    ) -> float:
        """Weights stream in once; activations past the buffer go out and
        back; the first layer also reads the raw network input.

        No sum is taken in place: an array argument is the caller's,
        which it still reads afterwards."""
        dram_bits = weight_bits + 2.0 * larger(in_bits + out_bits - self._buffer_bits, 0.0)
        if is_first:
            dram_bits = dram_bits + in_bits
        return self._dram_pj_per_bit * dram_bits

    def simulate_network(self, network: NetworkWorkload) -> RunStats:
        """Simulate every layer; adds the final output's DRAM write."""
        stats = RunStats(accelerator=self.config.name, network=network.name)
        with self.obs.timer(f"simulate/{network.name}"), self.obs.scope(self.config.name):
            for layer in network.layers:
                stats.add(self.simulate_layer(layer))
        if stats.layers:
            last = network.layers[-1]
            stats.layers[-1].energy.dram += self.energy.dram_energy(
                last.output_count * self._io_bits
            )
        return stats
