"""ZeNA baseline model (Kim, Ahn, Yoo, IEEE D&T 2018; paper Sec. IV).

The paper's strongest baseline: a 168-PE zero-aware accelerator that skips
multiply-accumulates whenever the weight *or* the activation is zero, at
16-bit or 8-bit precision. The paper chose it because it "provides the best
speedup for AlexNet by skipping both zero weights and activations".

Cycle model: only MACs with both operands nonzero are issued; sparsity-
induced load imbalance across PEs (ZeNA's known weakness) is captured by a
skip efficiency below Eyeriss' mapping efficiency. Like Eyeriss, cycle
counts are identical at 16 and 8 bits (same PE count).

Energy: weights are stored sparse (value + 4-bit zero-run index per nonzero,
Deep-Compression style), activations dense plus a one-bit zero mask used by
the skip logic.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..arch.energy import EnergyBreakdown
from ..arch.stats import LayerStats
from ..arch.workload import LayerWorkload
from .base import BaselineSimulator

__all__ = ["ZenaConfig", "ZenaSimulator", "zena16", "zena8"]


@dataclass(frozen=True)
class ZenaConfig:
    """Structural parameters (Table I)."""

    name: str = "zena16"
    n_pes: int = 168
    bits: int = 16
    acc_bits: int = 32
    #: PE utilization under zero-skipping (work imbalance between PEs)
    skip_efficiency: float = 0.65
    buffer_bytes: int = 393 * 1024


def zena16(buffer_bytes: int = 393 * 1024) -> ZenaConfig:
    return ZenaConfig(name="zena16", bits=16, buffer_bytes=buffer_bytes)


def zena8(buffer_bytes: int = 196 * 1024) -> ZenaConfig:
    return ZenaConfig(name="zena8", bits=8, buffer_bytes=buffer_bytes)


class ZenaSimulator(BaselineSimulator):
    """Cycle + energy model of the ZeNA baseline.

    ``obs`` hooks mirror the OLAccel simulator's: per-layer cycle and
    skipped-MAC counters under ``<config name>/<layer name>/…`` plus a
    wall-clock timer per network; disabled by default. ``acc`` is
    described in :class:`~repro.baselines.base.BaselineSimulator`.
    """

    #: index bits per stored nonzero weight (zero-run-length encoding)
    weight_index_bits = 4

    _default_config = staticmethod(zena16)

    def simulate_layer(self, layer: LayerWorkload) -> LayerStats:
        cfg = self.config
        bits = cfg.bits

        effective_macs = layer.macs * layer.weight_density * layer.act_density
        cycles = effective_macs / cfg.n_pes / cfg.skip_efficiency

        nonzero_weights = layer.weight_count * layer.weight_density
        weight_bits = nonzero_weights * (bits + self.weight_index_bits)
        in_bits = layer.input_count * (bits + 1)  # dense acts + zero mask
        out_bits = layer.output_count * (bits + 1)

        dram, buffer, local = self._memory_energy(layer, weight_bits, in_bits, out_bits, effective_macs)

        logic = effective_macs * self._mac_pj
        skipped = layer.macs - effective_macs
        logic += skipped * 0.1 * self.energy.params.ctrl_pj_per_op  # skip bookkeeping
        energy = EnergyBreakdown(dram, buffer, local, logic)

        if self.acc is not None:
            self._note_overflow_risk(layer)
        self.obs.count(
            layer.name,
            {
                "cycles": cycles,
                "run_cycles": cycles,
                "macs": layer.macs,
                "skipped_macs": skipped,
                "energy_pj": energy.total,
            },
        )
        return LayerStats(
            layer_name=layer.name,
            cycles=cycles,
            energy=energy,
            macs=layer.macs,
            ops_issued=effective_macs,
            run_cycles=cycles,
        )
