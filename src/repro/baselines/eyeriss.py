"""Eyeriss baseline model (Chen et al., ISCA 2016; paper Sec. IV).

The paper's dense baseline: a 165-PE row-stationary accelerator at 16-bit
or 8-bit precision. For zero input activations Eyeriss does **not** save
cycles — it clock-gates the MAC, saving only the datapath switching energy.
Hence its cycle count is sparsity-independent (identical for the 16- and
8-bit variants, as the paper notes), while its logic energy scales with the
nonzero ratio.

Energy accounting mirrors the component split of Figs. 11-13:

- **DRAM** — dense weights at full precision, network input/output, and
  activation overflow past the on-chip buffer (a real effect for VGG-scale
  activations at 16 bits);
- **Buffer** — the global buffer: activation reads with row reuse,
  activation writes, weights streamed through once;
- **Local** — PE scratchpads: activation + weight operand per MAC and a
  fraction of partial-sum read/writes (row-stationary keeps most psum
  movement inside the PE array);
- **Logic** — full-precision MACs for nonzero activations, clock-gated
  control energy for zeros.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..arch.energy import EnergyBreakdown
from ..arch.stats import LayerStats
from ..arch.workload import LayerWorkload
from .base import BaselineSimulator

__all__ = ["EyerissConfig", "EyerissSimulator", "eyeriss16", "eyeriss8"]


@dataclass(frozen=True)
class EyerissConfig:
    """Structural parameters (Table I)."""

    name: str = "eyeriss16"
    n_pes: int = 165
    bits: int = 16
    acc_bits: int = 32
    #: row-stationary mapping efficiency (PE-array utilization)
    mapping_efficiency: float = 0.9
    #: on-chip activation buffer in bytes (per-network, Table I)
    buffer_bytes: int = 393 * 1024


def eyeriss16(buffer_bytes: int = 393 * 1024) -> EyerissConfig:
    return EyerissConfig(name="eyeriss16", bits=16, buffer_bytes=buffer_bytes)


def eyeriss8(buffer_bytes: int = 196 * 1024) -> EyerissConfig:
    return EyerissConfig(name="eyeriss8", bits=8, buffer_bytes=buffer_bytes)


class EyerissSimulator(BaselineSimulator):
    """Cycle + energy model of the Eyeriss baseline.

    ``obs`` hooks mirror the OLAccel simulator's: per-layer cycle and
    gated-op counters under ``<config name>/<layer name>/…`` plus a
    wall-clock timer per network; disabled by default. ``acc`` is
    described in :class:`~repro.baselines.base.BaselineSimulator`.
    """

    _default_config = staticmethod(eyeriss16)

    def simulate_layer(self, layer: LayerWorkload) -> LayerStats:
        cfg = self.config
        macs = layer.macs

        # Cycles: dense — every MAC slot is issued, zeros are gated not skipped.
        cycles = macs / cfg.n_pes / cfg.mapping_efficiency

        weight_bits = layer.weight_count * cfg.bits
        in_bits = layer.input_count * cfg.bits
        out_bits = layer.output_count * cfg.bits

        dram, buffer, local = self._memory_energy(layer, weight_bits, in_bits, out_bits, macs)

        nonzero_ops = macs * layer.act_density
        gated_ops = macs - nonzero_ops
        logic = nonzero_ops * self._mac_pj
        logic += gated_ops * self.energy.params.ctrl_pj_per_op
        energy = EnergyBreakdown(dram, buffer, local, logic)

        if self.acc is not None:
            self._note_overflow_risk(layer)
        self.obs.count(
            layer.name,
            {
                "cycles": cycles,
                "run_cycles": cycles,
                "macs": macs,
                "gated_ops": gated_ops,
                "energy_pj": energy.total,
            },
        )
        return LayerStats(
            layer_name=layer.name,
            cycles=cycles,
            energy=energy,
            macs=macs,
            ops_issued=macs,
            run_cycles=cycles,
        )
