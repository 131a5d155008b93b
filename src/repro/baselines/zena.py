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
from typing import Optional, TYPE_CHECKING

from ..arch.energy import DEFAULT_ENERGY, EnergyBreakdown, EnergyModel
from ..arch.stats import LayerStats, RunStats
from ..arch.workload import LayerWorkload, NetworkWorkload
from ..obs import NULL_REGISTRY, Registry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..faults.accumulator import AccumulatorModel

__all__ = ["ZenaConfig", "ZenaSimulator", "zena16", "zena8"]

_SPAD_BITS = 512 * 8
_PSUM_SPAD_FRACTION = 0.25
#: index bits per stored nonzero weight (zero-run-length encoding)
_WEIGHT_INDEX_BITS = 4


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


class ZenaSimulator:
    """Cycle + energy model of the ZeNA baseline.

    ``obs`` hooks mirror the OLAccel simulator's: per-layer cycle and
    skipped-MAC counters under ``<config name>/<layer name>/…`` plus a
    wall-clock timer per network; disabled by default.

    ``acc`` optionally swaps the config's 32-bit accumulator for an
    explicit :class:`~repro.faults.accumulator.AccumulatorModel`: its
    width drives the partial-sum energy terms, and layers whose
    reduction depth could overflow it are counted under
    ``acc/overflow_risk_layers``.
    """

    def __init__(
        self,
        config: ZenaConfig = None,
        energy: EnergyModel = DEFAULT_ENERGY,
        obs: Registry = None,
        acc: Optional["AccumulatorModel"] = None,
    ):
        self.config = cfg = config or zena16()
        self.energy = energy
        self.obs = obs if obs is not None else NULL_REGISTRY
        self.acc = acc
        # Config-constant terms of the per-layer model, computed once.
        acc_bits = acc.width_bits if acc is not None else cfg.acc_bits
        self._buffer_bits = cfg.buffer_bytes * 8
        self._buffer_pj_per_bit = energy.sram_per_bit(self._buffer_bits)
        self._spad_pj_per_bit = energy.sram_per_bit(_SPAD_BITS)
        self._local_bits_per_op = (
            2 * cfg.bits + _WEIGHT_INDEX_BITS + 2 * acc_bits * _PSUM_SPAD_FRACTION
        )
        self._mac_pj = energy.mac_energy(cfg.bits, cfg.bits, acc_bits)

    def _note_overflow_risk(self, layer: LayerWorkload) -> None:
        """Count layers whose worst-case reduction exceeds the accumulator."""
        from ..faults.accumulator import required_accumulator_bits

        cfg = self.config
        reduction = max(1, round(layer.weight_count / layer.out_channels))
        required = required_accumulator_bits(
            reduction, (1 << cfg.bits) - 1, (1 << (cfg.bits - 1)) - 1
        )
        if required > self.acc.width_bits:
            self.obs.counter("acc/overflow_risk_layers").add(1)

    def simulate_layer(self, layer: LayerWorkload) -> LayerStats:
        cfg = self.config
        bits = cfg.bits

        effective_macs = layer.macs * layer.weight_density * layer.act_density
        cycles = effective_macs / cfg.n_pes / cfg.skip_efficiency

        nonzero_weights = layer.weight_count * layer.weight_density
        weight_bits = nonzero_weights * (bits + _WEIGHT_INDEX_BITS)
        in_bits = layer.input_count * (bits + 1)  # dense acts + zero mask
        out_bits = layer.output_count * (bits + 1)

        dram_bits = weight_bits
        spill = in_bits + out_bits - self._buffer_bits
        dram_bits += 2.0 * (spill if spill > 0.0 else 0.0)
        if layer.is_first:
            dram_bits += in_bits
        dram = self.energy.dram_energy(dram_bits)

        reuse = layer.kernel / layer.stride
        buffer = self._buffer_pj_per_bit * (
            in_bits * (reuse if reuse > 1.0 else 1.0) + out_bits + 2.0 * weight_bits
        )

        local = self._spad_pj_per_bit * (effective_macs * self._local_bits_per_op)

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

    def simulate_network(self, network: NetworkWorkload) -> RunStats:
        stats = RunStats(accelerator=self.config.name, network=network.name)
        with self.obs.timer(f"simulate/{network.name}"), self.obs.scope(self.config.name):
            for layer in network.layers:
                stats.add(self.simulate_layer(layer))
        if stats.layers:
            last = network.layers[-1]
            stats.layers[-1].energy.dram += self.energy.dram_energy(
                last.output_count * self.config.bits
            )
        return stats
