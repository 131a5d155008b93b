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
from typing import Optional, TYPE_CHECKING

from ..arch.energy import DEFAULT_ENERGY, EnergyBreakdown, EnergyModel
from ..arch.stats import LayerStats, RunStats
from ..arch.workload import LayerWorkload, NetworkWorkload
from ..obs import NULL_REGISTRY, Registry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..faults.accumulator import AccumulatorModel

__all__ = ["EyerissConfig", "EyerissSimulator", "eyeriss16", "eyeriss8"]

#: PE scratchpad capacity used for local-access energy (0.5 KiB spads).
_SPAD_BITS = 512 * 8
#: Fraction of MAC ops whose partial sum makes a spad round trip
#: (row-stationary accumulates mostly in the PE register chain).
_PSUM_SPAD_FRACTION = 0.25


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


class EyerissSimulator:
    """Cycle + energy model of the Eyeriss baseline.

    ``obs`` hooks mirror the OLAccel simulator's: per-layer cycle and
    gated-op counters under ``<config name>/<layer name>/…`` plus a
    wall-clock timer per network; disabled by default.

    ``acc`` optionally swaps the config's 32-bit accumulator for an
    explicit :class:`~repro.faults.accumulator.AccumulatorModel`: its
    width drives the partial-sum energy terms, and layers whose
    reduction depth could overflow it are counted under
    ``acc/overflow_risk_layers``.
    """

    def __init__(
        self,
        config: EyerissConfig = None,
        energy: EnergyModel = DEFAULT_ENERGY,
        obs: Registry = None,
        acc: Optional["AccumulatorModel"] = None,
    ):
        self.config = config or eyeriss16()
        self.energy = energy
        self.obs = obs if obs is not None else NULL_REGISTRY
        self.acc = acc

    def _acc_bits(self) -> int:
        return self.acc.width_bits if self.acc is not None else self.config.acc_bits

    def _note_overflow_risk(self, layer: LayerWorkload) -> None:
        """Count layers whose worst-case reduction exceeds the accumulator."""
        if self.acc is None:
            return
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
        em = self.energy
        acc_bits = self._acc_bits()

        # Cycles: dense — every MAC slot is issued, zeros are gated not skipped.
        cycles = layer.macs / cfg.n_pes / cfg.mapping_efficiency

        energy = EnergyBreakdown()
        weight_bits = layer.weight_count * cfg.bits
        in_bits = layer.input_count * cfg.bits
        out_bits = layer.output_count * cfg.bits

        dram_bits = weight_bits
        spill = max(0.0, in_bits + out_bits - cfg.buffer_bytes * 8)
        dram_bits += 2.0 * spill
        if layer.is_first:
            dram_bits += in_bits
        energy.dram = em.dram_energy(dram_bits)

        reuse = max(1.0, layer.kernel / layer.stride)
        energy.buffer = em.sram_energy(cfg.buffer_bytes * 8, in_bits * reuse + out_bits + 2.0 * weight_bits)

        per_op_local = 2 * cfg.bits + 2 * acc_bits * _PSUM_SPAD_FRACTION
        energy.local = em.sram_energy(_SPAD_BITS, layer.macs * per_op_local)

        nonzero_ops = layer.macs * layer.act_density
        gated_ops = layer.macs - nonzero_ops
        energy.logic = nonzero_ops * em.mac_energy(cfg.bits, cfg.bits, acc_bits)
        energy.logic += gated_ops * em.params.ctrl_pj_per_op

        self._note_overflow_risk(layer)
        with self.obs.scope(layer.name):
            self.obs.counter("cycles").add(cycles)
            self.obs.counter("run_cycles").add(cycles)
            self.obs.counter("macs").add(layer.macs)
            self.obs.counter("gated_ops").add(gated_ops)
            self.obs.counter("energy_pj").add(energy.total)

        return LayerStats(
            layer_name=layer.name,
            cycles=cycles,
            energy=energy,
            macs=layer.macs,
            ops_issued=layer.macs,
            run_cycles=cycles,
        )

    def simulate_network(self, network: NetworkWorkload) -> RunStats:
        stats = RunStats(accelerator=self.config.name, network=network.name)
        with self.obs.timer(f"simulate/{network.name}"), self.obs.scope(self.config.name):
            for layer in network.layers:
                stats.add(self.simulate_layer(layer))
        if stats.layers:
            last = network.layers[-1]
            stats.layers[-1].energy.dram += self.energy.dram_energy(last.output_count * self.config.bits)
        return stats
