"""Top-level OLAccel per-layer cycle and energy simulator.

Ties together the PE-group cycle model (:mod:`repro.olaccel.pe_group`),
the outlier PE group (:mod:`repro.olaccel.outlier_group`), the cluster
scheduler (:mod:`repro.olaccel.cluster`) and the tri-buffer drain
(:mod:`repro.olaccel.tribuffer`) into per-layer
:class:`~repro.arch.stats.LayerStats`.

Cycle model (Sec. III, V):

- Dense 4-bit work: ``macs / 16`` broadcast slots, thinned by the normal
  activation density (nonzero and below the outlier threshold), stretched
  by the multi-outlier weight-chunk probability (second cycle per spill
  chunk, Fig. 8), plus one skip cycle per all-zero activation quad.
- First layer: dense, no skipping, serialized by
  ``ceil(act_bits/4) * ceil(weight_bits/4)`` (8x for 16-bit activations x
  8-bit weights, Sec. V).
- Outlier activations run on one outlier PE group per cluster in parallel;
  the layer ends when the slower of the two paths finishes, plus the
  accumulation-pipeline drain.

Energy model (components as in Figs. 11-13):

- **DRAM** — packed weight chunks (80 bits per 16 weights, plus spill
  chunks), raw network input/output, and activation overflow whenever a
  layer's input+output footprint exceeds the swarm buffer.
- **Buffer** (swarm) — activation writes once and reads with a
  ``kernel/stride`` vertical-reuse factor; outlier FIFO traffic; weights
  passing through the small weight buffer.
- **Local** (cluster/group/tri-buffer SRAM) — 80-bit weight-chunk read
  per issued broadcast, 64-bit activation-chunk read per pass, partial
  sums revisiting the tri-buffer once per kernel row.
- **Logic** — MAC energy at the actual operand widths plus skip/control
  overhead.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..arch.chunks import WEIGHT_CHUNK_BITS
from ..arch.energy import DEFAULT_ENERGY, EnergyBreakdown, EnergyModel
from ..arch.stats import LayerStats, RunStats
from ..arch.workload import LayerWorkload, NetworkWorkload
from ..obs import NULL_REGISTRY, Registry
from .cluster import load_balance_efficiency
from .config import OLAccelConfig, olaccel16
from .outlier_group import outlier_work
from .pe_group import (
    dense_pass_factor,
    expected_pass_costs,
    multi_outlier_probability,
    single_or_more_outlier_probability,
)
from .tribuffer import accumulation_drain_cycles

__all__ = ["OLAccelSimulator"]

#: Small SRAM capacities (bits) used for per-access energy of local buffers.
_GROUP_BUFFER_BITS = 2 * 1024 * 8
_CLUSTER_BUFFER_BITS = 8 * 1024 * 8
_WEIGHT_BUFFER_BITS = 16 * 1024 * 8


@dataclass
class _LayerDerived:
    """Intermediate per-layer quantities shared by cycle and energy math."""

    dense_factor: int
    normal_density: float
    multi_outlier_fraction: float
    n_passes: float
    run_cycles: float
    skip_cycles: float
    broadcasts: float
    outlier_broadcasts: float
    outlier_acts: float


class OLAccelSimulator:
    """Cycle + energy model of one OLAccel instance.

    Pass ``obs=Registry(...)`` to record per-layer counters (run / skip /
    idle / outlier cycles, broadcasts, passes) under
    ``<config name>/<layer name>/…`` and a wall-clock timer per simulated
    network; the default records nothing.
    """

    def __init__(
        self,
        config: OLAccelConfig = None,
        energy: EnergyModel = DEFAULT_ENERGY,
        obs: Registry = None,
    ):
        self.config = config or olaccel16()
        self.energy = energy
        self.obs = obs if obs is not None else NULL_REGISTRY

    # -- derivation ---------------------------------------------------------

    def _derive(self, layer: LayerWorkload) -> _LayerDerived:
        cfg = self.config
        # One broadcast drives `lanes` output channels, so the broadcast
        # count scales inversely with group width; the activation *chunk*
        # stays A(1x1x16) regardless (Fig. 5).
        slots = layer.macs / cfg.lanes
        chunk_len = 16
        if layer.is_first:
            factor = dense_pass_factor(cfg.raw_input_bits, layer.first_weight_bits)
            return _LayerDerived(
                dense_factor=factor,
                normal_density=1.0,
                multi_outlier_fraction=0.0,
                n_passes=slots / chunk_len,
                run_cycles=slots * factor,
                skip_cycles=0.0,
                broadcasts=slots * factor,
                outlier_broadcasts=0.0,
                outlier_acts=0.0,
            )

        p_multi = multi_outlier_probability(layer.weight_outlier_ratio, cfg.lanes)
        if cfg.has_outlier_mac:
            p_extra = p_multi
        else:
            # Ablation: no 17th MAC — any outlier in the chunk forces the
            # two-cycle MSB pass.
            p_extra = single_or_more_outlier_probability(layer.weight_outlier_ratio, cfg.lanes)
        d_norm = layer.act_density * (1.0 - layer.act_outlier_ratio)
        if not cfg.zero_skip:
            # Ablation: no skip logic — every lane slot is issued.
            d_norm = 1.0
        n_passes = slots / chunk_len
        costs = expected_pass_costs(d_norm, p_extra, lanes=chunk_len)
        ow = outlier_work(
            input_activations=layer.input_count,
            act_density=layer.act_density,
            act_outlier_ratio=layer.act_outlier_ratio,
            broadcast_slots_per_input=layer.slots_per_input,
            n_outlier_groups=cfg.n_outlier_groups,
            value_bits=cfg.act_outlier_bits,
        )
        return _LayerDerived(
            dense_factor=1,
            normal_density=d_norm,
            multi_outlier_fraction=p_multi,  # storage format is unchanged by ablations
            n_passes=n_passes,
            run_cycles=n_passes * costs.run_cycles,
            skip_cycles=n_passes * costs.skip_cycles,
            broadcasts=n_passes * costs.broadcasts,
            outlier_broadcasts=ow.broadcasts,
            outlier_acts=ow.outlier_activations,
        )

    # -- cycles --------------------------------------------------------------

    def _layer_cycles(self, layer: LayerWorkload, derived: _LayerDerived) -> tuple:
        cfg = self.config
        work = derived.run_cycles + derived.skip_cycles
        mean_cost = work / derived.n_passes if derived.n_passes else 1.0
        efficiency = load_balance_efficiency(derived.n_passes, cfg.n_groups, mean_cost=max(mean_cost, 1.0))
        efficiency *= cfg.dispatch_efficiency
        normal_cycles = work / cfg.n_groups / efficiency
        outlier_cycles = derived.outlier_broadcasts / cfg.n_outlier_groups
        drain = accumulation_drain_cycles(layer.out_groups)
        if cfg.pipelined_accumulation:
            cycles = max(normal_cycles, outlier_cycles) + drain
        else:
            # Ablation: outlier partial sums merge only after the dense
            # pass finishes, serializing the two paths.
            cycles = normal_cycles + outlier_cycles + drain
        idle = cycles * cfg.n_groups - work
        return cycles, max(idle, 0.0), outlier_cycles

    # -- energy ---------------------------------------------------------------

    def _weight_chunk_bits(self, layer: LayerWorkload, derived: _LayerDerived) -> float:
        base_chunks = layer.weight_count / self.config.lanes
        spill_chunks = base_chunks * derived.multi_outlier_fraction
        if layer.is_first and layer.first_weight_bits > 4:
            # Dense high-precision first-layer weights: two nibble planes.
            base_chunks *= layer.first_weight_bits / 4.0
            spill_chunks = 0.0
        return (base_chunks + spill_chunks) * WEIGHT_CHUNK_BITS

    def _act_store_bits(self, layer: LayerWorkload, derived: _LayerDerived) -> float:
        cfg = self.config
        if layer.is_first:
            return layer.input_count * cfg.raw_input_bits
        dense = layer.input_count * cfg.act_bits
        fifo = derived.outlier_acts * (cfg.act_outlier_bits + 24.0)
        return dense + fifo

    def _layer_energy(self, layer: LayerWorkload, derived: _LayerDerived) -> EnergyBreakdown:
        cfg = self.config
        em = self.energy
        out = EnergyBreakdown()

        weight_bits = self._weight_chunk_bits(layer, derived)
        in_bits = self._act_store_bits(layer, derived)
        out_bits = layer.output_count * cfg.act_bits

        # DRAM: weights stream in once; activations overflow the swarm buffer
        # only when a layer's input+output footprint exceeds it.
        dram_bits = weight_bits
        spill = max(0.0, in_bits + out_bits - cfg.swarm_buffer_bits)
        dram_bits += 2.0 * spill
        if layer.is_first:
            dram_bits += in_bits  # raw network input
        out.dram = em.dram_energy(dram_bits)

        # Swarm buffer: activation write once, read with vertical reuse;
        # outlier FIFO reads; weights pass through the 16 KiB weight buffer.
        reuse = max(1.0, layer.kernel / layer.stride)
        swarm_bits = out_bits + in_bits * reuse + derived.outlier_acts * (cfg.act_outlier_bits + 24.0)
        out.buffer = em.sram_energy(cfg.swarm_buffer_bits, swarm_bits)
        out.buffer += em.sram_energy(_WEIGHT_BUFFER_BITS, 2.0 * weight_bits)

        # Local buffers: weight chunk per issued broadcast cycle, activation
        # chunk per pass, partial sums revisiting the tri-buffer per kernel row.
        local_bits = derived.run_cycles * WEIGHT_CHUNK_BITS
        local_bits += derived.n_passes * (cfg.lanes * cfg.act_bits)
        psum_visits = max(1, layer.kernel)
        local_bits += 2.0 * layer.output_count * cfg.acc_bits * psum_visits
        local_bits += derived.outlier_broadcasts * WEIGHT_CHUNK_BITS
        out.local = em.sram_energy(_GROUP_BUFFER_BITS, local_bits)

        # Logic: normal MAC lanes, outlier MAC lanes, skip/control overhead.
        normal_mac = em.mac_energy(cfg.act_bits, cfg.weight_bits, cfg.acc_bits)
        logic = derived.broadcasts * cfg.lanes * normal_mac
        outlier_mac = em.mac_energy(cfg.act_outlier_bits, cfg.weight_bits, cfg.acc_bits)
        logic += derived.outlier_broadcasts * cfg.lanes * outlier_mac
        logic += derived.skip_cycles * em.params.ctrl_pj_per_op * cfg.lanes
        out.logic = logic
        return out

    # -- public API -------------------------------------------------------------

    def simulate_layer(self, layer: LayerWorkload) -> LayerStats:
        """Simulate one layer; returns cycles, energy and a cycle breakdown."""
        derived = self._derive(layer)
        cycles, idle, outlier_cycles = self._layer_cycles(layer, derived)
        energy = self._layer_energy(layer, derived)
        with self.obs.scope(layer.name):
            self.obs.counter("cycles").add(cycles)
            self.obs.counter("run_cycles").add(derived.run_cycles)
            self.obs.counter("skip_cycles").add(derived.skip_cycles)
            self.obs.counter("idle_cycles").add(idle)
            self.obs.counter("outlier_cycles").add(outlier_cycles)
            self.obs.counter("broadcasts").add(derived.broadcasts)
            self.obs.counter("outlier_broadcasts").add(derived.outlier_broadcasts)
            self.obs.counter("passes").add(derived.n_passes)
            self.obs.counter("energy_pj").add(energy.total)
        return LayerStats(
            layer_name=layer.name,
            cycles=cycles,
            energy=energy,
            macs=layer.macs,
            ops_issued=derived.broadcasts * self.config.lanes,
            run_cycles=derived.run_cycles,
            skip_cycles=derived.skip_cycles,
            idle_cycles=idle,
            extras={
                "outlier_cycles": outlier_cycles,
                "outlier_acts": derived.outlier_acts,
                "multi_outlier_fraction": derived.multi_outlier_fraction,
                "n_passes": derived.n_passes,
            },
        )

    def simulate_network(self, network: NetworkWorkload) -> RunStats:
        """Simulate every layer; adds the final output's DRAM write."""
        stats = RunStats(accelerator=self.config.name, network=network.name)
        with self.obs.timer(f"simulate/{network.name}"), self.obs.scope(self.config.name):
            for layer in network.layers:
                stats.add(self.simulate_layer(layer))
        if stats.layers:
            last = network.layers[-1]
            stats.layers[-1].energy.dram += self.energy.dram_energy(
                last.output_count * self.config.act_bits
            )
        return stats
