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

from typing import Dict, NamedTuple

from ..arch.chunks import WEIGHT_CHUNK_BITS
from ..arch.energy import DEFAULT_ENERGY, EnergyBreakdown, EnergyModel
from ..arch.simulator import AnalyticSimulator
from ..arch.stats import LayerStats
from ..arch.workload import LayerWorkload
from ..obs import Registry
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

__all__ = ["LayerWork", "OLAccelSimulator", "layer_work"]

#: Small SRAM capacities (bits) used for per-access energy of local buffers.
_GROUP_BUFFER_BITS = 2 * 1024 * 8
_WEIGHT_BUFFER_BITS = 16 * 1024 * 8


class LayerWork(NamedTuple):
    """The terms of one layer that its workload and the outlier path fix.

    They depend on the layer and on the config fields in
    :func:`layer_work`'s key, not on the group count, the buffers, the
    accumulator or the dispatch model, so every design that shares
    those fields shares them.
    """

    n_passes: float
    multi_outlier_fraction: float
    run_cycles: float
    skip_cycles: float
    broadcasts: float
    outlier_broadcasts: float
    outlier_acts: float
    fifo_bits: float


#: Memo of :func:`layer_work`. It holds numbers only and starts over when
#: full, which bounds it.
_WORK_MEMO: Dict[tuple, LayerWork] = {}
_WORK_MEMO_MAXSIZE = 4096


def layer_work(layer: LayerWorkload, cfg: OLAccelConfig) -> LayerWork:
    """Passes, broadcasts and outlier-path load of ``layer`` on ``cfg``.

    Memoized on every field the computation reads, which is cheaper than
    hashing the whole frozen layer.
    """
    key = (
        layer.macs,
        layer.input_count,
        layer.act_density,
        layer.act_outlier_ratio,
        layer.weight_outlier_ratio,
        layer.is_first,
        layer.first_weight_bits,
        cfg.lanes,
        cfg.raw_input_bits,
        cfg.has_outlier_mac,
        cfg.zero_skip,
        cfg.n_outlier_groups,
        cfg.act_outlier_bits,
    )
    work = _WORK_MEMO.get(key)
    if work is None:
        if len(_WORK_MEMO) >= _WORK_MEMO_MAXSIZE:
            _WORK_MEMO.clear()
        work = _WORK_MEMO[key] = _layer_work(layer, cfg)
    return work


def _layer_work(layer: LayerWorkload, cfg: OLAccelConfig) -> LayerWork:
    lanes = cfg.lanes
    # One broadcast drives `lanes` output channels, so the broadcast
    # count scales inversely with group width; the activation *chunk*
    # stays A(1x1x16) regardless (Fig. 5).
    slots = layer.macs / lanes
    chunk_len = 16
    n_passes = slots / chunk_len
    if layer.is_first:
        factor = dense_pass_factor(cfg.raw_input_bits, layer.first_weight_bits)
        multi_outlier_fraction = 0.0
        run_cycles = slots * factor
        skip_cycles = 0.0
        broadcasts = slots * factor
        outlier_broadcasts = 0.0
        outlier_acts = 0.0
        fifo_bits = 0.0
    else:
        # The storage format is unchanged by ablations.
        multi_outlier_fraction = multi_outlier_probability(layer.weight_outlier_ratio, lanes)
        if cfg.has_outlier_mac:
            p_extra = multi_outlier_fraction
        else:
            # Ablation: no 17th MAC — any outlier in the chunk forces the
            # two-cycle MSB pass.
            p_extra = single_or_more_outlier_probability(layer.weight_outlier_ratio, lanes)
        if cfg.zero_skip:
            d_norm = layer.act_density * (1.0 - layer.act_outlier_ratio)
        else:
            # Ablation: no skip logic — every lane slot is issued.
            d_norm = 1.0
        costs = expected_pass_costs(d_norm, p_extra, chunk_len)
        ow = outlier_work(
            input_activations=layer.input_count,
            act_density=layer.act_density,
            act_outlier_ratio=layer.act_outlier_ratio,
            broadcast_slots_per_input=layer.slots_per_input,
            n_outlier_groups=cfg.n_outlier_groups,
            value_bits=cfg.act_outlier_bits,
        )
        run_cycles = n_passes * costs.run_cycles
        skip_cycles = n_passes * costs.skip_cycles
        broadcasts = n_passes * costs.broadcasts
        outlier_broadcasts = ow.broadcasts
        outlier_acts = ow.outlier_activations
        fifo_bits = ow.fifo_bits
    return LayerWork(
        n_passes,
        multi_outlier_fraction,
        run_cycles,
        skip_cycles,
        broadcasts,
        outlier_broadcasts,
        outlier_acts,
        fifo_bits,
    )


class OLAccelSimulator(AnalyticSimulator):
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
        cfg = config or olaccel16()
        super().__init__(cfg, energy, obs, cfg.swarm_buffer_bits, cfg.act_bits)
        # Config-constant terms of the per-layer model, computed once.
        self._n_groups = cfg.n_groups
        self._normal_mac_pj = energy.mac_energy(cfg.act_bits, cfg.weight_bits, cfg.acc_bits)
        self._outlier_mac_pj = energy.mac_energy(cfg.act_outlier_bits, cfg.weight_bits, cfg.acc_bits)
        self._swarm_pj_per_bit = energy.sram_per_bit(self._buffer_bits)
        self._weight_buffer_pj_per_bit = energy.sram_per_bit(_WEIGHT_BUFFER_BITS)
        self._group_buffer_pj_per_bit = energy.sram_per_bit(_GROUP_BUFFER_BITS)

    def simulate_layer(self, layer: LayerWorkload) -> LayerStats:
        """Simulate one layer; returns cycles, energy and a cycle breakdown."""
        cfg = self.config
        lanes = cfg.lanes
        n_groups = self._n_groups
        is_first = layer.is_first
        (
            n_passes,
            multi_outlier_fraction,
            run_cycles,
            skip_cycles,
            broadcasts,
            outlier_broadcasts,
            outlier_acts,
            fifo_bits,
        ) = layer_work(layer, cfg)

        # -- cycles -----------------------------------------------------------
        work = run_cycles + skip_cycles
        mean_cost = work / n_passes if n_passes else 1.0
        efficiency = load_balance_efficiency(
            n_passes, n_groups, mean_cost=1.0 if 1.0 > mean_cost else mean_cost
        )
        efficiency *= cfg.dispatch_efficiency
        normal_cycles = work / n_groups / efficiency
        outlier_cycles = outlier_broadcasts / cfg.n_outlier_groups
        drain = accumulation_drain_cycles(layer.out_groups)
        if cfg.pipelined_accumulation:
            slower = outlier_cycles if outlier_cycles > normal_cycles else normal_cycles
            cycles = slower + drain
        else:
            # Ablation: outlier partial sums merge only after the dense
            # pass finishes, serializing the two paths.
            cycles = normal_cycles + outlier_cycles + drain
        idle = cycles * n_groups - work
        if 0.0 > idle:
            idle = 0.0

        # -- energy -----------------------------------------------------------
        # Packed weight chunks plus their multi-outlier spill chunks.
        base_chunks = layer.weight_count / lanes
        spill_chunks = base_chunks * multi_outlier_fraction
        if is_first and layer.first_weight_bits > 4:
            # Dense high-precision first-layer weights: two nibble planes.
            base_chunks *= layer.first_weight_bits / 4.0
            spill_chunks = 0.0
        weight_bits = (base_chunks + spill_chunks) * WEIGHT_CHUNK_BITS
        if is_first:
            in_bits = layer.input_count * cfg.raw_input_bits
        else:
            in_bits = layer.input_count * cfg.act_bits + fifo_bits
        out_bits = layer.output_count * cfg.act_bits

        dram = self._dram_energy(weight_bits, in_bits, out_bits, is_first)

        # Swarm buffer: activation write once, read with vertical reuse;
        # outlier FIFO reads; weights pass through the 16 KiB weight buffer.
        reuse = layer.kernel / layer.stride
        swarm_bits = out_bits + in_bits * (reuse if reuse > 1.0 else 1.0) + fifo_bits
        buffer = self._swarm_pj_per_bit * swarm_bits
        buffer += self._weight_buffer_pj_per_bit * (2.0 * weight_bits)

        # Local buffers: weight chunk per issued broadcast cycle, activation
        # chunk per pass, partial sums revisiting the tri-buffer per kernel row.
        local_bits = run_cycles * WEIGHT_CHUNK_BITS
        local_bits += n_passes * (lanes * cfg.act_bits)
        psum_visits = layer.kernel if layer.kernel > 1 else 1
        local_bits += 2.0 * layer.output_count * cfg.acc_bits * psum_visits
        local_bits += outlier_broadcasts * WEIGHT_CHUNK_BITS
        local = self._group_buffer_pj_per_bit * local_bits

        # Logic: normal MAC lanes, outlier MAC lanes, skip/control overhead.
        logic = broadcasts * lanes * self._normal_mac_pj
        logic += outlier_broadcasts * lanes * self._outlier_mac_pj
        logic += skip_cycles * self.energy.params.ctrl_pj_per_op * lanes
        energy = EnergyBreakdown(dram, buffer, local, logic)

        if self.obs.enabled:
            self.obs.count(
                layer.name,
                {
                    "cycles": cycles,
                    "run_cycles": run_cycles,
                    "skip_cycles": skip_cycles,
                    "idle_cycles": idle,
                    "outlier_cycles": outlier_cycles,
                    "broadcasts": broadcasts,
                    "outlier_broadcasts": outlier_broadcasts,
                    "passes": n_passes,
                    "energy_pj": energy.total,
                },
            )
        return LayerStats(
            layer_name=layer.name,
            cycles=cycles,
            energy=energy,
            macs=layer.macs,
            ops_issued=broadcasts * lanes,
            run_cycles=run_cycles,
            skip_cycles=skip_cycles,
            idle_cycles=idle,
            extras={
                "outlier_cycles": outlier_cycles,
                "outlier_acts": outlier_acts,
                "multi_outlier_fraction": multi_outlier_fraction,
                "n_passes": n_passes,
            },
        )
