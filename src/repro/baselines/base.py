"""Cost model shared by the Eyeriss and ZeNA baselines (paper Sec. IV)."""

from __future__ import annotations

from typing import Optional, Tuple, TYPE_CHECKING

from ..arch.energy import DEFAULT_ENERGY, EnergyModel
from ..arch.simulator import AnalyticSimulator
from ..arch.workload import LayerWorkload
from ..obs import Registry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..faults.accumulator import AccumulatorModel

__all__ = ["BaselineSimulator"]

#: PE scratchpad capacity used for local-access energy (0.5 KiB spads).
_SPAD_BITS = 512 * 8
#: Fraction of MAC ops whose partial sum makes a spad round trip
#: (row-stationary accumulates mostly in the PE register chain).
_PSUM_SPAD_FRACTION = 0.25


class BaselineSimulator(AnalyticSimulator):
    """A PE array with a global buffer and 0.5 KiB spads, computing at
    ``config.bits``; subclasses supply which MACs execute and how operands
    are stored.

    ``config`` defaults to the subclass's ``_default_config()``. ``acc``
    optionally swaps the config's 32-bit accumulator for an explicit
    :class:`~repro.faults.accumulator.AccumulatorModel`: its width drives
    the partial-sum energy terms, and layers whose reduction depth could
    overflow it are counted under ``acc/overflow_risk_layers``.
    """

    #: index bits read from the spad with each weight operand
    weight_index_bits = 0

    def __init__(
        self,
        config=None,
        energy: EnergyModel = DEFAULT_ENERGY,
        obs: Registry = None,
        acc: Optional["AccumulatorModel"] = None,
    ):
        config = config or self._default_config()
        super().__init__(config, energy, obs, config.buffer_bytes * 8, config.bits)
        self.acc = acc
        acc_bits = acc.width_bits if acc is not None else config.acc_bits
        self._buffer_pj_per_bit = energy.sram_per_bit(self._buffer_bits)
        self._spad_pj_per_bit = energy.sram_per_bit(_SPAD_BITS)
        self._local_bits_per_op = (
            2 * config.bits + self.weight_index_bits + 2 * acc_bits * _PSUM_SPAD_FRACTION
        )
        self._mac_pj = energy.mac_energy(config.bits, config.bits, acc_bits)

    def _memory_energy(
        self, layer: LayerWorkload, weight_bits: float, in_bits: float, out_bits: float, spad_ops: float
    ) -> Tuple[float, float, float]:
        """DRAM, buffer and spad energy. The buffer reads inputs with
        ``kernel/stride`` row reuse; each spad op moves ``_local_bits_per_op``."""
        dram = self._dram_energy(weight_bits, in_bits, out_bits, layer.is_first)
        reuse = layer.kernel / layer.stride
        buffer = self._buffer_pj_per_bit * (
            in_bits * (reuse if reuse > 1.0 else 1.0) + out_bits + 2.0 * weight_bits
        )
        local = self._spad_pj_per_bit * (spad_ops * self._local_bits_per_op)
        return dram, buffer, local

    def _note_overflow_risk(self, layer: LayerWorkload) -> None:
        """Count layers whose worst-case reduction exceeds the accumulator."""
        from ..faults.accumulator import required_accumulator_bits

        bits = self.config.bits
        reduction = max(1, round(layer.weight_count / layer.out_channels))
        required = required_accumulator_bits(reduction, (1 << bits) - 1, (1 << (bits - 1)) - 1)
        if required > self.acc.width_bits:
            self.obs.counter("acc/overflow_risk_layers").add(1)
