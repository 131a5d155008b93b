"""Per-access energy model (substitute for Design Compiler + CACTI + Micron).

The paper synthesized Verilog at 65 nm / 1.0 V / 250 MHz and used CACTI for
SRAM and Micron's calculator for DRAM. Offline we model the same quantities
analytically. Constants derive from the widely used per-op energy table in
Horowitz, "Computing's energy problem" (ISSCC 2014, 45 nm), scaled by
``TECH_SCALE`` to approximate 65 nm LP:

- integer multiply energy grows with the product of operand widths
  (0.2 pJ for 8x8, 3.1 pJ for 32x32 at 45 nm → ~0.003 pJ per bit-squared);
- integer add energy grows linearly in width (~0.003 pJ/bit);
- SRAM read energy per bit grows with the square root of capacity
  (8 KiB: 10 pJ / 64 b; scaled by sqrt(capacity));
- DRAM costs a flat ~20 pJ/bit (640 pJ per 32-bit word).

All results in this reproduction are *relative* (normalized to Eyeriss16,
as in the paper), so what matters is that the ratios between components are
realistic, not the absolute pJ.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

__all__ = ["EnergyParams", "EnergyBreakdown", "EnergyModel", "DEFAULT_ENERGY"]

#: Approximate 45 nm -> 65 nm LP dynamic-energy scale factor.
TECH_SCALE = 1.8


@dataclass(frozen=True)
class EnergyParams:
    """Technology constants (pJ) for the energy model."""

    mult_pj_per_bit2: float = 0.0031 * TECH_SCALE
    add_pj_per_bit: float = 0.0031 * TECH_SCALE
    #: flip-flop/bus/control energy charged per MAC-lane operation.
    ctrl_pj_per_op: float = 0.01 * TECH_SCALE
    #: SRAM read/write energy per bit for an 8 KiB macro (scales with sqrt cap).
    sram_pj_per_bit_8k: float = (10.0 / 64.0) * TECH_SCALE
    sram_ref_bits: float = 8 * 1024 * 8
    dram_pj_per_bit: float = 20.0


@dataclass
class EnergyBreakdown:
    """Energy decomposed the way the paper's Figs. 11-13 report it.

    ``dram`` — off-chip traffic; ``buffer`` — the large on-chip memory
    (Eyeriss/ZeNA global buffer, OLAccel swarm buffer); ``local`` — PE /
    cluster / group buffers; ``logic`` — MAC units and interconnect.
    All in pJ.
    """

    dram: float = 0.0
    buffer: float = 0.0
    local: float = 0.0
    logic: float = 0.0

    @property
    def total(self) -> float:
        return self.dram + self.buffer + self.local + self.logic

    def __add__(self, other: "EnergyBreakdown") -> "EnergyBreakdown":
        return EnergyBreakdown(
            dram=self.dram + other.dram,
            buffer=self.buffer + other.buffer,
            local=self.local + other.local,
            logic=self.logic + other.logic,
        )

    def __iadd__(self, other: "EnergyBreakdown") -> "EnergyBreakdown":
        self.dram += other.dram
        self.buffer += other.buffer
        self.local += other.local
        self.logic += other.logic
        return self

    def scaled(self, factor: float) -> "EnergyBreakdown":
        return EnergyBreakdown(
            dram=self.dram * factor,
            buffer=self.buffer * factor,
            local=self.local * factor,
            logic=self.logic * factor,
        )

    def normalized(self, reference_total: float) -> "EnergyBreakdown":
        """Express each component as a fraction of ``reference_total``."""
        if reference_total <= 0:
            raise ValueError("reference total must be positive")
        return self.scaled(1.0 / reference_total)

    def as_dict(self) -> Dict[str, float]:
        return {"dram": self.dram, "buffer": self.buffer, "local": self.local, "logic": self.logic}

    @classmethod
    def from_dict(cls, data: Dict[str, float]) -> "EnergyBreakdown":
        """Inverse of :meth:`as_dict` (extra keys such as totals ignored)."""
        return cls(
            dram=data.get("dram", 0.0),
            buffer=data.get("buffer", 0.0),
            local=data.get("local", 0.0),
            logic=data.get("logic", 0.0),
        )


class EnergyModel:
    """Per-access energies built from :class:`EnergyParams`."""

    def __init__(self, params: EnergyParams = EnergyParams()):
        self.params = params

    def mult_energy(self, bits_a: int, bits_b: int) -> float:
        return self.params.mult_pj_per_bit2 * bits_a * bits_b

    def add_energy(self, bits: int) -> float:
        return self.params.add_pj_per_bit * bits

    def mac_energy(self, act_bits: int, weight_bits: int, acc_bits: int = 24) -> float:
        """One multiply-accumulate lane operation incl. control/registers."""
        return self.mult_energy(act_bits, weight_bits) + self.add_energy(acc_bits) + self.params.ctrl_pj_per_op

    def sram_per_bit(self, capacity_bits: float) -> float:
        """Energy (pJ) per bit read/written from an SRAM of ``capacity_bits``.

        CACTI-style capacity scaling: energy per bit grows with the square
        root of the macro capacity (wordline/bitline length).
        """
        if capacity_bits <= 0:
            raise ValueError("SRAM capacity must be positive")
        return self.params.sram_pj_per_bit_8k * (capacity_bits / self.params.sram_ref_bits) ** 0.5

    def sram_energy(self, capacity_bits: float, bits_accessed: float) -> float:
        """Read/write ``bits_accessed`` from an SRAM of ``capacity_bits``."""
        return self.sram_per_bit(capacity_bits) * bits_accessed

    def dram_energy(self, bits: float) -> float:
        return self.params.dram_pj_per_bit * bits


#: Shared default instance.
DEFAULT_ENERGY = EnergyModel()
