"""Linear (uniform) quantization on sign-magnitude integer grids.

This is both the conventional baseline the paper argues against (Fig. 1b:
4-bit linear quantization over the full range, wasted levels because of
outliers) and the building block of outlier-aware quantization (Sec. II):
OLAccel's arithmetic is integer, so every quantizer here maps real values to
integers on a shared step size ``delta`` and back.

Conventions (matching the OLAccel datapath, Sec. III):

- *Weights* are signed and use a sign-magnitude grid: ``b``-bit weights
  occupy ``[-(2^(b-1) - 1), 2^(b-1) - 1]`` (e.g. [-7, 7] for 4 bits). The
  symmetric grid is what lets an 8-bit outlier weight be split into an MSB
  nibble (handled by the outlier MAC) and an LSB nibble (handled by the
  normal MAC) with exact integer arithmetic.
- *Activations* are post-ReLU, hence unsigned: ``b``-bit activations occupy
  ``[0, 2^b - 1]`` (e.g. [0, 15] for 4 bits).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "signed_levels",
    "unsigned_levels",
    "LinearQuantizer",
    "quantize_linear",
]


def signed_levels(bits: int) -> int:
    """Largest magnitude representable by a ``bits``-bit sign-magnitude int."""
    if bits < 2:
        raise ValueError(f"signed grids need at least 2 bits, got {bits}")
    return 2 ** (bits - 1) - 1


def unsigned_levels(bits: int) -> int:
    """Largest value representable by a ``bits``-bit unsigned int."""
    if bits < 1:
        raise ValueError(f"unsigned grids need at least 1 bit, got {bits}")
    return 2**bits - 1


@dataclass(frozen=True)
class LinearQuantizer:
    """A fixed-step integer grid.

    Attributes:
        delta: real-valued step size; 0 values are representable exactly.
        bits: grid bitwidth.
        signed: sign-magnitude grid (weights) vs unsigned grid (activations).
    """

    delta: float
    bits: int
    signed: bool = True

    @property
    def max_level(self) -> int:
        return signed_levels(self.bits) if self.signed else unsigned_levels(self.bits)

    @property
    def min_level(self) -> int:
        return -self.max_level if self.signed else 0

    @property
    def max_value(self) -> float:
        """Largest representable real magnitude."""
        return self.max_level * self.delta

    def float_levels(self, x: np.ndarray) -> np.ndarray:
        """Real values -> clipped levels (round-to-nearest), as float64.

        One pass over one fresh buffer: divide by ``delta`` into it (an
        unsigned grid takes ``max(x, 0)`` first, which its clip would zero
        anyway), then ``rint``, clip and ``+= 0.0`` in place. The last step
        turns ``rint``'s ``-0.0`` into the ``+0.0`` an integer level
        converts back to, so the result equals :meth:`quantize` converted
        to float64 byte for byte (finite inputs).

        The buffer has the input's float precision, unless ``delta`` is 0
        in it (a subnormal step and a float32 input): then it is float64,
        so the levels equal those of the input converted to float64.
        """
        if self.delta <= 0:
            raise ValueError(f"delta must be positive, got {self.delta}")
        x = np.asarray(x)
        dtype = np.result_type(x, self.delta)
        if dtype.type(self.delta) == 0:
            dtype = np.dtype(np.float64)
        levels = np.empty(x.shape, dtype=dtype)
        if self.signed:
            np.divide(x, self.delta, out=levels, dtype=dtype)
        else:
            np.maximum(x, 0.0, out=levels)
            np.divide(levels, self.delta, out=levels)
        np.rint(levels, out=levels)
        np.clip(levels, self.min_level, self.max_level, out=levels)
        levels += 0.0
        return levels.astype(np.float64, copy=False)

    def quantize(self, x: np.ndarray) -> np.ndarray:
        """Real values -> clipped integer levels (round-to-nearest)."""
        return self.float_levels(x).astype(np.int64)

    def roundtrip(self, x: np.ndarray) -> np.ndarray:
        """Quantize and dequantize in one step, scaling the levels in place."""
        values = self.float_levels(x)
        values *= self.delta
        return values

    @classmethod
    def from_range(cls, max_abs: float, bits: int, signed: bool = True) -> "LinearQuantizer":
        """Grid whose largest level lands on ``max_abs``.

        This is conventional linear quantization *without truncation*: the
        full observed range is covered, so outliers consume the dynamic
        range and squeeze the step size available to small values (the
        failure mode of Fig. 1b).
        """
        levels = signed_levels(bits) if signed else unsigned_levels(bits)
        if max_abs <= 0:
            # Degenerate all-zero data: any positive step represents it.
            return cls(delta=1.0, bits=bits, signed=signed)
        delta = max_abs / levels
        if delta <= 0.0:
            # max_abs is a subnormal so small the step underflows to zero;
            # treat it like the all-zero case (error stays within delta/2).
            return cls(delta=1.0, bits=bits, signed=signed)
        return cls(delta=delta, bits=bits, signed=signed)


def quantize_linear(x: np.ndarray, bits: int, signed: bool = True) -> np.ndarray:
    """One-shot full-range linear quantization round-trip of ``x``."""
    max_abs = float(np.abs(x).max()) if x.size else 0.0
    return LinearQuantizer.from_range(max_abs, bits, signed).roundtrip(x)
