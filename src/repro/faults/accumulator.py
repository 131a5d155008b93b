"""Configurable-width partial-sum accumulator model.

The seed datapath assumed infinite-width accumulators and merely
*flagged* when a partial sum exceeded the paper's 24-bit limit
(``FunctionalResult.saturated``). This module models the accumulator
explicitly, with the two overflow behaviours real adders exhibit:

- ``saturate`` — clamp to the symmetric two's-complement range
  ``[-(2^(w-1)) + 1, 2^(w-1) - 1]`` on write-back (the paper's Sec.
  III-B accumulator, ``w = 24``);
- ``wrap`` — two's-complement wraparound. Because modular reduction
  commutes with addition, wrapping the final sum is *bit-exact* to
  wrapping after every MAC — the model is not an approximation for
  this mode;
- ``infinite`` — the seed behaviour, a provable no-op.

:func:`required_accumulator_bits` is the static guaranteed-overflow-
avoidance bound in the style of Colbert et al. (A2Q): an accumulator of
that width can never overflow for the given reduction depth and operand
magnitudes, so ``AccumulatorModel(required_accumulator_bits(...))`` is
exact by construction — tests assert this.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..constants import MIN_ACCUMULATOR_BITS
from ..errors import ConfigError
from ..obs import NULL_REGISTRY, Registry

__all__ = ["ACC_MODES", "AccumulatorModel", "required_accumulator_bits"]

#: Supported overflow behaviours.
ACC_MODES = ("saturate", "wrap", "infinite")


@dataclass(frozen=True)
class AccumulatorModel:
    """A ``width_bits``-wide signed accumulator with a chosen overflow mode."""

    width_bits: int = 24
    mode: str = "saturate"

    def __post_init__(self):
        if self.width_bits < MIN_ACCUMULATOR_BITS:
            raise ConfigError(
                f"accumulator width must be >= {MIN_ACCUMULATOR_BITS} bits, got {self.width_bits}"
            )
        if self.mode not in ACC_MODES:
            raise ConfigError(f"unknown accumulator mode {self.mode!r}; one of {ACC_MODES}")

    @property
    def limit(self) -> int:
        """Largest magnitude representable: ``2^(w-1) - 1``."""
        return (1 << (self.width_bits - 1)) - 1

    def overflows(self, psums: np.ndarray) -> int:
        """How many values exceed the representable range."""
        if self.mode == "infinite" or self.width_bits >= 64:
            # int64 partial sums cannot exceed a >= 64-bit accumulator.
            return 0
        return int((np.abs(np.asarray(psums, dtype=np.int64)) > self.limit).sum())

    def apply(self, psums: np.ndarray, obs: Registry = NULL_REGISTRY) -> np.ndarray:
        """Reduce ideal partial sums to what this accumulator would hold.

        Counts every overflowed value on ``acc/overflow`` (and returns
        the input untouched in ``infinite`` mode).
        """
        psums = np.asarray(psums, dtype=np.int64)
        if self.mode == "infinite" or self.width_bits >= 64:
            return psums
        n_over = self.overflows(psums)
        if n_over:
            obs.counter("acc/overflow").add(n_over)
        if self.mode == "saturate":
            return np.clip(psums, -self.limit, self.limit)
        span = 1 << self.width_bits
        half = 1 << (self.width_bits - 1)
        return ((psums + half) % span) - half


def required_accumulator_bits(reduction: int, act_max: int, weight_max: int) -> int:
    """Smallest signed width that provably cannot overflow.

    ``reduction`` MACs of operands bounded by ``act_max`` (unsigned) and
    ``weight_max`` (magnitude) sum to at most ``reduction * act_max *
    weight_max`` in magnitude; one sign bit on top guarantees avoidance
    (the Colbert et al. accumulator-aware bound, specialized to known
    operand ranges).
    """
    if reduction < 1 or act_max < 1 or weight_max < 1:
        raise ConfigError("reduction and operand maxima must be positive")
    return math.ceil(math.log2(reduction * act_max * weight_max + 1)) + 1
