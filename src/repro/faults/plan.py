"""Deterministic, seeded fault injection plans.

A :class:`FaultPlan` describes *where* and *how often* hardware faults
strike, and deterministically reproduces the same strikes for the same
seed. It is pluggable: the datapath (:mod:`repro.faults.datapath`) and
the memory channel (:func:`repro.arch.memory.transfer_words`) both call
the same two primitives —

- :meth:`FaultPlan.corrupt_words` for packed bit-level words (the
  80-bit weight chunks moving through SRAM/DRAM);
- :meth:`FaultPlan.corrupt_levels` for integer level arrays (the dense
  4-bit activation stream, 16-bit swarm-buffer values, coordinate
  fields).

Fault models (per struck word/element, one site each):

- ``bitflip`` — invert one uniformly chosen bit;
- ``stuck0`` / ``stuck1`` — force one uniformly chosen bit to 0/1 (a
  strike on a bit already at that value is a no-op and is *not*
  counted as injected — it cannot be detected or change a result);
- ``burst`` — invert ``burst_length`` contiguous bits (clipped at the
  word edge), modelling a multi-bit upset on a bus beat.

Every counted strike increments ``faults/injected`` (and a per-surface
``faults/injected/<surface>``) on the supplied ``repro.obs`` registry,
which is what the reconciliation invariant in docs/FAULTS.md audits:
``injected == detected + undetected``.

Determinism: each (seed, surface) pair owns an independent
``numpy`` Generator stream, so enabling one surface never perturbs the
strikes on another.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Tuple

import numpy as np

from ..constants import FAULT_MODELS, FAULT_RATE_RANGE
from ..errors import ConfigError
from ..obs import NULL_REGISTRY, Registry

__all__ = ["FAULT_MODELS", "FAULT_SURFACES", "FaultPlan"]

#: Injectable surfaces of the datapath.
FAULT_SURFACES = (
    "weight_chunks",  # packed 80-bit weight/spill words at the encode boundary
    "activations",  # the dense 4-bit normal activation stream
    "outliers",  # swarm-buffer entries (value + coordinates)
    "memory",  # words in flight through arch.memory.transfer_words
)


@dataclass(frozen=True)
class FaultPlan:
    """A seeded description of which faults strike which surfaces.

    ``rate`` is the per-word (or per-element) strike probability;
    ``targets`` restricts injection to a subset of
    :data:`FAULT_SURFACES` (default: all of them). ``rate = 0`` is the
    provable no-op plan: no generator is even consulted, so a disabled
    plan is bit-identical to no plan at all.
    """

    rate: float = 0.0
    seed: int = 0
    model: str = "bitflip"
    targets: Tuple[str, ...] = field(default=FAULT_SURFACES)
    burst_length: int = 4

    def __post_init__(self):
        low, high = FAULT_RATE_RANGE
        if not low <= self.rate <= high:
            raise ConfigError(f"fault rate must be in [{low:g}, {high:g}], got {self.rate}")
        if self.model not in FAULT_MODELS:
            raise ConfigError(f"unknown fault model {self.model!r}; one of {FAULT_MODELS}")
        unknown = [t for t in self.targets if t not in FAULT_SURFACES]
        if unknown:
            raise ConfigError(f"unknown fault target(s) {unknown}; one of {FAULT_SURFACES}")
        if self.burst_length < 1:
            raise ConfigError(f"burst_length must be >= 1, got {self.burst_length}")

    # -- streams -------------------------------------------------------------

    def enabled(self, surface: str) -> bool:
        return self.rate > 0.0 and surface in self.targets

    def rng(self, surface: str) -> np.random.Generator:
        """The deterministic generator stream for one surface."""
        return np.random.default_rng([self.seed, zlib.crc32(surface.encode())])

    # -- primitives ----------------------------------------------------------

    def _strike(self, values: np.ndarray, width_bits: int, rng: np.random.Generator) -> Tuple[np.ndarray, int]:
        """Apply the fault model elementwise; returns (struck, n_changed).

        ``values`` may be any integer dtype wide enough for
        ``width_bits`` (object dtype works for 80-bit words). At most
        one fault site per element; only elements whose value actually
        changed count as injected.
        """
        out = values.copy()
        hit = np.flatnonzero(rng.random(out.shape) < self.rate)
        if hit.size == 0:
            return out, 0
        positions = rng.integers(0, width_bits, size=hit.size)
        changed = 0
        flat = out.reshape(-1)
        for index, pos in zip(hit, positions):
            old = flat[index]
            value = int(old)
            pos = int(pos)
            if self.model == "bitflip":
                value ^= 1 << pos
            elif self.model == "stuck0":
                value &= ~(1 << pos)
            elif self.model == "stuck1":
                value |= 1 << pos
            else:  # burst
                span = min(self.burst_length, width_bits - pos)
                value ^= ((1 << span) - 1) << pos
            if value != int(old):
                flat[index] = flat.dtype.type(value) if flat.dtype != object else value
                changed += 1
        return out, changed

    def corrupt_words(
        self,
        words,
        width_bits: int,
        surface: str = "weight_chunks",
        obs: Registry = NULL_REGISTRY,
    ) -> Tuple[list, int]:
        """Corrupt a list of packed integer words; returns (words, injected).

        Words are Python ints of up to ``width_bits`` bits (the 80-bit
        chunk words exceed int64, hence the object array underneath).
        """
        if not self.enabled(surface) or not words:
            return list(words), 0
        arr = np.array(list(words), dtype=object)
        struck, injected = self._strike(arr, width_bits, self.rng(surface))
        if injected:
            obs.counter("faults/injected").add(injected)
            obs.counter(f"faults/injected/{surface}").add(injected)
        return [int(w) for w in struck], injected

    def corrupt_levels(
        self,
        levels: np.ndarray,
        width_bits: int,
        surface: str = "activations",
        obs: Registry = NULL_REGISTRY,
    ) -> Tuple[np.ndarray, int]:
        """Corrupt an integer level array in its ``width_bits`` encoding."""
        levels = np.asarray(levels)
        if not self.enabled(surface) or levels.size == 0:
            return levels.copy(), 0
        struck, injected = self._strike(levels.astype(np.int64), width_bits, self.rng(surface))
        if injected:
            obs.counter("faults/injected").add(injected)
            obs.counter(f"faults/injected/{surface}").add(injected)
        return struck, injected
