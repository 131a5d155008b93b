"""The OLAccel on-chip data structures (paper Figs. 5 and 9).

Three chunk types move through the accelerator:

- :class:`WeightChunk` — an 80-bit entry holding 16 4-bit weight nibbles
  (one per output channel of a SIMD lane group), an 8-bit ``ol_ptr``
  pointing at a spill chunk when more than one outlier weight is present,
  a 4-bit ``ol_idx`` naming which lane holds the (single) outlier, and a
  4-bit ``ol_msb`` carrying that outlier's most-significant nibble.
- :class:`ActivationChunk` — 16 4-bit normal activations (one A(1x1x16)
  input-channel slice).
- :class:`OutlierActivation` — a sparse 16-bit activation with its three
  tensor coordinates, queued in the swarm buffer for the outlier PE group.

Weight nibbles are sign-magnitude: bit 3 is the sign, bits 2..0 the
magnitude, mirroring the paper's description that an outlier's "least
significant three bits and a sign bit" live in the normal 4-bit field.
The encode/decode helpers in :mod:`repro.arch.packing` are exercised by
hypothesis round-trip tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..errors import ChunkIntegrityError, QuantRangeError

__all__ = [
    "LANES",
    "WEIGHT_CHUNK_BITS",
    "WeightChunk",
    "ActivationChunk",
    "OutlierActivation",
    "encode_weight_nibble",
    "decode_weight_nibble",
    "split_outlier_weight",
    "combine_outlier_weight",
]

#: SIMD width of a PE group (16 normal MAC units), fixed by Fig. 17's
#: multi-outlier probability analysis.
LANES = 16

#: 16 x 4-bit weights + 8-bit OLptr + 4-bit OLidx + 4-bit OLmsb.
WEIGHT_CHUNK_BITS = LANES * 4 + 8 + 4 + 4


def encode_weight_nibble(level: int) -> int:
    """Sign-magnitude encode a weight level in [-7, 7] into 4 bits."""
    if not -7 <= level <= 7:
        raise QuantRangeError(f"nibble level out of range: {level}")
    sign = 1 if level < 0 else 0
    return (sign << 3) | abs(level)


def decode_weight_nibble(nibble: int) -> int:
    """Inverse of :func:`encode_weight_nibble`."""
    if not 0 <= nibble <= 15:
        raise QuantRangeError(f"nibble out of range: {nibble}")
    magnitude = nibble & 0b0111
    return -magnitude if nibble & 0b1000 else magnitude


def split_outlier_weight(level: int) -> Tuple[int, int]:
    """Split an 8-bit outlier level into (msb_nibble_level, lsb_level).

    Both halves are signed levels carrying the outlier's sign, such that
    ``msb * 8 + lsb == level`` exactly. The LSB part lives in the normal
    4-bit lane field ("least significant three bits and a sign bit"); the
    MSB part goes to ``ol_msb`` (or the spill chunk) and is what the
    outlier MAC multiplies, pre-shifted by 3 bits.
    """
    if not -127 <= level <= 127:
        raise QuantRangeError(f"outlier level out of range: {level}")
    sign = -1 if level < 0 else 1
    magnitude = abs(level)
    msb = magnitude >> 3
    lsb = magnitude & 0b111
    return sign * msb, sign * lsb


def combine_outlier_weight(msb: int, lsb: int) -> int:
    """Inverse of :func:`split_outlier_weight`."""
    return msb * 8 + lsb


@dataclass(frozen=True)
class WeightChunk:
    """One 80-bit weight-buffer entry (Fig. 5).

    ``lanes`` holds the signed level stored in each lane's 4-bit field
    (for an outlier lane that is the LSB part). ``ol_idx``/``ol_msb``
    describe the first outlier; ``ol_ptr`` is the index of the spill chunk
    holding the MSB nibbles when there are two or more outliers (the spill
    chunk reuses its ``lanes`` field for the MSB parts). A chunk with
    ``ol_ptr`` set costs the PE group two cycles instead of one (Fig. 8).
    """

    lanes: Tuple[int, ...]
    ol_idx: int = 0
    ol_msb: int = 0
    ol_ptr: Optional[int] = None
    is_spill: bool = False

    def __post_init__(self):
        if len(self.lanes) != LANES:
            raise ChunkIntegrityError(
                f"weight chunk needs {LANES} lanes, got {len(self.lanes)}", field="lanes"
            )

    @property
    def has_single_outlier(self) -> bool:
        return self.ol_ptr is None and self.ol_msb != 0

    @property
    def has_multi_outlier(self) -> bool:
        return self.ol_ptr is not None

    @property
    def cycles(self) -> int:
        """MAC cycles to consume this chunk against one broadcast activation."""
        return 2 if self.has_multi_outlier else 1


@dataclass(frozen=True)
class ActivationChunk:
    """A(1x1x16): 16 normal 4-bit activation levels along the channel dim."""

    values: Tuple[int, ...]

    def __post_init__(self):
        if len(self.values) != LANES:
            raise ChunkIntegrityError(
                f"activation chunk needs {LANES} values, got {len(self.values)}", field="values"
            )

    @property
    def nonzero_count(self) -> int:
        return sum(1 for v in self.values if v != 0)

    @property
    def zero_quads(self) -> int:
        """Number of all-zero aligned quads — each costs one skip cycle (Fig. 18)."""
        return sum(
            1
            for q in range(LANES // 4)
            if all(v == 0 for v in self.values[4 * q : 4 * q + 4])
        )


@dataclass(frozen=True)
class OutlierActivation:
    """A sparse high-precision activation with tensor coordinates (Fig. 9)."""

    value: int
    w_idx: int
    h_idx: int
    c_idx: int


@dataclass
class OutlierActivationFifo:
    """The swarm-buffer FIFO feeding an outlier PE group."""

    entries: List[OutlierActivation] = field(default_factory=list)

    def push(self, entry: OutlierActivation) -> None:
        self.entries.append(entry)

    def pop(self) -> OutlierActivation:
        return self.entries.pop(0)

    def __len__(self) -> int:
        return len(self.entries)
