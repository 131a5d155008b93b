"""Bit-level serialization of weight chunks (the literal 80-bit words).

This module lowers a packed weight table (:mod:`repro.arch.packing`) to
the actual 80-bit buffer words of Fig. 5 and raises them back, a whole
table at a time from its array form, so the on-chip format is modelled
down to the bit:

====================  =======  =============================================
field                 bits     contents
====================  =======  =============================================
``lanes``             64       16 x 4-bit sign-magnitude weight nibbles
                               (lane 0 in the least-significant nibble);
                               for a spill chunk, 16 x 4-bit unsigned MSB
                               magnitudes (signs live in the base chunk)
``ol_ptr``            8        spill-chunk index + 1 (0 = no spill)
``ol_idx``            4        lane index of the single outlier
``ol_msb``            4        unsigned MSB magnitude of the single outlier
====================  =======  =============================================

Outlier signs ride the lane nibbles ("the remaining least significant
three bits and a sign bit ... are stored in the associated position"), so
an outlier whose LSB magnitude is zero (e.g. level -8) still encodes its
sign in the nibble's sign bit; the decoder reads the raw bit rather than
the integer sign.

The per-chunk codec (``encode_chunk``/``decode_chunk`` and the
``encode_table``/``decode_table`` list walkers) that the vectorized one
is held identical to lives in :mod:`repro.reference`.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from ..errors import CapacityError, ChunkIntegrityError, QuantRangeError
from .chunks import LANES, WEIGHT_CHUNK_BITS
from .packing import PackedWeights, WeightTables

__all__ = ["encode_packed", "decode_packed", "MAX_SPILL_CHUNKS"]

#: ol_ptr is 8 bits and reserves 0 for "no spill".
MAX_SPILL_CHUNKS = 254

_LANE_FIELD_BITS = 4 * LANES  # 64
_OL_PTR_SHIFT = _LANE_FIELD_BITS
_OL_IDX_SHIFT = _OL_PTR_SHIFT + 8
_OL_MSB_SHIFT = _OL_IDX_SHIFT + 4


_MASK64 = (1 << 64) - 1
_NIBBLE_SHIFTS = (4 * np.arange(LANES)).astype(np.uint64)


def _combine_nibbles(nibbles: np.ndarray) -> np.ndarray:
    """OR 16 nibble columns into one uint64 per row (lane 0 = LSB nibble)."""
    # disjoint 4-bit fields, so a sum is exactly the OR
    return (nibbles.astype(np.uint64) << _NIBBLE_SHIFTS).sum(axis=1, dtype=np.uint64)


def _split_nibbles(lo: np.ndarray) -> np.ndarray:
    """(n,) uint64 -> (n, LANES) raw 4-bit fields."""
    return ((lo[:, None] >> _NIBBLE_SHIFTS) & np.uint64(0xF)).astype(np.int64)


def encode_packed(packed: PackedWeights) -> Tuple[List[int], List[int]]:
    """Serialize a :class:`PackedWeights` into base + spill word lists.

    Encodes the whole table from its array form; the equivalence tests
    hold it word for word to the per-chunk
    :func:`repro.reference.encode_table`.
    """
    t = packed.tables
    if t.n_spill > MAX_SPILL_CHUNKS:
        raise CapacityError(
            f"{t.n_spill} spill chunks exceed the 8-bit OLptr space; "
            "split the table across buffer tiles"
        )

    magnitude = np.abs(t.lanes)
    if magnitude.max(initial=0) > 7:
        raise QuantRangeError(f"lane magnitude out of range: {magnitude.max()}")
    msb_magnitude = np.abs(t.ol_msb)
    if msb_magnitude.max(initial=0) > 15:
        raise QuantRangeError(f"ol_msb out of the 4-bit field: {msb_magnitude.max()}")
    if t.n_base and (t.ol_idx.min() < 0 or t.ol_idx.max() >= LANES):
        raise QuantRangeError("ol_idx out of range")
    if t.n_base and t.ol_ptr.max(initial=-1) >= MAX_SPILL_CHUNKS:
        raise QuantRangeError(f"ol_ptr out of the 8-bit field: {t.ol_ptr.max()}")

    # Per-lane sign bits, recovering signs hidden by zero LSB magnitudes
    # (the vector twin of ``_lane_signs``).
    negative = t.lanes < 0
    single_rows = np.flatnonzero((t.ol_ptr < 0) & (t.ol_msb < 0))
    negative[single_rows, t.ol_idx[single_rows]] = True
    multi_rows = np.flatnonzero(t.ol_ptr >= 0)
    if multi_rows.size:
        negative[multi_rows] |= t.spill_lanes[t.ol_ptr[multi_rows]] < 0

    lo = _combine_nibbles(np.where(negative, 8, 0) | magnitude)
    hi = (
        np.where(t.ol_ptr >= 0, t.ol_ptr + 1, 0).astype(np.uint64)
        | (t.ol_idx.astype(np.uint64) << np.uint64(_OL_IDX_SHIFT - _OL_PTR_SHIFT))
        | (msb_magnitude.astype(np.uint64) << np.uint64(_OL_MSB_SHIFT - _OL_PTR_SHIFT))
    )
    base_words = [l | (h << _OL_PTR_SHIFT) for l, h in zip(lo.tolist(), hi.tolist())]

    spill_magnitude = np.abs(t.spill_lanes)
    if spill_magnitude.max(initial=0) > 15:
        raise QuantRangeError(f"spill MSB magnitude out of range: {spill_magnitude.max()}")
    spill_words = _combine_nibbles(spill_magnitude).tolist()
    return base_words, spill_words


def decode_packed(
    base_words: List[int],
    spill_words: List[int],
    *,
    n_groups: int,
    reduction: int,
    out_channels: int,
    strict: bool = True,
) -> PackedWeights:
    """Inverse of :func:`encode_packed`: words -> PackedWeights.

    Decodes whole word lists at once and re-applies spill-lane signs from
    the base chunks' nibble sign bits. A dangling ``ol_ptr`` (pointing
    past the spill table — impossible in a healthy encoding, the
    signature of a corrupted word) raises :class:`ChunkIntegrityError`
    under ``strict``; with ``strict=False`` the row is decoded as-is so
    :func:`repro.faults.validate_packed` can detect, count and repair it
    under a recovery policy. The result equals the per-chunk
    :func:`repro.reference.decode_table`'s, chunk for chunk.
    """
    limit = 1 << WEIGHT_CHUNK_BITS
    for word in base_words:
        if not 0 <= word < limit:
            raise ChunkIntegrityError("word does not fit the 80-bit chunk format")
    for word in spill_words:
        if not 0 <= word < limit:
            raise ChunkIntegrityError("word does not fit the 80-bit chunk format")

    lo = np.fromiter((w & _MASK64 for w in base_words), dtype=np.uint64, count=len(base_words))
    hi = np.fromiter((w >> _OL_PTR_SHIFT for w in base_words), dtype=np.uint64, count=len(base_words))
    raw = _split_nibbles(lo)
    lanes = np.where(raw & 8, -(raw & 7), raw & 7)

    ptr_raw = (hi & np.uint64(0xFF)).astype(np.int64)
    idx_field = ((hi >> np.uint64(_OL_IDX_SHIFT - _OL_PTR_SHIFT)) & np.uint64(0xF)).astype(np.int64)
    msb_field = ((hi >> np.uint64(_OL_MSB_SHIFT - _OL_PTR_SHIFT)) & np.uint64(0xF)).astype(np.int64)

    multi = ptr_raw > 0
    ol_ptr = np.where(multi, ptr_raw - 1, -1)
    single = ~multi & (msb_field != 0)
    ol_idx = np.where(single, idx_field, 0)
    # sign bit of the outlier's lane nibble, not the integer sign
    sign_bit = np.take_along_axis(raw, ol_idx[:, None], axis=1)[:, 0] & 8
    ol_msb = np.where(single, np.where(sign_bit != 0, -msb_field, msb_field), 0)

    lo_spill = np.fromiter((w & _MASK64 for w in spill_words), dtype=np.uint64, count=len(spill_words))
    spill_lanes = _split_nibbles(lo_spill)

    n_spill = spill_lanes.shape[0]
    dangling = multi & (ol_ptr >= n_spill)
    if dangling.any():
        if strict:
            index = int(np.flatnonzero(dangling)[0])
            raise ChunkIntegrityError(
                f"ol_ptr {int(ol_ptr[index])} dangles past the "
                f"{n_spill}-entry spill table",
                chunk_index=index,
                field="ol_ptr",
            )
        multi = multi & ~dangling
    valid_rows = np.flatnonzero(multi)
    if valid_rows.size:
        # last write wins on duplicate pointers, matching the per-chunk loop
        ptrs = ol_ptr[valid_rows]
        spill_lanes[ptrs] = np.where(raw[valid_rows] & 8, -spill_lanes[ptrs], spill_lanes[ptrs])

    tables = WeightTables(
        lanes=lanes.astype(np.int64),
        ol_idx=ol_idx.astype(np.int64),
        ol_msb=ol_msb.astype(np.int64),
        ol_ptr=ol_ptr.astype(np.int64),
        spill_lanes=spill_lanes,
    )
    return PackedWeights(
        tables=tables, n_groups=n_groups, reduction=reduction, out_channels=out_channels
    )
