"""Packing weight tensors into OLAccel weight chunks (Fig. 5).

The cluster weight buffer stores weights at the granularity of 80-bit
chunks: 16 lanes (one per output channel of a PE group) for a single
(kernel position, input channel) reduction index. Outlier weights are
8-bit levels on the same step as the 4-bit normal weights; their LSB part
stays in the lane nibble and their MSB nibble goes either into the chunk's
``ol_msb`` field (single outlier — free, handled by the outlier MAC) or
into a spill chunk referenced by ``ol_ptr`` (multiple outliers — the chunk
then costs two cycles, Fig. 8).

The packer is exact: :meth:`PackedWeights.unpack` reconstructs the original
integer levels, which hypothesis round-trip tests verify.

A packed tensor has one in-memory form, the flat-array
:class:`WeightTables`; the packer, the bit codec, the fault validator
and the datapath all work on it. ``base_chunks``/``spill_chunks`` are
read-only :class:`WeightChunk` views of it for tests and docs. The
per-chunk scalar packer and unpacker that the vectorized ones are held
identical to live in :mod:`repro.reference`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from ..errors import ConfigError, QuantRangeError
from .chunks import LANES, WEIGHT_CHUNK_BITS, WeightChunk

__all__ = ["PackedWeights", "WeightTables", "pack_weights", "normal_max_level", "outlier_max_level"]

#: Largest level a 4-bit sign-magnitude lane nibble can hold.
normal_max_level = 7
#: Largest level an 8-bit sign-magnitude outlier weight can hold.
outlier_max_level = 127


@dataclass(frozen=True)
class WeightTables:
    """A packed weight table as flat arrays.

    Row ``i`` of every base array describes base chunk ``i``
    (``i = g * reduction + r``). ``ol_ptr`` uses ``-1`` for "no spill"
    (the chunk view uses ``None``); the packer and the decoder leave
    ``ol_idx``/``ol_msb`` zero on multi-outlier rows, and the chunk view
    drops them there whatever they hold.
    """

    #: (n_base, LANES) signed lane LSB values.
    lanes: np.ndarray
    #: (n_base,) single-outlier lane index (0 when unused).
    ol_idx: np.ndarray
    #: (n_base,) signed single-outlier MSB (0 when unused).
    ol_msb: np.ndarray
    #: (n_base,) spill-chunk index, -1 = no spill.
    ol_ptr: np.ndarray
    #: (n_spill, LANES) signed spill MSB values.
    spill_lanes: np.ndarray

    @property
    def n_base(self) -> int:
        return self.lanes.shape[0]

    @property
    def n_spill(self) -> int:
        return self.spill_lanes.shape[0]


def _canonical(t: WeightTables) -> Tuple[np.ndarray, ...]:
    """The fields the chunk view keeps: ``ol_idx``/``ol_msb`` only on
    single-outlier rows, and every negative ``ol_ptr`` as -1."""
    multi = t.ol_ptr >= 0
    single = ~multi & (t.ol_msb != 0)
    return (
        t.lanes,
        np.where(multi, t.ol_ptr, -1),
        np.where(single, t.ol_idx, 0),
        np.where(single, t.ol_msb, 0),
        t.spill_lanes,
    )


@dataclass(frozen=True, eq=False)
class PackedWeights:
    """A weight tensor packed into base + spill chunks, held as one
    :class:`WeightTables`.

    Base chunk ``g * reduction + r`` covers output-channel group ``g`` at
    reduction index ``r`` (reduction = flattened (in_c, kh, kw) in im2col
    order); ``ol_ptr`` indexes the spill rows. ``base_chunks`` and
    ``spill_chunks`` are read-only :class:`WeightChunk` views, built
    afresh on each access.
    """

    tables: WeightTables
    n_groups: int
    reduction: int
    out_channels: int

    @property
    def base_chunks(self) -> List[WeightChunk]:
        t = self.tables
        base: List[WeightChunk] = []
        rows = zip(t.lanes.tolist(), t.ol_idx.tolist(), t.ol_msb.tolist(), t.ol_ptr.tolist())
        for lanes, idx, msb, ptr in rows:
            if ptr >= 0:
                base.append(WeightChunk(lanes=tuple(lanes), ol_ptr=ptr))
            elif msb != 0:
                base.append(WeightChunk(lanes=tuple(lanes), ol_idx=idx, ol_msb=msb))
            else:
                base.append(WeightChunk(lanes=tuple(lanes)))
        return base

    @property
    def spill_chunks(self) -> List[WeightChunk]:
        return [WeightChunk(lanes=tuple(l), is_spill=True) for l in self.tables.spill_lanes.tolist()]

    def __eq__(self, other: object) -> bool:
        """Equal when the chunk views are equal: compares the arrays the
        chunk form keeps, without building it."""
        if not isinstance(other, PackedWeights):
            return NotImplemented
        return (
            self.n_groups == other.n_groups
            and self.reduction == other.reduction
            and self.out_channels == other.out_channels
            and all(map(np.array_equal, _canonical(self.tables), _canonical(other.tables)))
        )

    # -- counts and footprint --------------------------------------------

    @property
    def n_base(self) -> int:
        return self.tables.n_base

    @property
    def n_spill(self) -> int:
        return self.tables.n_spill

    @property
    def single_outlier_chunks(self) -> int:
        t = self.tables
        return int(((t.ol_ptr < 0) & (t.ol_msb != 0)).sum())

    @property
    def multi_outlier_chunks(self) -> int:
        return int(self.multi_outlier_mask.sum())

    @property
    def multi_outlier_mask(self) -> np.ndarray:
        """(n_base,) bool — which base chunks pay the two-cycle spill pass."""
        return self.tables.ol_ptr >= 0

    @property
    def total_chunks(self) -> int:
        return self.n_base + self.n_spill

    @property
    def total_bits(self) -> int:
        """On-chip footprint of the packed representation."""
        return self.total_chunks * WEIGHT_CHUNK_BITS

    @property
    def multi_outlier_fraction(self) -> float:
        """Fraction of base chunks paying the two-cycle penalty (Fig. 17)."""
        return self.multi_outlier_chunks / self.n_base if self.n_base else 0.0

    # -- unpacking -------------------------------------------------------

    def unpack(self) -> np.ndarray:
        """Reconstruct the (out_channels, reduction) integer level matrix."""
        t = self.tables
        lanes = t.lanes.copy()
        single = np.flatnonzero((t.ol_ptr < 0) & (t.ol_msb != 0))
        lanes[single, t.ol_idx[single]] += 8 * t.ol_msb[single]
        multi = np.flatnonzero(t.ol_ptr >= 0)
        if multi.size:
            lanes[multi] += 8 * t.spill_lanes[t.ol_ptr[multi]]
        levels = (
            lanes.reshape(self.n_groups, self.reduction, LANES)
            .transpose(0, 2, 1)
            .reshape(self.n_groups * LANES, self.reduction)
        )
        return levels[: self.out_channels]


def _validate_levels(levels: np.ndarray) -> np.ndarray:
    levels = np.asarray(levels, dtype=np.int64)
    if levels.ndim != 2:
        raise ConfigError(f"expected a 2-D level matrix, got shape {levels.shape}")
    if np.abs(levels).max(initial=0) > outlier_max_level:
        raise QuantRangeError("levels exceed the 8-bit outlier grid")
    return levels


def pack_weights(levels: np.ndarray) -> PackedWeights:
    """Pack a (out_channels, reduction) integer level matrix into chunks.

    Levels must fit the 8-bit outlier grid [-127, 127]; levels in [-7, 7]
    are normal, anything larger is an outlier. Output channels are padded
    with zero lanes to a multiple of 16.

    The whole chunk grid is classified and split with numpy batch
    operations; :func:`repro.reference.pack_weights_scalar` is the
    per-chunk loop it is held identical to.
    """
    levels = _validate_levels(levels)

    out_channels, reduction = levels.shape
    n_groups = -(-out_channels // LANES)
    padded = np.zeros((n_groups * LANES, reduction), dtype=np.int64)
    padded[:out_channels] = levels

    # Row i = base chunk i = (g, r) with i = g * reduction + r; columns are
    # the 16 output-channel lanes of group g.
    n_base = n_groups * reduction
    grid = padded.reshape(n_groups, LANES, reduction).transpose(0, 2, 1).reshape(n_base, LANES)

    magnitude = np.abs(grid)
    out_mask = magnitude > normal_max_level
    sign = np.sign(grid)
    lsb = sign * (magnitude & 0b111)
    msb = sign * (magnitude >> 3)  # zero for normal lanes

    lanes = np.where(out_mask, lsb, grid)
    outlier_counts = out_mask.sum(axis=1)
    single = outlier_counts == 1
    multi = outlier_counts >= 2

    ol_idx = np.where(single, out_mask.argmax(axis=1), 0)
    ol_msb = np.where(single, np.take_along_axis(msb, ol_idx[:, None], axis=1)[:, 0], 0)

    ol_ptr = np.full(n_base, -1, dtype=np.int64)
    multi_rows = np.flatnonzero(multi)
    ol_ptr[multi_rows] = np.arange(multi_rows.size)  # spill order = base index order
    spill_lanes = msb[multi_rows]

    tables = WeightTables(
        lanes=lanes,
        ol_idx=ol_idx.astype(np.int64),
        ol_msb=ol_msb.astype(np.int64),
        ol_ptr=ol_ptr,
        spill_lanes=spill_lanes,
    )
    return PackedWeights(
        tables=tables, n_groups=n_groups, reduction=reduction, out_channels=out_channels
    )
