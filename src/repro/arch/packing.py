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

Two equivalent representations coexist. The *table* form
(:class:`WeightTables`) holds the whole packed tensor as flat numpy
arrays and is what the vectorized fast paths and the fault validator
operate on; the *chunk* form is the per-chunk :class:`WeightChunk` object
list the scalar reference paths walk. :class:`PackedWeights` converts
lazily between the two, so ``pack_weights`` never builds chunk objects
unless something asks for them. ``slow_reference=True`` selects the
original per-element scalar implementation everywhere a vectorized path
exists; ``tests/test_vectorized_equiv.py`` proves the two bit-exact on
randomized inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..errors import ConfigError, QuantRangeError
from .chunks import LANES, WEIGHT_CHUNK_BITS, WeightChunk, combine_outlier_weight, split_outlier_weight

__all__ = ["PackedWeights", "WeightTables", "pack_weights", "normal_max_level", "outlier_max_level"]

#: Largest level a 4-bit sign-magnitude lane nibble can hold.
normal_max_level = 7
#: Largest level an 8-bit sign-magnitude outlier weight can hold.
outlier_max_level = 127


@dataclass(frozen=True)
class WeightTables:
    """A packed weight table as flat arrays — the vectorized twin of the
    :class:`WeightChunk` lists.

    Row ``i`` of every base array describes base chunk ``i``
    (``i = g * reduction + r``). ``ol_ptr`` uses ``-1`` for "no spill"
    (the chunk form uses ``None``); ``ol_idx``/``ol_msb`` are zero for
    multi-outlier rows, mirroring how :func:`repro.arch.bitcodec.decode_chunk`
    drops those fields when ``ol_ptr`` is set.
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


def _tables_from_chunks(base_chunks: List[WeightChunk], spill_chunks: List[WeightChunk]) -> WeightTables:
    n = len(base_chunks)
    lanes = np.zeros((n, LANES), dtype=np.int64)
    ol_idx = np.zeros(n, dtype=np.int64)
    ol_msb = np.zeros(n, dtype=np.int64)
    ol_ptr = np.full(n, -1, dtype=np.int64)
    for i, chunk in enumerate(base_chunks):
        lanes[i] = chunk.lanes
        if chunk.ol_ptr is not None:
            ol_ptr[i] = chunk.ol_ptr
        else:
            ol_idx[i] = chunk.ol_idx
            ol_msb[i] = chunk.ol_msb
    spill = np.array([c.lanes for c in spill_chunks], dtype=np.int64).reshape(len(spill_chunks), LANES)
    return WeightTables(lanes=lanes, ol_idx=ol_idx, ol_msb=ol_msb, ol_ptr=ol_ptr, spill_lanes=spill)


def _chunks_from_tables(tables: WeightTables) -> Tuple[List[WeightChunk], List[WeightChunk]]:
    base: List[WeightChunk] = []
    for lanes, idx, msb, ptr in zip(
        tables.lanes.tolist(), tables.ol_idx.tolist(), tables.ol_msb.tolist(), tables.ol_ptr.tolist()
    ):
        if ptr >= 0:
            base.append(WeightChunk(lanes=tuple(lanes), ol_ptr=ptr))
        elif msb != 0:
            base.append(WeightChunk(lanes=tuple(lanes), ol_idx=idx, ol_msb=msb))
        else:
            base.append(WeightChunk(lanes=tuple(lanes)))
    spill = [WeightChunk(lanes=tuple(l), is_spill=True) for l in tables.spill_lanes.tolist()]
    return base, spill


class PackedWeights:
    """A weight tensor packed into base + spill chunks.

    ``base_chunks[g * reduction + r]`` covers output-channel group ``g`` at
    reduction index ``r`` (reduction = flattened (in_c, kh, kw) in im2col
    order). ``spill_chunks`` are indexed by the base chunks' ``ol_ptr``.

    Construct from chunk lists (positional, the historical layout) or from
    a :class:`WeightTables` via the ``tables`` keyword; either form
    materializes the other on demand. Replace chunk lists through the
    ``base_chunks``/``spill_chunks`` setters — in-place mutation of a
    returned list is not tracked (the outlier-chunk counts are cached at
    construction, not rescanned per access).
    """

    def __init__(
        self,
        base_chunks: Optional[List[WeightChunk]] = None,
        spill_chunks: Optional[List[WeightChunk]] = None,
        n_groups: int = 0,
        reduction: int = 0,
        out_channels: int = 0,
        *,
        tables: Optional[WeightTables] = None,
    ):
        if tables is None and base_chunks is None:
            raise ConfigError("PackedWeights needs either chunk lists or tables")
        self._base_chunks = list(base_chunks) if base_chunks is not None else None
        self._spill_chunks = list(spill_chunks) if spill_chunks is not None else None
        if self._base_chunks is not None and self._spill_chunks is None:
            self._spill_chunks = []
        self._tables = tables
        self.n_groups = n_groups
        self.reduction = reduction
        self.out_channels = out_channels
        self._recount()

    def _recount(self) -> None:
        """Cache the single/multi outlier chunk counts (once, at construction
        or chunk-list replacement — not per property access)."""
        if self._base_chunks is not None:
            self._single_count = sum(1 for c in self._base_chunks if c.has_single_outlier)
            self._multi_count = sum(1 for c in self._base_chunks if c.has_multi_outlier)
        else:
            t = self._tables
            self._single_count = int(((t.ol_ptr < 0) & (t.ol_msb != 0)).sum())
            self._multi_count = int((t.ol_ptr >= 0).sum())

    # -- representation conversion ---------------------------------------

    @property
    def tables(self) -> WeightTables:
        """The flat-array form (built from the chunk lists on first use)."""
        if self._tables is None:
            self._tables = _tables_from_chunks(self._base_chunks, self._spill_chunks)
        return self._tables

    @property
    def base_chunks(self) -> List[WeightChunk]:
        if self._base_chunks is None:
            self._base_chunks, self._spill_chunks = _chunks_from_tables(self._tables)
        return self._base_chunks

    @base_chunks.setter
    def base_chunks(self, chunks: List[WeightChunk]) -> None:
        if self._spill_chunks is None:  # keep the spill half before dropping tables
            _, self._spill_chunks = _chunks_from_tables(self._tables)
        self._base_chunks = list(chunks)
        self._tables = None
        self._recount()

    @property
    def spill_chunks(self) -> List[WeightChunk]:
        if self._spill_chunks is None:
            self._base_chunks, self._spill_chunks = _chunks_from_tables(self._tables)
        return self._spill_chunks

    @spill_chunks.setter
    def spill_chunks(self, chunks: List[WeightChunk]) -> None:
        if self._base_chunks is None:
            self._base_chunks, _ = _chunks_from_tables(self._tables)
        self._spill_chunks = list(chunks)
        self._tables = None
        self._recount()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PackedWeights):
            return NotImplemented
        return (
            self.n_groups == other.n_groups
            and self.reduction == other.reduction
            and self.out_channels == other.out_channels
            and self.base_chunks == other.base_chunks
            and self.spill_chunks == other.spill_chunks
        )

    # -- cached counts and footprint -------------------------------------

    @property
    def n_base(self) -> int:
        return len(self._base_chunks) if self._base_chunks is not None else self._tables.n_base

    @property
    def n_spill(self) -> int:
        return len(self._spill_chunks) if self._spill_chunks is not None else self._tables.n_spill

    @property
    def single_outlier_chunks(self) -> int:
        return self._single_count

    @property
    def multi_outlier_chunks(self) -> int:
        return self._multi_count

    @property
    def multi_outlier_mask(self) -> np.ndarray:
        """(n_base,) bool — which base chunks pay the two-cycle spill pass."""
        if self._tables is not None:
            return self._tables.ol_ptr >= 0
        return np.fromiter(
            (c.has_multi_outlier for c in self._base_chunks), dtype=bool, count=len(self._base_chunks)
        )

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
        return self._multi_count / self.n_base if self.n_base else 0.0

    # -- unpacking -------------------------------------------------------

    def unpack(self, slow_reference: bool = False) -> np.ndarray:
        """Reconstruct the (out_channels, reduction) integer level matrix."""
        if slow_reference:
            return self._unpack_scalar()
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

    def _unpack_scalar(self) -> np.ndarray:
        levels = np.zeros((self.n_groups * LANES, self.reduction), dtype=np.int64)
        for g in range(self.n_groups):
            for r in range(self.reduction):
                chunk = self.base_chunks[g * self.reduction + r]
                lane_values = list(chunk.lanes)
                if chunk.has_multi_outlier:
                    spill = self.spill_chunks[chunk.ol_ptr]
                    for lane in range(LANES):
                        lane_values[lane] = combine_outlier_weight(spill.lanes[lane], lane_values[lane])
                elif chunk.has_single_outlier:
                    lane = chunk.ol_idx
                    lane_values[lane] = combine_outlier_weight(chunk.ol_msb, lane_values[lane])
                levels[g * LANES : (g + 1) * LANES, r] = lane_values
        return levels[: self.out_channels]


def _validate_levels(levels: np.ndarray) -> np.ndarray:
    levels = np.asarray(levels, dtype=np.int64)
    if levels.ndim != 2:
        raise ConfigError(f"expected a 2-D level matrix, got shape {levels.shape}")
    if np.abs(levels).max(initial=0) > outlier_max_level:
        raise QuantRangeError("levels exceed the 8-bit outlier grid")
    return levels


def pack_weights(levels: np.ndarray, slow_reference: bool = False) -> PackedWeights:
    """Pack a (out_channels, reduction) integer level matrix into chunks.

    Levels must fit the 8-bit outlier grid [-127, 127]; levels in [-7, 7]
    are normal, anything larger is an outlier. Output channels are padded
    with zero lanes to a multiple of 16.

    The default path classifies and splits the whole chunk grid with
    numpy batch operations and returns a table-backed
    :class:`PackedWeights` (chunk objects are materialized lazily);
    ``slow_reference=True`` runs the original per-chunk scalar loop. Both
    produce identical chunks and identical 80-bit words.
    """
    if slow_reference:
        return _pack_weights_scalar(levels)
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


def _pack_weights_scalar(levels: np.ndarray) -> PackedWeights:
    """The original per-chunk packer — kept as the golden scalar reference."""
    levels = _validate_levels(levels)

    out_channels, reduction = levels.shape
    n_groups = -(-out_channels // LANES)
    padded = np.zeros((n_groups * LANES, reduction), dtype=np.int64)
    padded[:out_channels] = levels

    base_chunks: List[WeightChunk] = []
    spill_chunks: List[WeightChunk] = []
    for g in range(n_groups):
        block = padded[g * LANES : (g + 1) * LANES]
        for r in range(reduction):
            lane_levels = block[:, r]
            outlier_lanes = np.flatnonzero(np.abs(lane_levels) > normal_max_level)
            if outlier_lanes.size == 0:
                base_chunks.append(WeightChunk(lanes=tuple(int(v) for v in lane_levels)))
            elif outlier_lanes.size == 1:
                lane = int(outlier_lanes[0])
                msb, lsb = split_outlier_weight(int(lane_levels[lane]))
                lanes = [int(v) for v in lane_levels]
                lanes[lane] = lsb
                base_chunks.append(WeightChunk(lanes=tuple(lanes), ol_idx=lane, ol_msb=msb))
            else:
                lanes = []
                spill_lanes = []
                for v in lane_levels:
                    v = int(v)
                    if abs(v) > normal_max_level:
                        msb, lsb = split_outlier_weight(v)
                    else:
                        msb, lsb = 0, v
                    lanes.append(lsb)
                    spill_lanes.append(msb)
                spill_index = len(spill_chunks)
                spill_chunks.append(WeightChunk(lanes=tuple(spill_lanes), is_spill=True))
                base_chunks.append(WeightChunk(lanes=tuple(lanes), ol_ptr=spill_index))

    return PackedWeights(
        base_chunks=base_chunks,
        spill_chunks=spill_chunks,
        n_groups=n_groups,
        reduction=reduction,
        out_channels=out_channels,
    )
