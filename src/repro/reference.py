"""Scalar reference twins of the vectorized datapath functions.

Each function here is the per-element or per-chunk implementation a
vectorized production function replaced, kept as the executable
specification the equivalence tests hold that function to, bit for bit:

==============================  =============================================
reference twin                  production function
==============================  =============================================
``pack_weights_scalar``         :func:`repro.arch.packing.pack_weights`
``unpack_chunks``               :meth:`repro.arch.packing.PackedWeights.unpack`
``encode_chunk``,               :func:`repro.arch.bitcodec.encode_packed`
``encode_table``
``decode_chunk``,               :func:`repro.arch.bitcodec.decode_packed`
``decode_table``
``pack_activations_scalar``     :func:`repro.arch.act_packing.pack_activations`
``unpack_activations_scalar``   :func:`repro.arch.act_packing.unpack_activations`
``validate_swarm_scalar``       :func:`repro.faults.validate.validate_swarm`
``batch_pass_cycles_scalar``    :func:`repro.olaccel.pe_group.batch_pass_cycles`
==============================  =============================================

:func:`packed_from_chunks` is the one place a :class:`WeightChunk` list
becomes a :class:`PackedWeights` (tests build hand-made tables with it),
and :func:`chunk_form` is its inverse. The twins that walk chunks or
FIFO entries take them as arguments, so a caller that times one can
build them outside the timed call.

Its readers are the equivalence tests, ``tools/fuzz_datapath.py`` and
``repro bench``, which times each fast path against its twin. That last
one is why the module lives under ``src``: of the modules there, only
:mod:`repro.harness.bench` imports it, so no other verb loads it
(``tests/test_imports.py`` checks the imports, and that ``faults`` and
``run`` leave it unloaded).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from .arch.act_packing import ACT_NORMAL_MAX, PackedActivations, _check_levels
from .arch.bitcodec import MAX_SPILL_CHUNKS, _OL_IDX_SHIFT, _OL_MSB_SHIFT, _OL_PTR_SHIFT
from .arch.chunks import (
    LANES,
    WEIGHT_CHUNK_BITS,
    ActivationChunk,
    OutlierActivation,
    WeightChunk,
    combine_outlier_weight,
    split_outlier_weight,
)
from .arch.packing import PackedWeights, WeightTables, _validate_levels, normal_max_level
from .errors import CapacityError, ChunkIntegrityError, QuantRangeError
from .faults.validate import _check_policy
from .obs import NULL_REGISTRY, Registry
from .olaccel.pe_group import chunk_pass_cycles

__all__ = [
    "packed_from_chunks",
    "chunk_form",
    "pack_weights_scalar",
    "unpack_chunks",
    "encode_chunk",
    "decode_chunk",
    "encode_table",
    "decode_table",
    "pack_activations_scalar",
    "unpack_activations_scalar",
    "validate_swarm_scalar",
    "batch_pass_cycles_scalar",
]


# ---------------------------------------------------------------------------
# Weight chunks
# ---------------------------------------------------------------------------


def packed_from_chunks(
    base_chunks: Sequence[WeightChunk],
    spill_chunks: Sequence[WeightChunk],
    n_groups: int,
    reduction: int,
    out_channels: int,
) -> PackedWeights:
    """The :class:`PackedWeights` whose table holds these chunks.

    Every field is copied as given, so a hand-made chunk may carry
    metadata (say, an ``ol_idx`` next to a zero ``ol_msb``) that the
    chunk view of the result drops.
    """
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
    tables = WeightTables(lanes=lanes, ol_idx=ol_idx, ol_msb=ol_msb, ol_ptr=ol_ptr, spill_lanes=spill)
    return PackedWeights(tables, n_groups, reduction, out_channels)


def chunk_form(packed: PackedWeights) -> Tuple[List[WeightChunk], List[WeightChunk], int, int, int]:
    """``(base_chunks, spill_chunks, n_groups, reduction, out_channels)``,
    the arguments :func:`packed_from_chunks` and :func:`unpack_chunks` take."""
    return packed.base_chunks, packed.spill_chunks, packed.n_groups, packed.reduction, packed.out_channels


def pack_weights_scalar(levels: np.ndarray) -> PackedWeights:
    """The per-chunk packer: one 16-lane column of the level matrix at a time."""
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

    return packed_from_chunks(base_chunks, spill_chunks, n_groups, reduction, out_channels)


def unpack_chunks(
    base_chunks: Sequence[WeightChunk],
    spill_chunks: Sequence[WeightChunk],
    n_groups: int,
    reduction: int,
    out_channels: int,
) -> np.ndarray:
    """The per-chunk unpack: recombine each lane's MSB and LSB parts."""
    levels = np.zeros((n_groups * LANES, reduction), dtype=np.int64)
    for g in range(n_groups):
        for r in range(reduction):
            chunk = base_chunks[g * reduction + r]
            lane_values = list(chunk.lanes)
            if chunk.has_multi_outlier:
                spill = spill_chunks[chunk.ol_ptr]
                for lane in range(LANES):
                    lane_values[lane] = combine_outlier_weight(spill.lanes[lane], lane_values[lane])
            elif chunk.has_single_outlier:
                lane = chunk.ol_idx
                lane_values[lane] = combine_outlier_weight(chunk.ol_msb, lane_values[lane])
            levels[g * LANES : (g + 1) * LANES, r] = lane_values
    return levels[:out_channels]


# ---------------------------------------------------------------------------
# The per-chunk 80-bit codec (field layout: repro.arch.bitcodec)
# ---------------------------------------------------------------------------


def _nibble(magnitude: int, negative: bool) -> int:
    if not 0 <= magnitude <= 7:
        raise QuantRangeError(f"lane magnitude out of range: {magnitude}")
    return (8 if negative else 0) | magnitude


def _lane_signs(chunk: WeightChunk, spill: Optional[WeightChunk]) -> List[bool]:
    """Per-lane sign bits, recovering signs hidden by zero LSB magnitudes."""
    signs = [value < 0 for value in chunk.lanes]
    if chunk.has_single_outlier and chunk.ol_msb < 0:
        signs[chunk.ol_idx] = True
    if chunk.has_multi_outlier:
        if spill is None:
            raise ChunkIntegrityError(
                "encoding a multi-outlier chunk requires its spill chunk", field="ol_ptr"
            )
        for lane, msb in enumerate(spill.lanes):
            if msb < 0:
                signs[lane] = True
    return signs


def encode_chunk(chunk: WeightChunk, spill: Optional[WeightChunk] = None) -> int:
    """Serialize one chunk into its 80-bit integer word.

    For a multi-outlier base chunk, pass the referenced ``spill`` chunk so
    zero-LSB outlier lanes still encode their sign bit.
    """
    word = 0
    if chunk.is_spill:
        for lane, value in enumerate(chunk.lanes):
            magnitude = abs(value)
            if magnitude > 15:
                raise QuantRangeError(f"spill MSB magnitude out of range: {value}")
            word |= magnitude << (4 * lane)
    else:
        signs = _lane_signs(chunk, spill)
        for lane, value in enumerate(chunk.lanes):
            word |= _nibble(abs(value), signs[lane]) << (4 * lane)
    if chunk.ol_ptr is not None:
        if not 0 <= chunk.ol_ptr < MAX_SPILL_CHUNKS:
            raise QuantRangeError(f"ol_ptr out of the 8-bit field: {chunk.ol_ptr}")
        word |= (chunk.ol_ptr + 1) << _OL_PTR_SHIFT
    if not 0 <= chunk.ol_idx < LANES:
        raise QuantRangeError(f"ol_idx out of range: {chunk.ol_idx}")
    word |= chunk.ol_idx << _OL_IDX_SHIFT
    msb_magnitude = abs(chunk.ol_msb)
    if msb_magnitude > 15:
        raise QuantRangeError(f"ol_msb out of the 4-bit field: {chunk.ol_msb}")
    word |= msb_magnitude << _OL_MSB_SHIFT
    assert word < (1 << WEIGHT_CHUNK_BITS)
    return word


def _raw_lanes(word: int) -> List[int]:
    return [(word >> (4 * lane)) & 0xF for lane in range(LANES)]


def decode_chunk(word: int, is_spill: bool = False) -> WeightChunk:
    """Inverse of :func:`encode_chunk`.

    Spill chunks decode their lanes as unsigned magnitudes;
    :func:`decode_table` re-applies the signs recorded in the base chunk.
    """
    if not 0 <= word < (1 << WEIGHT_CHUNK_BITS):
        raise ChunkIntegrityError("word does not fit the 80-bit chunk format")
    raw = _raw_lanes(word)
    if is_spill:
        return WeightChunk(lanes=tuple(raw), is_spill=True)

    lanes = tuple((-(n & 7) if n & 8 else n & 7) for n in raw)
    ol_ptr_raw = (word >> _OL_PTR_SHIFT) & 0xFF
    ol_idx = (word >> _OL_IDX_SHIFT) & 0xF
    ol_msb = (word >> _OL_MSB_SHIFT) & 0xF
    if ol_ptr_raw:
        return WeightChunk(lanes=lanes, ol_ptr=ol_ptr_raw - 1)
    if ol_msb:
        sign = -1 if raw[ol_idx] & 8 else 1  # sign bit, not integer sign
        return WeightChunk(lanes=lanes, ol_idx=ol_idx, ol_msb=sign * ol_msb)
    return WeightChunk(lanes=lanes)


def encode_table(base_chunks: List[WeightChunk], spill_chunks: List[WeightChunk]) -> Tuple[List[int], List[int]]:
    """Serialize a packed weight table into base + spill word lists."""
    if len(spill_chunks) > MAX_SPILL_CHUNKS:
        raise CapacityError(
            f"{len(spill_chunks)} spill chunks exceed the 8-bit OLptr space; "
            "split the table across buffer tiles"
        )
    base_words = []
    for chunk in base_chunks:
        spill = spill_chunks[chunk.ol_ptr] if chunk.has_multi_outlier else None
        base_words.append(encode_chunk(chunk, spill))
    return base_words, [encode_chunk(c) for c in spill_chunks]


def decode_table(
    base_words: List[int],
    spill_words: List[int],
    strict: bool = True,
) -> Tuple[List[WeightChunk], List[WeightChunk]]:
    """Inverse of :func:`encode_table` with spill-lane signs re-applied.

    A dangling ``ol_ptr`` (pointing past the spill table — impossible in
    a healthy encoding, the signature of a corrupted word) raises
    :class:`ChunkIntegrityError` under ``strict``; with ``strict=False``
    the chunk is decoded as-is so a downstream validator
    (:func:`repro.faults.validate_packed`) can detect, count and repair
    it under a recovery policy.
    """
    spills_unsigned = [decode_chunk(w, is_spill=True) for w in spill_words]
    bases: List[WeightChunk] = []
    signed_spills: List[WeightChunk] = list(spills_unsigned)
    for index, word in enumerate(base_words):
        chunk = decode_chunk(word)
        bases.append(chunk)
        if chunk.has_multi_outlier:
            if not 0 <= chunk.ol_ptr < len(spills_unsigned):
                if strict:
                    raise ChunkIntegrityError(
                        f"ol_ptr {chunk.ol_ptr} dangles past the "
                        f"{len(spills_unsigned)}-entry spill table",
                        chunk_index=index,
                        field="ol_ptr",
                    )
                continue
            raw = _raw_lanes(word)
            spill = spills_unsigned[chunk.ol_ptr]
            signed = tuple(
                (-m if raw[lane] & 8 else m) for lane, m in enumerate(spill.lanes)
            )
            signed_spills[chunk.ol_ptr] = WeightChunk(lanes=signed, is_spill=True)
    return bases, signed_spills


# ---------------------------------------------------------------------------
# Activations and the swarm buffer
# ---------------------------------------------------------------------------


def pack_activations_scalar(levels: np.ndarray, normal_max: int = ACT_NORMAL_MAX) -> PackedActivations:
    """The per-element packer: walk every element in Python.

    Outliers are collected in FIFO order (C-order over channel, row,
    col); dense values land in chunk ``(row * W + col) * n_blocks + blk``
    at lane ``channel % 16`` — the Fig. 6 traversal, one element at a
    time the way the store hardware would stream them.
    """
    levels = _check_levels(levels)
    c, h, w = levels.shape
    n_blocks = -(-c // LANES)
    chunks = np.zeros((h * w * n_blocks, LANES), dtype=np.int64)
    fifo: List[Tuple[int, int, int, int]] = []
    for channel in range(c):
        block, lane = divmod(channel, LANES)
        plane = levels[channel]
        for row in range(h):
            for col in range(w):
                value = int(plane[row, col])
                if value > normal_max:
                    fifo.append((channel, row, col, value))
                else:
                    chunks[(row * w + col) * n_blocks + block, lane] = value
    table = np.array(fifo, dtype=np.int64).reshape(len(fifo), 4)
    return PackedActivations(dense=chunks, shape=(c, h, w), outlier_table=table)


def unpack_activations_scalar(
    dense: np.ndarray, shape: Tuple[int, int, int], entries: Sequence[OutlierActivation]
) -> np.ndarray:
    """The per-entry unpack: write each FIFO entry back, last entry wins.

    Takes a :class:`PackedActivations`' ``dense``, ``shape`` and
    ``outliers`` view.
    """
    c, h, w = shape
    n_blocks = -(-c // LANES)
    out = dense.reshape(h, w, n_blocks, LANES).transpose(2, 3, 0, 1).reshape(n_blocks * LANES, h, w).copy()
    for entry in entries:
        out[entry.c_idx, entry.h_idx, entry.w_idx] = entry.value
    return out[:c]


def validate_swarm_scalar(
    table: np.ndarray,
    shape: Tuple[int, int, int],
    policy: str = "raise",
    obs: Registry = NULL_REGISTRY,
    normal_max: int = 15,
) -> np.ndarray:
    """The per-entry swarm audit: same contract as
    :func:`repro.faults.validate.validate_swarm`."""
    _check_policy(policy)
    c, h, w = shape
    padded_c = -(-c // LANES) * LANES
    kept: List[Tuple[int, int, int, int]] = []
    for index, (channel, row, col, value) in enumerate(np.asarray(table).tolist()):
        bad = (
            not 0 <= channel < padded_c
            or not 0 <= row < h
            or not 0 <= col < w
            or not normal_max < value <= 0xFFFF
        )
        if not bad:
            kept.append((channel, row, col, value))
            continue
        obs.counter("faults/detected").add(1)
        if policy == "raise":
            raise ChunkIntegrityError(
                f"swarm entry (value={value}, c={channel}, h={row}, w={col}) is corrupt",
                chunk_index=index,
                field="swarm",
            )
        obs.counter("faults/masked").add(1)
        if policy == "skip":
            obs.counter("faults/skipped").add(1)
    return np.array(kept, dtype=np.int64).reshape(len(kept), 4)


# ---------------------------------------------------------------------------
# PE-group pass cycles
# ---------------------------------------------------------------------------


def batch_pass_cycles_scalar(act_levels: np.ndarray, spill_flags: Optional[np.ndarray] = None) -> np.ndarray:
    """The per-pass cycle walk: each pass through :func:`chunk_pass_cycles`."""
    act_levels = np.asarray(act_levels, dtype=np.int64)
    if spill_flags is None:
        spill_flags = np.zeros(act_levels.shape, dtype=bool)
    cycles = np.empty(act_levels.shape[0], dtype=np.int64)
    for i, (row, srow) in enumerate(zip(act_levels, np.asarray(spill_flags, dtype=bool))):
        chunk = ActivationChunk(tuple(int(v) for v in row))
        cycles[i] = chunk_pass_cycles(chunk, [2 if s else 1 for s in srow])
    return cycles
