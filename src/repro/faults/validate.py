"""Chunk-invariant validation and the three recovery policies.

The 80-bit weight chunk and the swarm buffer carry the metadata OLAccel's
correctness hinges on. This module audits the invariants a healthy table
satisfies and applies one of three recovery policies to every violation:

========== =============================================================
policy     behaviour on a detected violation
========== =============================================================
``raise``  surface a :class:`~repro.errors.ChunkIntegrityError` naming
           the chunk coordinates (group, reduction index, field)
``degrade``repair in place and keep going: clamp lane nibbles to the
           4-bit grid, drop corrupt outlier metadata so the lane's
           4-bit normal value stands alone (the OverQ-style graceful
           degradation — outlier LSBs are still correct), drop swarm
           entries whose coordinates left the tensor
``skip``   discard the offending chunk/entry entirely (zero lanes)
========== =============================================================

Weight-chunk invariants audited, in order:

1. lane nibbles on the 4-bit sign-magnitude grid (|level| <= 7; spill
   MSB magnitudes <= 15);
2. ``ol_idx`` within the 16 lanes;
3. ``ol_msb`` within its 4-bit magnitude field;
4. ``ol_ptr`` neither dangling (past the spill table) nor duplicated
   (two base chunks claiming the same spill chunk — packing emits
   exactly one owner per spill).

Swarm entries are audited against the activation tensor extent and the
16-bit value grid.

Counting contract (see docs/FAULTS.md): each offending chunk/entry
increments ``faults/detected`` exactly once; under ``degrade``/``skip``
it also increments ``faults/masked`` (and ``skip`` adds
``faults/skipped``). A clean table increments nothing, so with fault
rate 0 validation is a provable no-op.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Sequence, Tuple

from ..arch.chunks import LANES, OutlierActivation, WeightChunk
from ..arch.packing import PackedWeights, normal_max_level
from ..constants import RECOVERY_POLICIES
from ..errors import ChunkIntegrityError, ConfigError
from ..obs import NULL_REGISTRY, Registry

__all__ = ["RECOVERY_POLICIES", "validate_packed", "validate_swarm"]

_ZERO_LANES = tuple([0] * LANES)


def _check_policy(policy: str) -> None:
    if policy not in RECOVERY_POLICIES:
        raise ConfigError(f"unknown recovery policy {policy!r}; one of {RECOVERY_POLICIES}")


def _chunk_violations(chunk: WeightChunk, n_spills: int, seen_ptrs: set) -> List[str]:
    """Every violated invariant of a base chunk (empty when healthy)."""
    fields: List[str] = []
    if any(abs(v) > normal_max_level for v in chunk.lanes):
        fields.append("lanes")
    if not 0 <= chunk.ol_idx < LANES:
        fields.append("ol_idx")
    if abs(chunk.ol_msb) > 15:
        fields.append("ol_msb")
    if chunk.ol_ptr is not None and (
        not 0 <= chunk.ol_ptr < n_spills or chunk.ol_ptr in seen_ptrs
    ):
        fields.append("ol_ptr")
    return fields


def _degrade_chunk(chunk: WeightChunk, fields: List[str]) -> WeightChunk:
    """Repair a corrupt chunk so the 4-bit normal path can proceed.

    Corrupt outlier metadata is dropped — the lane keeps its LSB nibble,
    i.e. the outlier is treated as its 4-bit normal value — and
    out-of-range lanes are clamped onto the normal grid.
    """
    lanes = tuple(max(-normal_max_level, min(normal_max_level, v)) for v in chunk.lanes)
    if fields == ["lanes"]:
        return replace(chunk, lanes=lanes)
    return WeightChunk(lanes=lanes, is_spill=chunk.is_spill)


def validate_packed(
    packed: PackedWeights,
    policy: str = "raise",
    obs: Registry = NULL_REGISTRY,
) -> PackedWeights:
    """Audit a packed weight table; returns the (possibly repaired) table.

    Under ``raise`` the first violation aborts with a
    :class:`ChunkIntegrityError` naming the chunk coordinates; under
    ``degrade``/``skip`` every violation is repaired/discarded and
    counted, and a new :class:`PackedWeights` is returned (the input is
    never mutated).
    """
    _check_policy(policy)
    n_spills = len(packed.spill_chunks)
    seen_ptrs: set = set()
    base: List[WeightChunk] = []
    dirty = False

    for index, chunk in enumerate(packed.base_chunks):
        group, red = divmod(index, packed.reduction) if packed.reduction else (0, index)
        fields = _chunk_violations(chunk, n_spills, seen_ptrs)
        if fields:
            obs.counter("faults/detected").add(1)
            if policy == "raise":
                raise ChunkIntegrityError(
                    f"weight chunk violates the {fields[0]!r} invariant",
                    group=group,
                    reduction=red,
                    chunk_index=index,
                    field=fields[0],
                )
            obs.counter("faults/masked").add(1)
            if policy == "skip":
                obs.counter("faults/skipped").add(1)
                chunk = WeightChunk(lanes=_ZERO_LANES)
            else:
                chunk = _degrade_chunk(chunk, fields)
            dirty = True
        if chunk.ol_ptr is not None:
            seen_ptrs.add(chunk.ol_ptr)
        base.append(chunk)

    spill: List[WeightChunk] = []
    for index, chunk in enumerate(packed.spill_chunks):
        if any(abs(v) > 15 for v in chunk.lanes):
            obs.counter("faults/detected").add(1)
            if policy == "raise":
                raise ChunkIntegrityError(
                    "spill chunk MSB magnitude beyond the 4-bit field",
                    chunk_index=index,
                    field="lanes",
                    is_spill=True,
                )
            obs.counter("faults/masked").add(1)
            if policy == "skip":
                obs.counter("faults/skipped").add(1)
            chunk = WeightChunk(lanes=_ZERO_LANES, is_spill=True)
            dirty = True
        spill.append(chunk)

    if not dirty:
        return packed
    return PackedWeights(
        base_chunks=base,
        spill_chunks=spill,
        n_groups=packed.n_groups,
        reduction=packed.reduction,
        out_channels=packed.out_channels,
    )


def validate_swarm(
    entries: Sequence[OutlierActivation],
    shape: Tuple[int, int, int],
    policy: str = "raise",
    obs: Registry = NULL_REGISTRY,
    normal_max: int = 15,
) -> List[OutlierActivation]:
    """Audit swarm-buffer entries against their (C, H, W) tensor extent.

    An entry is corrupt when its coordinates left the (channel-padded)
    tensor, its value is negative or exceeds the 16-bit grid, or its
    value fell *below* the outlier threshold (a true outlier is by
    definition above ``normal_max`` — a smaller value means the 16-bit
    field was struck down into normal range, which the hardware can
    detect for free at the comparator). ``degrade``/``skip`` both drop
    the entry (its dense-stream slot already holds 0, the normal-path
    value); ``raise`` names the entry.
    """
    _check_policy(policy)
    c, h, w = shape
    padded_c = -(-c // LANES) * LANES
    kept: List[OutlierActivation] = []
    for index, entry in enumerate(entries):
        bad = (
            not 0 <= entry.c_idx < padded_c
            or not 0 <= entry.h_idx < h
            or not 0 <= entry.w_idx < w
            or not normal_max < entry.value <= 0xFFFF
        )
        if not bad:
            kept.append(entry)
            continue
        obs.counter("faults/detected").add(1)
        if policy == "raise":
            raise ChunkIntegrityError(
                f"swarm entry (value={entry.value}, c={entry.c_idx}, "
                f"h={entry.h_idx}, w={entry.w_idx}) is corrupt",
                chunk_index=index,
                field="swarm",
            )
        obs.counter("faults/masked").add(1)
        if policy == "skip":
            obs.counter("faults/skipped").add(1)
    return kept
