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
16-bit value grid. Both audits run as masked checks over the array form
(the weight table and the ``(n, 4)`` outlier table); no chunk or entry
object is built.

Counting contract (see docs/FAULTS.md): each offending chunk/entry
increments ``faults/detected`` exactly once; under ``degrade``/``skip``
it also increments ``faults/masked`` (and ``skip`` adds
``faults/skipped``). A clean table increments nothing, so with fault
rate 0 validation is a provable no-op.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..arch.chunks import LANES
from ..arch.packing import PackedWeights, WeightTables, normal_max_level
from ..constants import RECOVERY_POLICIES
from ..errors import ChunkIntegrityError, ConfigError
from ..obs import NULL_REGISTRY, Registry

__all__ = ["RECOVERY_POLICIES", "validate_packed", "validate_swarm"]

#: Base-chunk fields in audit order; a ``raise`` names the first violated.
_BASE_FIELDS = ("lanes", "ol_idx", "ol_msb", "ol_ptr")


def _check_policy(policy: str) -> None:
    if policy not in RECOVERY_POLICIES:
        raise ConfigError(f"unknown recovery policy {policy!r}; one of {RECOVERY_POLICIES}")


def _base_violations(t: WeightTables, policy: str) -> Tuple[np.ndarray, ...]:
    """One (n_base,) bool mask per base-chunk field in :data:`_BASE_FIELDS`.

    ``ol_ptr`` flags dangling pointers and duplicates. The chunks are
    audited in index order and a chunk that keeps its pointer after
    repair claims the spill chunk, so the owner of each spill chunk is
    the first row with an in-range pointer and no ``ol_idx``/``ol_msb``
    violation (nor a ``lanes`` one, except under ``degrade``, which keeps
    the metadata of a chunk whose lanes alone were clamped). Every later
    row pointing at the same spill chunk is a duplicate.
    """
    lanes = (np.abs(t.lanes) > normal_max_level).any(axis=1)
    ol_idx = (t.ol_idx < 0) | (t.ol_idx >= LANES)
    ol_msb = np.abs(t.ol_msb) > 15
    has_ptr = t.ol_ptr >= 0
    in_range = has_ptr & (t.ol_ptr < t.n_spill)

    keeps = in_range & ~ol_idx & ~ol_msb
    if policy != "degrade":
        keeps &= ~lanes
    owner = np.full(t.n_spill, t.n_base, dtype=np.int64)
    np.minimum.at(owner, t.ol_ptr[keeps], np.flatnonzero(keeps))
    ol_ptr = has_ptr & ~in_range
    rows = np.flatnonzero(in_range)
    ol_ptr[rows] = rows > owner[t.ol_ptr[rows]]
    return lanes, ol_idx, ol_msb, ol_ptr


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
    never mutated). A clean table is returned as is. The audit runs on
    the table form as whole-array checks; no chunk object is built.
    """
    _check_policy(policy)
    t = packed.tables
    fields = _base_violations(t, policy)
    bad = np.logical_or.reduce(fields)
    spill_bad = (np.abs(t.spill_lanes) > 15).any(axis=1)

    if policy == "raise":
        if bad.any():
            index = int(bad.argmax())
            field = next(name for name, mask in zip(_BASE_FIELDS, fields) if mask[index])
            group, red = divmod(index, packed.reduction) if packed.reduction else (0, index)
            obs.counter("faults/detected").add(1)
            raise ChunkIntegrityError(
                f"weight chunk violates the {field!r} invariant",
                group=group,
                reduction=red,
                chunk_index=index,
                field=field,
            )
        if spill_bad.any():
            obs.counter("faults/detected").add(1)
            raise ChunkIntegrityError(
                "spill chunk MSB magnitude beyond the 4-bit field",
                chunk_index=int(spill_bad.argmax()),
                field="lanes",
                is_spill=True,
            )
        return packed

    detected = int(bad.sum()) + int(spill_bad.sum())
    if not detected:
        return packed
    obs.counter("faults/detected").add(detected)
    obs.counter("faults/masked").add(detected)
    if policy == "skip":
        obs.counter("faults/skipped").add(detected)
        lanes = np.where(bad[:, None], 0, t.lanes)
        drop = bad
    else:
        # Corrupt outlier metadata is dropped, so the lane keeps its LSB
        # nibble as its 4-bit normal value; out-of-range lanes are clamped.
        lanes = np.clip(t.lanes, -normal_max_level, normal_max_level)
        drop = np.logical_or.reduce(fields[1:])
    tables = WeightTables(
        lanes=lanes,
        ol_idx=np.where(drop, 0, t.ol_idx),
        ol_msb=np.where(drop, 0, t.ol_msb),
        ol_ptr=np.where(drop, -1, t.ol_ptr),
        spill_lanes=np.where(spill_bad[:, None], 0, t.spill_lanes),
    )
    return PackedWeights(
        tables=tables,
        n_groups=packed.n_groups,
        reduction=packed.reduction,
        out_channels=packed.out_channels,
    )


def validate_swarm(
    table: np.ndarray,
    shape: Tuple[int, int, int],
    policy: str = "raise",
    obs: Registry = NULL_REGISTRY,
    normal_max: int = 15,
) -> np.ndarray:
    """Audit a swarm-buffer outlier table against its (C, H, W) extent.

    ``table`` is the ``(n, 4)`` (c, h, w, value) FIFO of
    :class:`~repro.arch.act_packing.PackedActivations`. An entry is
    corrupt when its coordinates left the (channel-padded) tensor, its
    value is negative or exceeds the 16-bit grid, or its value fell
    *below* the outlier threshold (a true outlier is by definition above
    ``normal_max`` — a smaller value means the 16-bit field was struck
    down into normal range, which the hardware can detect for free at the
    comparator). ``degrade``/``skip`` both drop the entry (its
    dense-stream slot already holds 0, the normal-path value) and return
    the kept rows in FIFO order; ``raise`` names the first corrupt entry.
    A clean table is returned as is.
    """
    _check_policy(policy)
    c, h, w = shape
    padded_c = -(-c // LANES) * LANES
    channel, row, col, value = table.T
    bad = (
        (channel < 0) | (channel >= padded_c)
        | (row < 0) | (row >= h)
        | (col < 0) | (col >= w)
        | (value <= normal_max) | (value > 0xFFFF)
    )
    if not bad.any():
        return table
    if policy == "raise":
        index = int(bad.argmax())
        obs.counter("faults/detected").add(1)
        channel, row, col, value = table[index].tolist()
        raise ChunkIntegrityError(
            f"swarm entry (value={value}, c={channel}, h={row}, w={col}) is corrupt",
            chunk_index=index,
            field="swarm",
        )
    detected = int(bad.sum())
    obs.counter("faults/detected").add(detected)
    obs.counter("faults/masked").add(detected)
    if policy == "skip":
        obs.counter("faults/skipped").add(detected)
    return table[~bad]
