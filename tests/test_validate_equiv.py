"""``validate_packed`` and ``validate_swarm`` against per-item reference audits.

``validate_packed`` audits a packed weight table as whole-array checks
on its :class:`WeightTables` form. This file keeps the per-chunk loop it
replaced, which walks :class:`WeightChunk` objects one at a time with a
running set of claimed ``ol_ptr`` values, and requires the two to agree
on random tables with injected violations of every field: out-of-range
lanes, ``ol_idx`` and ``ol_msb``, dangling and duplicate pointers, and
spill lanes past the 4-bit MSB field. Under every policy the counter
snapshots must match; ``degrade``/``skip`` must return the same chunks
and ``raise`` must name the same chunk and field.

``validate_swarm`` audits the ``(n, 4)`` swarm outlier table as masked
array checks; :func:`repro.reference.validate_swarm_scalar` is its
per-entry loop, and the two must agree the same way on random tables
with coordinates and values on both sides of every bound.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.arch.chunks import LANES, WeightChunk
from repro.arch.packing import PackedWeights, normal_max_level
from repro.constants import RECOVERY_POLICIES
from repro.errors import ChunkIntegrityError
from repro.faults import validate_packed, validate_swarm
from repro.obs import NULL_REGISTRY, Registry
from repro.reference import chunk_form, packed_from_chunks, unpack_chunks, validate_swarm_scalar

_ZERO_LANES = tuple([0] * LANES)


# ---------------------------------------------------------------- reference


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
    """Clamp the lanes; keep the outlier metadata only if lanes alone were bad."""
    lanes = tuple(max(-normal_max_level, min(normal_max_level, v)) for v in chunk.lanes)
    if fields == ["lanes"]:
        return replace(chunk, lanes=lanes)
    return WeightChunk(lanes=lanes, is_spill=chunk.is_spill)


def validate_packed_reference(packed: PackedWeights, policy: str, obs=NULL_REGISTRY) -> PackedWeights:
    """The chunk-at-a-time audit: same contract as :func:`validate_packed`."""
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
    return packed_from_chunks(base, spill, packed.n_groups, packed.reduction, packed.out_channels)


# ---------------------------------------------------------------- strategies


def _lanes(limit: int, spike: int):
    """16 in-range lanes, sometimes with one lane pushed past ``limit``."""
    in_range = st.lists(st.integers(-limit, limit), min_size=LANES, max_size=LANES)
    overflow = st.tuples(st.integers(0, LANES - 1), st.integers(limit + 1, spike), st.sampled_from((-1, 1)))

    def inject(lanes, hit):
        if hit is not None:
            lane, magnitude, sign = hit
            lanes[lane] = sign * magnitude
        return tuple(lanes)

    return st.builds(inject, in_range, st.one_of(st.none(), st.none(), st.none(), overflow))


@st.composite
def tables(draw):
    """Chunk lists in the shape the decoder emits, with faults injected."""
    n_groups = draw(st.integers(1, 3))
    reduction = draw(st.integers(1, 6))
    n_spill = draw(st.integers(0, 4))
    ol_idx = st.one_of(st.integers(0, LANES - 1), st.integers(-3, -1), st.integers(LANES, LANES + 3))
    ol_msb = st.one_of(st.integers(1, 15), st.integers(-15, -1), st.integers(16, 20), st.integers(-20, -16))
    # a pointer space just past the spill table: dangling and duplicate pointers both occur
    ol_ptr = st.integers(0, n_spill + 1)
    base = []
    for _ in range(n_groups * reduction):
        lanes = draw(_lanes(normal_max_level, 12))
        kind = draw(st.sampled_from(("plain", "single", "multi")))
        if kind == "single":
            base.append(WeightChunk(lanes=lanes, ol_idx=draw(ol_idx), ol_msb=draw(ol_msb)))
        elif kind == "multi":
            base.append(WeightChunk(lanes=lanes, ol_ptr=draw(ol_ptr)))
        else:
            base.append(WeightChunk(lanes=lanes))
    spill = [WeightChunk(lanes=draw(_lanes(15, 20)), is_spill=True) for _ in range(n_spill)]
    return base, spill, n_groups, reduction


def _packed(base, spill, n_groups, reduction):
    return packed_from_chunks(base, spill, n_groups, reduction, n_groups * LANES)


def _run(validate, packed, policy):
    obs = Registry()
    try:
        return validate(packed, policy=policy, obs=obs), None, obs.snapshot()
    except ChunkIntegrityError as exc:
        return None, exc, obs.snapshot()


def _assert_agree(base, spill, n_groups, reduction):
    for policy in RECOVERY_POLICIES:
        packed = _packed(base, spill, n_groups, reduction)
        want, want_exc, want_counters = _run(validate_packed_reference, packed, policy)
        got, got_exc, got_counters = _run(validate_packed, packed, policy)
        assert got_counters == want_counters, policy
        if want_exc is not None:
            assert got_exc is not None, policy
            assert str(got_exc) == str(want_exc)
            for attr in ("group", "reduction", "chunk_index", "field", "is_spill"):
                assert getattr(got_exc, attr) == getattr(want_exc, attr), attr
            continue
        assert got_exc is None, policy
        assert (got is packed) == (want is packed), policy
        assert got.base_chunks == want.base_chunks, policy
        assert got.spill_chunks == want.spill_chunks, policy
        assert got.single_outlier_chunks == want.single_outlier_chunks
        assert got.multi_outlier_chunks == want.multi_outlier_chunks
        np.testing.assert_array_equal(got.unpack(), unpack_chunks(*chunk_form(want)))


# ---------------------------------------------------------------- properties


def _spill(*lanes):
    return WeightChunk(lanes=tuple(lanes) + (0,) * (LANES - len(lanes)), is_spill=True)


_CLEAN = (1,) * LANES
_LANES_BAD = (9,) + (1,) * (LANES - 1)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(tables())
@example(  # duplicate pointer whose first claimant has a lanes-only violation
    (
        [WeightChunk(lanes=_LANES_BAD, ol_ptr=0), WeightChunk(lanes=_CLEAN, ol_ptr=0)],
        [_spill(2, 3)],
        1,
        2,
    )
)
@example(  # a dangling pointer, a lanes-only duplicate and a spill overflow
    (
        [
            WeightChunk(lanes=_CLEAN, ol_ptr=3),
            WeightChunk(lanes=_CLEAN, ol_ptr=0),
            WeightChunk(lanes=_LANES_BAD, ol_ptr=0),
            WeightChunk(lanes=_CLEAN, ol_ptr=1),
        ],
        [_spill(1), _spill(16)],
        2,
        2,
    )
)
def test_validate_packed_matches_chunk_reference(case):
    _assert_agree(*case)


@pytest.mark.parametrize("policy", ["degrade", "skip"])
def test_duplicate_after_lanes_only_claimant(policy):
    """``degrade`` keeps a lanes-only chunk's pointer, so the second
    claimant is the duplicate; ``skip`` drops it, so the second claimant
    owns the spill chunk."""
    base = [WeightChunk(lanes=_LANES_BAD, ol_ptr=0), WeightChunk(lanes=_CLEAN, ol_ptr=0)]
    obs = Registry()
    repaired = validate_packed(_packed(base, [_spill(2, 3)], 1, 2), policy=policy, obs=obs)
    assert obs.snapshot()["faults/detected"] == (2 if policy == "degrade" else 1)
    assert repaired.tables.ol_ptr.tolist() == ([0, -1] if policy == "degrade" else [-1, 0])


# ---------------------------------------------------------------- swarm


@st.composite
def swarm_tables(draw):
    """A (C, H, W) extent, a threshold and a swarm table around them."""
    c, h, w = draw(st.integers(1, 20)), draw(st.integers(1, 5)), draw(st.integers(1, 5))
    normal_max = draw(st.sampled_from((7, 15)))
    padded_c = -(-c // LANES) * LANES
    value = st.one_of(
        st.integers(normal_max + 1, 0xFFFF),
        st.integers(normal_max + 1, 0xFFFF),
        st.integers(-3, normal_max),
        st.integers(0xFFFF + 1, 0xFFFF + 3),
    )
    rows = draw(
        st.lists(
            st.tuples(
                st.integers(-1, padded_c), st.integers(-1, h), st.integers(-1, w), value
            ),
            max_size=12,
        )
    )
    table = np.array(rows, dtype=np.int64).reshape(len(rows), 4)
    return table, (c, h, w), normal_max


@settings(max_examples=150, deadline=None, derandomize=True)
@given(swarm_tables())
@example((np.zeros((0, 4), dtype=np.int64), (3, 2, 2), 15))
@example((np.array([[15, 1, 1, 16], [16, 0, 0, 16], [0, 2, 0, 99], [0, 0, 0, 15]]), (3, 2, 2), 15))
def test_validate_swarm_matches_entry_reference(case):
    table, shape, normal_max = case
    for policy in RECOVERY_POLICIES:
        results = []
        for validate in (validate_swarm_scalar, validate_swarm):
            obs = Registry()
            try:
                kept = validate(table, shape, policy=policy, obs=obs, normal_max=normal_max)
                results.append((kept, None, obs.snapshot()))
            except ChunkIntegrityError as exc:
                results.append((None, exc, obs.snapshot()))
        (want, want_exc, want_counters), (got, got_exc, got_counters) = results
        assert got_counters == want_counters, policy
        if want_exc is not None:
            assert got_exc is not None, policy
            assert str(got_exc) == str(want_exc)
            assert got_exc.chunk_index == want_exc.chunk_index
            assert got_exc.field == want_exc.field
            continue
        assert got_exc is None, policy
        np.testing.assert_array_equal(got, want)
        assert got.shape == want.shape
        assert (got is table) == (not want_counters), policy
