"""Bit-exact equivalence of the vectorized hot paths vs their scalar
twins in :mod:`repro.reference`, across randomized shapes and densities,
including the fault-injection interplay (rate 0 and rate > 0)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.act_packing import PackedActivations, pack_activations, unpack_activations
from repro.arch.bitcodec import decode_packed, encode_packed
from repro.arch.chunks import WEIGHT_CHUNK_BITS, WeightChunk
from repro.arch.packing import PackedWeights, WeightTables, pack_weights
from repro.errors import ChunkIntegrityError
from repro.faults import FAULT_MODELS, FaultPlan, validate_packed
from repro.faults.datapath import corrupt_packed_weights, faulty_olaccel_conv2d
from repro.obs import Registry
from repro.olaccel.functional import olaccel_conv2d
from repro.reference import (
    batch_pass_cycles_scalar,
    chunk_form,
    cluster_run_scalar,
    decode_table,
    encode_table,
    pack_activations_scalar,
    pack_weights_scalar,
    packed_from_chunks,
    unpack_activations_scalar,
    unpack_chunks,
)


def _random_levels(rng, out_c, reduction, density):
    levels = rng.integers(-7, 8, size=(out_c, reduction))
    outliers = rng.random(size=levels.shape) < density
    magnitudes = rng.integers(8, 128, size=levels.shape)
    signs = rng.choice(np.array([-1, 1]), size=levels.shape)
    return np.where(outliers, signs * magnitudes, levels).astype(np.int64)


def _random_shapes(seed, n):
    rng = np.random.default_rng(seed)
    for _ in range(n):
        out_c = int(rng.integers(1, 70))
        reduction = int(rng.integers(1, 50))
        density = float(rng.choice(np.array([0.0, 0.01, 0.05, 0.2, 0.6])))
        yield rng, out_c, reduction, density


# ---------------------------------------------------------------------------
# packing
# ---------------------------------------------------------------------------


def test_pack_weights_chunks_bit_exact():
    for rng, out_c, reduction, density in _random_shapes(101, 25):
        levels = _random_levels(rng, out_c, reduction, density)
        fast = pack_weights(levels)
        slow = pack_weights_scalar(levels)
        assert fast.base_chunks == slow.base_chunks
        assert fast.spill_chunks == slow.spill_chunks
        assert fast == slow
        assert fast.single_outlier_chunks == slow.single_outlier_chunks
        assert fast.multi_outlier_chunks == slow.multi_outlier_chunks
        assert fast.total_bits == slow.total_bits


def test_unpack_round_trips_both_paths():
    for rng, out_c, reduction, density in _random_shapes(202, 25):
        levels = _random_levels(rng, out_c, reduction, density)
        fast = pack_weights(levels)
        slow = pack_weights_scalar(levels)
        assert np.array_equal(fast.unpack(), levels)
        assert np.array_equal(unpack_chunks(*chunk_form(fast)), levels)
        assert np.array_equal(slow.unpack(), levels)
        assert np.array_equal(unpack_chunks(*chunk_form(slow)), levels)


def test_pack_weights_extreme_levels():
    # every boundary level, including the sign-in-nibble -8/-127 cases
    levels = np.array([[-127, -8, -7, -1, 0, 1, 7, 8, 127, 64, -64, 15, -15, 56, -56, 120]])
    fast = pack_weights(levels.T @ np.ones((1, 3), dtype=np.int64))
    slow = pack_weights_scalar(levels.T @ np.ones((1, 3), dtype=np.int64))
    assert fast.base_chunks == slow.base_chunks
    assert fast.spill_chunks == slow.spill_chunks


def test_empty_reduction_matrix():
    levels = np.zeros((5, 0), dtype=np.int64)
    fast = pack_weights(levels)
    slow = pack_weights_scalar(levels)
    assert fast.base_chunks == slow.base_chunks == []
    assert fast.unpack().shape == (5, 0)


# ---------------------------------------------------------------------------
# outlier-count caching regression (the O(n)-scan-per-access fix)
# ---------------------------------------------------------------------------


def test_outlier_counts_cached_on_construction():
    levels = _random_levels(np.random.default_rng(3), 48, 20, 0.2)
    packed = pack_weights(levels)
    single, multi = packed.single_outlier_chunks, packed.multi_outlier_chunks
    assert single > 0 and multi > 0
    # in-place mutation of a materialized list is not rescanned: the counts
    # were cached at construction
    packed.base_chunks.append(WeightChunk(lanes=(0,) * 16, ol_idx=3, ol_msb=5))
    assert packed.single_outlier_chunks == single
    assert packed.multi_outlier_chunks == multi


def test_outlier_counts_of_reference_built_tables():
    plain = [WeightChunk(lanes=(1,) * 16) for _ in range(4)]
    single_chunk = WeightChunk(lanes=(0,) * 16, ol_idx=2, ol_msb=-3)
    packed = packed_from_chunks(plain + [single_chunk], [], 1, 5, 16)
    assert packed.single_outlier_chunks == 1
    assert packed.multi_outlier_chunks == 0
    assert packed.n_spill == 0

    levels = _random_levels(np.random.default_rng(5), 32, 12, 0.4)
    packed = packed_from_chunks(*chunk_form(pack_weights_scalar(levels)))
    n_spill = pack_weights(levels).n_spill
    assert n_spill > 0
    assert len(packed.spill_chunks) == n_spill
    assert np.array_equal(unpack_chunks(*chunk_form(packed)), levels)


def _chunk_equal(a: PackedWeights, b: PackedWeights) -> bool:
    """Equality as the chunk lists define it."""
    return (
        (a.n_groups, a.reduction, a.out_channels) == (b.n_groups, b.reduction, b.out_channels)
        and a.base_chunks == b.base_chunks
        and a.spill_chunks == b.spill_chunks
    )


def _with_dropped_metadata(packed: PackedWeights, rng) -> PackedWeights:
    """The same chunk view from a raw table that keeps what the view drops:
    ``ol_idx``/``ol_msb`` on spilled rows, ``ol_idx`` next to a zero
    ``ol_msb``, and negative pointers other than -1."""
    t = packed.tables
    multi = t.ol_ptr >= 0
    single = ~multi & (t.ol_msb != 0)
    noise = rng.integers(-5, 16, size=t.ol_idx.shape)
    tables = WeightTables(
        lanes=t.lanes,
        ol_idx=np.where(single, t.ol_idx, noise),
        ol_msb=np.where(multi, noise, t.ol_msb),
        ol_ptr=np.where(multi, t.ol_ptr, rng.integers(-4, 0, size=t.ol_ptr.shape)),
        spill_lanes=t.spill_lanes,
    )
    return PackedWeights(tables, packed.n_groups, packed.reduction, packed.out_channels)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    out_c=st.integers(1, 40),
    reduction=st.integers(1, 12),
    density=st.sampled_from((0.0, 0.05, 0.3)),
    rate=st.sampled_from((0.0, 0.02, 0.2)),
    model=st.sampled_from(FAULT_MODELS),
)
def test_table_equality_matches_chunk_equality(seed, out_c, reduction, density, rate, model):
    rng = np.random.default_rng(seed)
    packed = pack_weights(_random_levels(rng, out_c, reduction, density))
    shape = dict(n_groups=packed.n_groups, reduction=packed.reduction, out_channels=packed.out_channels)
    plan = FaultPlan(rate=rate, seed=seed, model=model)
    base_words, spill_words = encode_packed(packed)
    base_words, _ = plan.corrupt_words(base_words, WEIGHT_CHUNK_BITS, surface="weight_chunks")
    spill_words, _ = plan.corrupt_words(spill_words, WEIGHT_CHUNK_BITS, surface="weight_chunks")
    decoded = decode_packed(base_words, spill_words, strict=False, **shape)
    candidates = [
        packed,
        decoded,
        validate_packed(decoded, policy="degrade"),
        validate_packed(decoded, policy="skip"),
        _with_dropped_metadata(packed, rng),
        _with_dropped_metadata(decoded, rng),
        PackedWeights(packed.tables, packed.n_groups, packed.reduction, packed.out_channels + 1),
    ]
    for a in candidates:
        for b in candidates:
            assert (a == b) == _chunk_equal(a, b)
    assert candidates[4] == packed


# ---------------------------------------------------------------------------
# bit codec
# ---------------------------------------------------------------------------


def test_encode_packed_matches_encode_table():
    for rng, out_c, reduction, density in _random_shapes(303, 25):
        levels = _random_levels(rng, out_c, reduction, min(density, 0.05))
        packed = pack_weights(levels)
        if packed.n_spill > 254:
            continue
        fast_base, fast_spill = encode_packed(packed)
        slow_base, slow_spill = encode_table(packed.base_chunks, packed.spill_chunks)
        assert fast_base == slow_base
        assert fast_spill == slow_spill


def test_decode_packed_matches_decode_table():
    for rng, out_c, reduction, density in _random_shapes(404, 25):
        levels = _random_levels(rng, out_c, reduction, min(density, 0.05))
        packed = pack_weights(levels)
        if packed.n_spill > 254:
            continue
        base_words, spill_words = encode_packed(packed)
        decoded = decode_packed(
            base_words,
            spill_words,
            n_groups=packed.n_groups,
            reduction=packed.reduction,
            out_channels=packed.out_channels,
        )
        bases, spills = decode_table(base_words, spill_words)
        assert decoded.base_chunks == bases
        assert decoded.spill_chunks == spills
        assert np.array_equal(decoded.unpack(), levels)


def test_decode_packed_corrupted_words_match_scalar():
    rng = np.random.default_rng(505)
    for _ in range(40):
        levels = _random_levels(rng, 33, 20, 0.05)
        packed = pack_weights(levels)
        base_words, spill_words = encode_packed(packed)
        for _ in range(6):
            index = int(rng.integers(len(base_words)))
            base_words[index] ^= 1 << int(rng.integers(WEIGHT_CHUNK_BITS))
        kwargs = dict(
            n_groups=packed.n_groups,
            reduction=packed.reduction,
            out_channels=packed.out_channels,
        )
        bases, spills = decode_table(base_words, spill_words, strict=False)
        decoded = decode_packed(base_words, spill_words, strict=False, **kwargs)
        assert decoded.base_chunks == bases
        assert decoded.spill_chunks == spills
        # strict mode raises (or not) identically
        try:
            decode_table(base_words, spill_words, strict=True)
            scalar_raised = False
        except ChunkIntegrityError:
            scalar_raised = True
        if scalar_raised:
            with pytest.raises(ChunkIntegrityError):
                decode_packed(base_words, spill_words, strict=True, **kwargs)
        else:
            decode_packed(base_words, spill_words, strict=True, **kwargs)


def test_decode_packed_rejects_oversized_word():
    with pytest.raises(ChunkIntegrityError):
        decode_packed([1 << WEIGHT_CHUNK_BITS], [], n_groups=1, reduction=1, out_channels=1)


# ---------------------------------------------------------------------------
# activation packing
# ---------------------------------------------------------------------------


def test_pack_activations_fast_matches_slow():
    rng = np.random.default_rng(606)
    for _ in range(20):
        c, h, w = (int(rng.integers(1, 40)), int(rng.integers(1, 12)), int(rng.integers(1, 12)))
        levels = rng.integers(0, 16, size=(c, h, w))
        outliers = rng.random(size=levels.shape) < 0.1
        levels = np.where(outliers, rng.integers(16, 300, size=levels.shape), levels).astype(np.int64)
        fast = pack_activations(levels)
        slow = pack_activations_scalar(levels)
        assert np.array_equal(fast.dense, slow.dense)
        assert fast.outliers == slow.outliers
        assert np.array_equal(unpack_activations(fast), levels)
        assert np.array_equal(unpack_activations_scalar(fast.dense, fast.shape, fast.outliers), levels)
        assert np.array_equal(unpack_activations(slow), levels)


def test_pack_activations_lazy_table_and_counts():
    # the packer reports FIFO counts and footprint straight from the
    # coordinate table, its only FIFO form; .outliers is a view of it
    from repro.arch.act_packing import OUTLIER_ENTRY_BITS

    rng = np.random.default_rng(616)
    levels = rng.integers(0, 16, size=(20, 6, 6))
    mask = rng.random(size=levels.shape) < 0.15
    levels = np.where(mask, rng.integers(16, 200, size=levels.shape), levels).astype(np.int64)

    fast = pack_activations(levels)
    assert set(vars(fast)) == {"dense", "shape", "outlier_table"}
    slow = pack_activations_scalar(levels)
    assert fast.n_outliers == len(slow.outliers)
    assert fast.outlier_bits == len(slow.outliers) * OUTLIER_ENTRY_BITS
    assert fast.total_bits == slow.total_bits
    assert set(vars(fast)) == {"dense", "shape", "outlier_table"}  # no entry list kept
    assert fast.outliers == slow.outliers
    assert fast.outliers is not fast.outliers  # a view, built on each access


def test_pack_activations_extremes_and_padding():
    cases = [
        (np.zeros((16, 3, 3), dtype=np.int64), 15),  # exact chunk multiple, all zero
        (np.full((5, 2, 2), 100, dtype=np.int64), 15),  # every element an outlier
        (np.arange(32 * 4).reshape(32, 2, 2).astype(np.int64) % 16, 15),  # no outliers
        (np.arange(17 * 9).reshape(17, 3, 3).astype(np.int64) % 40, 15),  # padded channels
        (np.arange(3 * 4).reshape(3, 2, 2).astype(np.int64), 7),  # custom normal_max
    ]
    for levels, normal_max in cases:
        fast = pack_activations(levels, normal_max=normal_max)
        slow = pack_activations_scalar(levels, normal_max=normal_max)
        assert np.array_equal(fast.dense, slow.dense)
        assert fast.outliers == slow.outliers
        assert fast == slow
        assert np.array_equal(unpack_activations(fast), levels)


def test_activation_fault_strikes_identical_across_packing_paths():
    # FaultPlan's rng is stateless per (seed, surface): the fast and the
    # scalar packer's outlier tables carry the same values in the same
    # order, so the swarm-value strikes degrade identically.
    rng = np.random.default_rng(515)
    levels = rng.integers(0, 16, size=(24, 5, 5))
    mask = rng.random(size=levels.shape) < 0.2
    levels = np.where(mask, rng.integers(16, 300, size=levels.shape), levels).astype(np.int64)
    plan = FaultPlan(rate=2e-2, seed=17)

    results = []
    for packer in (pack_activations, pack_activations_scalar):
        packed = packer(levels)
        dense, _ = plan.corrupt_levels(packed.dense, 4, surface="activations")
        table = packed.outlier_table.copy()
        table[:, 3], _ = plan.corrupt_levels(table[:, 3], 16, surface="outliers")
        results.append(unpack_activations(PackedActivations(dense, packed.shape, table)))
    assert np.array_equal(results[0], results[1])
    assert not np.array_equal(results[0], levels)  # the strikes landed


# ---------------------------------------------------------------------------
# functional datapath
# ---------------------------------------------------------------------------


def test_olaccel_conv2d_fast_matches_slow():
    rng = np.random.default_rng(707)
    acts = rng.integers(0, 30, size=(1, 8, 7, 7)).astype(np.int64)
    weights = _random_levels(rng, 24, 8 * 9, 0.1).reshape(24, 8, 3, 3)
    fast = olaccel_conv2d(acts, weights, pad=1)
    slow = olaccel_conv2d(acts, weights, pad=1, packed=pack_weights_scalar(weights.reshape(24, -1)))
    assert np.array_equal(fast.psum, slow.psum)
    assert fast.cycles == slow.cycles
    assert np.array_equal(fast.pass_cycles, slow.pass_cycles)
    assert fast.outlier_broadcasts == slow.outlier_broadcasts


# ---------------------------------------------------------------------------
# fault-injection interplay
# ---------------------------------------------------------------------------


def test_faults_rate_zero_identity_both_paths():
    rng = np.random.default_rng(808)
    levels = _random_levels(rng, 32, 18, 0.05)
    plan = FaultPlan(rate=0.0, seed=9)
    for packer in (pack_weights, pack_weights_scalar):
        rebuilt = corrupt_packed_weights(packer(levels), plan)
        assert np.array_equal(rebuilt.unpack(), levels)
        assert np.array_equal(unpack_chunks(*chunk_form(rebuilt)), levels)


def test_faults_nonzero_rate_identical_across_packing_paths():
    # FaultPlan's rng is stateless per (seed, surface): identical word
    # lists get identical strikes, so the fast- and slow-packed tables
    # degrade identically.
    rng = np.random.default_rng(909)
    levels = _random_levels(rng, 48, 22, 0.05)
    plan = FaultPlan(rate=5e-3, seed=31)

    results = []
    for packer in (pack_weights, pack_weights_scalar):
        obs = Registry()
        packed = packer(levels)
        rebuilt = corrupt_packed_weights(packed, plan, policy="degrade", obs=obs)
        counters = obs.snapshot()
        results.append((rebuilt.unpack(), counters))
    (fast_levels, fast_counters), (slow_levels, slow_counters) = results
    assert np.array_equal(fast_levels, slow_levels)
    assert fast_counters == slow_counters


def test_faulty_conv_counters_reconcile_with_fast_paths():
    rng = np.random.default_rng(111)
    acts = rng.integers(0, 25, size=(1, 4, 6, 6)).astype(np.int64)
    weights = _random_levels(rng, 16, 4 * 9, 0.08).reshape(16, 4, 3, 3)
    outcome = faulty_olaccel_conv2d(acts, weights, pad=1, plan=FaultPlan(rate=2e-3, seed=5))
    assert outcome.injected == outcome.detected + outcome.undetected
    assert outcome.undetected >= 0


# ---------------------------------------------------------------------------
# event_sim: vectorized cluster run vs the scalar stepper
# ---------------------------------------------------------------------------


def _random_cluster_case(rng, case):
    """One pass batch (every tenth empty), 0-299 outlier broadcasts,
    1-12 groups and bandwidth 1-4."""
    from repro.olaccel.event_sim import passes_from_levels

    n_passes = 0 if case % 10 == 0 else int(rng.integers(1, 60))
    levels = rng.integers(0, 16, size=(n_passes, 16))
    levels[rng.random(levels.shape) < float(rng.uniform(0.1, 0.9))] = 0
    spills = rng.random(levels.shape) < float(rng.uniform(0.0, 0.5))
    return (
        passes_from_levels(levels, spills),
        int(rng.integers(0, 300)),
        int(rng.integers(1, 13)),
        1 + case % 4,
    )


def _observed_run(run, n_groups, bw, passes, capacity=65536, **kwargs):
    """``run(sim, passes, **kwargs)`` on a simulator with a fresh registry
    and tracer attached: (result or error text, registry document,
    histogram names in creation order, trace events, dropped events)."""
    import dataclasses

    from repro.obs import Tracer
    from repro.olaccel.event_sim import ClusterSim

    obs, tracer = Registry(), Tracer(capacity=capacity)
    sim = ClusterSim(n_groups=n_groups, accumulation_bandwidth=bw, obs=obs, tracer=tracer)
    try:
        outcome = dataclasses.asdict(run(sim, passes, **kwargs))
    except RuntimeError as exc:
        outcome = str(exc)
    events = [(e.cycle, e.kind, e.payload) for e in tracer.events]
    return outcome, obs.to_dict(), list(obs.histograms), events, tracer.dropped


def _fast(sim, passes, **kwargs):
    return sim.run(passes, **kwargs)


def test_cluster_sim_fast_matches_scalar_randomized():
    """Result, registry document (histograms in creation order) and trace
    events of every observed run equal the stepper's: empty batches,
    outlier tails longer than the passes, bandwidth 1-4, a tracer ring
    that drops events, and runs cut at the ``max_cycles`` boundary."""
    from repro.olaccel.event_sim import ClusterSim

    rng = np.random.default_rng(4242)
    raised = dropped = 0
    for case in range(120):
        passes, outliers, n_groups, bw = _random_cluster_case(rng, case)
        kwargs = {"outlier_broadcasts": outliers}
        if case % 3 == 0:
            need = ClusterSim(n_groups, bw).run(passes, **kwargs).cycles
            kwargs["max_cycles"] = need + int(rng.integers(-5, 2))
        capacity = 3 if case % 2 else 65536
        fast = _observed_run(_fast, n_groups, bw, passes, capacity, **kwargs)
        slow = _observed_run(cluster_run_scalar, n_groups, bw, passes, capacity, **kwargs)
        assert fast == slow, case
        if capacity > len(passes) and not isinstance(fast[0], str):
            # the pass_done list names the cycle and group of every pass
            assert len(fast[3]) == len(passes)
        raised += isinstance(fast[0], str)
        dropped += fast[4] > 0
    assert raised > 10 and dropped > 10


def test_cluster_sim_fast_matches_scalar_edge_cases():
    from repro.olaccel.event_sim import passes_from_levels

    empty = passes_from_levels(np.zeros((0, 16), dtype=np.int64))
    all_zero = passes_from_levels(np.zeros((5, 16), dtype=np.int64))
    for passes, outliers in [(empty, 0), (empty, 7), (all_zero, 0), (all_zero, 3)]:
        fast = _observed_run(_fast, 3, 2, passes, outlier_broadcasts=outliers)
        slow = _observed_run(cluster_run_scalar, 3, 2, passes, outlier_broadcasts=outliers)
        assert fast == slow
    # a zero-cycle run still creates all three histograms, empty
    outcome, doc, names, events, _ = _observed_run(_fast, 3, 2, empty)
    assert outcome["cycles"] == 0 and events == []
    assert names == ["queue_depth", "pending_results", "tribuffer_active"]
    assert all(doc["histograms"][name]["count"] == 0 for name in names)


def test_cluster_sim_repeated_runs_accumulate_identically():
    """One simulator run twice returns what two fresh ones return, and
    its registry adds up both runs exactly as the stepper's does."""
    import dataclasses

    from repro.olaccel.event_sim import ClusterSim, passes_from_levels

    rng = np.random.default_rng(77)
    big = passes_from_levels(rng.integers(0, 16, size=(300, 16)))
    small = passes_from_levels(rng.integers(0, 16, size=(3, 16)))
    reused_obs, stepper_obs = Registry(), Registry()
    reused = ClusterSim(n_groups=4, obs=reused_obs)
    stepper = ClusterSim(n_groups=4, obs=stepper_obs)
    for passes, outliers in [(big, 10), (small, 0)]:
        got = dataclasses.asdict(reused.run(passes, outlier_broadcasts=outliers))
        fresh = dataclasses.asdict(ClusterSim(n_groups=4).run(passes, outlier_broadcasts=outliers))
        want = dataclasses.asdict(cluster_run_scalar(stepper, passes, outlier_broadcasts=outliers))
        assert got == fresh == want
    assert got["passes"] == 3 and got["idle_cycles"] >= 0
    assert reused_obs.to_dict() == stepper_obs.to_dict()


def test_cluster_sim_max_cycles_boundary_matches():
    from repro.olaccel.event_sim import ClusterSim, passes_from_levels

    passes = passes_from_levels(np.ones((1, 16), dtype=np.int64))
    need = cluster_run_scalar(ClusterSim(n_groups=1), passes).cycles
    for max_cycles in (need, need + 1):
        outcomes = []
        for run in (_fast, cluster_run_scalar):
            try:
                run(ClusterSim(n_groups=1), passes, max_cycles=max_cycles)
                outcomes.append("converged")
            except RuntimeError:
                outcomes.append("raised")
        assert outcomes[0] == outcomes[1], (max_cycles, outcomes)
        assert outcomes[0] == ("raised" if max_cycles == need else "converged")


def test_cluster_sim_obs_records_histograms_on_fast_path():
    # the per-cycle histograms come from the same run an unobserved
    # simulator computes, and equal the stepper's
    from repro.olaccel.event_sim import ClusterSim, passes_from_levels

    rng = np.random.default_rng(9)
    levels = rng.integers(0, 4, size=(6, 16))
    passes = passes_from_levels(levels)
    obs = Registry()
    ClusterSim(n_groups=2, obs=obs).run(passes)
    assert obs.histogram("queue_depth").count > 0
    stepper_obs = Registry()
    cluster_run_scalar(ClusterSim(n_groups=2, obs=stepper_obs), passes)
    assert obs.to_dict() == stepper_obs.to_dict()


def test_cluster_sim_tracer_receives_pass_events_on_fast_path():
    # an attached tracer receives every per-pass completion event, the
    # stepper's events in the stepper's order
    from repro.obs import Tracer
    from repro.olaccel.event_sim import ClusterSim, passes_from_levels

    rng = np.random.default_rng(10)
    levels = rng.integers(0, 4, size=(7, 16))
    passes = passes_from_levels(levels)
    tracer = Tracer()
    result = ClusterSim(n_groups=2, tracer=tracer).run(passes)
    assert len(tracer.of_kind("pass_done")) == result.passes == 7
    stepper_tracer = Tracer()
    cluster_run_scalar(ClusterSim(n_groups=2, tracer=stepper_tracer), passes)
    assert tracer.to_dicts() == stepper_tracer.to_dicts()


def test_passes_from_levels_returns_lazy_pass_matrix():
    from repro.olaccel.event_sim import PassDescriptor, PassMatrix, passes_from_levels

    rng = np.random.default_rng(11)
    levels = rng.integers(0, 16, size=(9, 16))
    spills = rng.random(levels.shape) < 0.3
    passes = passes_from_levels(levels, spills)
    assert isinstance(passes, PassMatrix)
    assert len(passes) == 9
    for i in (0, 4, 8):
        desc = passes[i]
        assert isinstance(desc, PassDescriptor)
        assert desc.activations == tuple(int(v) for v in levels[i])
        assert desc.spill == tuple(bool(s) for s in spills[i])
    assert passes[2:4] == [passes[2], passes[3]]
    assert list(passes) == [passes[i] for i in range(9)]


def test_cluster_sim_fast_accepts_plain_descriptor_lists():
    # manually built descriptor lists (tests, notebooks) must keep
    # working on the fast path, not just PassMatrix batches
    import dataclasses

    from repro.olaccel.event_sim import ClusterSim, PassDescriptor

    rng = np.random.default_rng(12)
    levels = rng.integers(0, 16, size=(11, 16))
    spills = rng.random(levels.shape) < 0.25
    passes = [
        PassDescriptor(tuple(int(v) for v in row), tuple(bool(s) for s in srow))
        for row, srow in zip(levels, spills)
    ]
    fast = ClusterSim(n_groups=3).run(passes, outlier_broadcasts=4)
    slow = cluster_run_scalar(ClusterSim(n_groups=3), passes, outlier_broadcasts=4)
    assert dataclasses.asdict(fast) == dataclasses.asdict(slow)


def test_batch_pass_cycles_fast_matches_slow():
    from repro.olaccel.pe_group import batch_pass_cycles

    rng = np.random.default_rng(13)
    for _ in range(25):
        n = int(rng.integers(0, 50))
        levels = rng.integers(0, 16, size=(n, 16))
        levels[rng.random(levels.shape) < float(rng.uniform(0.1, 0.9))] = 0
        spills = rng.random(levels.shape) < float(rng.uniform(0.0, 0.5))
        fast = batch_pass_cycles(levels, spills)
        slow = batch_pass_cycles_scalar(levels, spills)
        assert np.array_equal(fast, slow)
        assert fast.dtype == slow.dtype == np.int64
    # spill_flags defaults to no spills on both paths
    levels = rng.integers(0, 16, size=(8, 16))
    assert np.array_equal(batch_pass_cycles(levels), batch_pass_cycles_scalar(levels))
    with pytest.raises(ValueError):
        batch_pass_cycles(levels, np.zeros((8, 4), dtype=bool))


def test_pass_op_counts_sum_is_micro_schedule_length():
    from repro.olaccel.event_sim import PassDescriptor
    from repro.olaccel.pe_group import pass_op_counts
    from repro.reference import _micro_schedule

    rng = np.random.default_rng(14)
    levels = rng.integers(0, 16, size=(12, 16))
    levels[rng.random(levels.shape) < 0.5] = 0
    spills = rng.random(levels.shape) < 0.3
    bcast, stall, skip = pass_op_counts(levels, spills)
    for i in range(12):
        ops = _micro_schedule(
            PassDescriptor(tuple(int(v) for v in levels[i]), tuple(bool(s) for s in spills[i]))
        )
        assert bcast[i] == ops.count("bcast")
        assert stall[i] == ops.count("stall")
        assert skip[i] == ops.count("skip")
        assert bcast[i] + stall[i] + skip[i] == len(ops)


# ---------------------------------------------------------------------------
# col2im: indexed scatter vs blocked slice-adds
# ---------------------------------------------------------------------------


def test_col2im_fast_matches_slow_both_branches():
    # col2im picks a branch by slice size; each helper also runs on
    # every case, so both are compared on both sides of the limit
    from repro.nn import functional as F

    rng = np.random.default_rng(515)
    cases = [
        # (n, c, h, w, k, stride, pad): small slices -> scatter branch
        (1, 2, 6, 6, 5, 1, 2),
        (1, 1, 8, 8, 5, 2, 2),
        (2, 2, 5, 5, 3, 1, 1),
        (1, 1, 12, 12, 7, 1, 3),
        (1, 1, 5, 7, 2, 1, 0),
        # large slices -> slice-add branch
        (4, 16, 14, 14, 3, 1, 1),
        (2, 8, 16, 16, 5, 3, 2),
    ]
    for n, c, h, w, k, s, p in cases:
        out_h = F.conv_out_size(h, k, s, p)
        out_w = F.conv_out_size(w, k, s, p)
        for dtype in (np.float64, np.float32):
            cols = rng.standard_normal((n * out_h * out_w, c * k * k)).astype(dtype)
            fast = F.col2im(cols, (n, c, h, w), k, k, s, p)
            scatter = F._col2im_scatter(cols, (n, c, h, w), k, k, s, p)
            slow = F._col2im_slices(cols, (n, c, h, w), k, k, s, p)
            assert fast.dtype == scatter.dtype == slow.dtype
            assert np.array_equal(fast, slow), (n, c, h, w, k, s, p, dtype)
            assert np.array_equal(scatter, slow), (n, c, h, w, k, s, p, dtype)


def test_col2im_is_adjoint_of_im2col_unpadded():
    from repro.nn import functional as F

    rng = np.random.default_rng(77)
    x = rng.standard_normal((2, 3, 8, 8))
    cols = F.im2col(x, 2, 2, 2, 0)  # non-overlapping windows
    assert np.array_equal(F.col2im(cols, x.shape, 2, 2, 2, 0), x)


def test_conv2d_backward_gradients_unchanged_by_fast_path():
    from repro.nn import functional as F

    rng = np.random.default_rng(31)
    x = rng.standard_normal((1, 2, 6, 6))
    w = rng.standard_normal((4, 2, 3, 3))
    y, cache = F.conv2d(x, w, stride=1, pad=1, train=True)
    dy = rng.standard_normal(y.shape)
    dx, dw, db = F.conv2d_backward(dy, cache)
    # reference dx through each col2im helper on the same dcols
    x_shape, cols, weight, stride, pad = cache
    dy_mat = dy.transpose(0, 2, 3, 1).reshape(-1, 4)
    dcols = dy_mat @ weight.reshape(4, -1)
    dx_ref = F._col2im_slices(dcols, x_shape, 3, 3, stride, pad)
    assert np.array_equal(dx, dx_ref)
    assert np.array_equal(dx, F._col2im_scatter(dcols, x_shape, 3, 3, stride, pad))


def test_coord_table_lru_bounded_and_evicts_oldest():
    from repro.nn import functional as F

    F._COORD_CACHE.clear()
    first_key = None
    for i in range(F._COORD_CACHE_MAX + 5):
        entry = F._coord_table(6 + i, 6 + i, 3, 3, 1, 1)
        assert entry[0] == F.conv_out_size(6 + i, 3, 1, 1)
        if i == 0:
            first_key = (6, 6, 3, 3, 1, 1)
    assert len(F._COORD_CACHE) == F._COORD_CACHE_MAX
    assert first_key not in F._COORD_CACHE  # oldest evicted
    # most recent geometries survive
    assert (6 + F._COORD_CACHE_MAX + 4,) * 2 + (3, 3, 1, 1) in F._COORD_CACHE


def test_coord_table_indices_built_lazily_and_reused():
    from repro.nn import functional as F

    F._COORD_CACHE.clear()
    entry = F._coord_table(6, 6, 3, 3, 1, 1)
    assert entry[2] is None  # geometry-only until the scatter needs it
    entry = F._coord_table(6, 6, 3, 3, 1, 1, need_indices=True)
    assert entry[2] is not None
    again = F._coord_table(6, 6, 3, 3, 1, 1, need_indices=True)
    assert again[2] is entry[2]  # same cached array, not rebuilt
