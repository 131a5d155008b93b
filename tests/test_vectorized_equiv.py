"""Bit-exact equivalence of the vectorized hot paths vs their
``slow_reference`` scalar twins, across randomized shapes and densities,
including the fault-injection interplay (rate 0 and rate > 0)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.arch.act_packing import pack_activations, unpack_activations
from repro.arch.bitcodec import decode_packed, decode_table, encode_packed, encode_table
from repro.arch.chunks import WEIGHT_CHUNK_BITS, WeightChunk
from repro.arch.packing import PackedWeights, pack_weights
from repro.errors import ChunkIntegrityError
from repro.faults import FaultPlan
from repro.faults.datapath import corrupt_packed_weights, faulty_olaccel_conv2d
from repro.obs import Registry
from repro.olaccel.functional import olaccel_conv2d


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
        slow = pack_weights(levels, slow_reference=True)
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
        slow = pack_weights(levels, slow_reference=True)
        assert np.array_equal(fast.unpack(), levels)
        assert np.array_equal(fast.unpack(slow_reference=True), levels)
        assert np.array_equal(slow.unpack(), levels)
        assert np.array_equal(slow.unpack(slow_reference=True), levels)


def test_pack_weights_extreme_levels():
    # every boundary level, including the sign-in-nibble -8/-127 cases
    levels = np.array([[-127, -8, -7, -1, 0, 1, 7, 8, 127, 64, -64, 15, -15, 56, -56, 120]])
    fast = pack_weights(levels.T @ np.ones((1, 3), dtype=np.int64))
    slow = pack_weights(levels.T @ np.ones((1, 3), dtype=np.int64), slow_reference=True)
    assert fast.base_chunks == slow.base_chunks
    assert fast.spill_chunks == slow.spill_chunks


def test_empty_reduction_matrix():
    levels = np.zeros((5, 0), dtype=np.int64)
    fast = pack_weights(levels)
    slow = pack_weights(levels, slow_reference=True)
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


def test_outlier_counts_recomputed_on_setter():
    levels = _random_levels(np.random.default_rng(4), 32, 10, 0.3)
    packed = pack_weights(levels)
    plain = [WeightChunk(lanes=(1,) * 16) for _ in range(4)]
    single_chunk = WeightChunk(lanes=(0,) * 16, ol_idx=2, ol_msb=-3)
    packed.base_chunks = plain + [single_chunk]
    assert packed.single_outlier_chunks == 1
    assert packed.multi_outlier_chunks == 0
    packed.spill_chunks = []
    assert packed.n_spill == 0


def test_chunk_list_assignment_preserves_other_half():
    # assigning base_chunks on a table-backed object must not lose spills
    levels = _random_levels(np.random.default_rng(5), 32, 12, 0.4)
    packed = pack_weights(levels)  # table-backed, chunks not materialized
    n_spill = packed.n_spill
    assert n_spill > 0
    packed.base_chunks = pack_weights(levels, slow_reference=True).base_chunks
    assert len(packed.spill_chunks) == n_spill
    assert np.array_equal(packed.unpack(slow_reference=True), levels)


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
        slow = pack_activations(levels, slow_reference=True)
        assert np.array_equal(fast.dense, slow.dense)
        assert fast.outliers == slow.outliers
        assert np.array_equal(unpack_activations(fast), levels)
        assert np.array_equal(unpack_activations(fast, slow_reference=True), levels)
        assert np.array_equal(unpack_activations(slow), levels)


def test_pack_activations_lazy_table_and_counts():
    # the fast packer must report FIFO counts and footprint straight
    # from the coordinate table, materializing entry objects only on
    # first .outliers access
    from repro.arch.act_packing import OUTLIER_ENTRY_BITS

    rng = np.random.default_rng(616)
    levels = rng.integers(0, 16, size=(20, 6, 6))
    mask = rng.random(size=levels.shape) < 0.15
    levels = np.where(mask, rng.integers(16, 200, size=levels.shape), levels).astype(np.int64)

    fast = pack_activations(levels)
    assert fast._outliers is None
    slow = pack_activations(levels, slow_reference=True)
    assert fast.n_outliers == len(slow.outliers)
    assert fast.outlier_bits == len(slow.outliers) * OUTLIER_ENTRY_BITS
    assert fast.total_bits == slow.total_bits
    assert fast._outliers is None  # counts/footprint did not materialize
    assert fast.outliers == slow.outliers  # first access materializes
    assert fast._outliers is not None


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
        slow = pack_activations(levels, normal_max=normal_max, slow_reference=True)
        assert np.array_equal(fast.dense, slow.dense)
        assert fast.outliers == slow.outliers
        assert fast == slow
        assert np.array_equal(unpack_activations(fast), levels)


def test_activation_fault_strikes_identical_across_packing_paths():
    # FaultPlan's rng is stateless per (seed, surface): the fast packer's
    # coordinate table and the scalar packer's FIFO carry the same values
    # in the same order, so the swarm-value strikes degrade identically.
    from dataclasses import replace as dc_replace

    rng = np.random.default_rng(515)
    levels = rng.integers(0, 16, size=(24, 5, 5))
    mask = rng.random(size=levels.shape) < 0.2
    levels = np.where(mask, rng.integers(16, 300, size=levels.shape), levels).astype(np.int64)
    plan = FaultPlan(rate=2e-2, seed=17)

    results = []
    for slow in (False, True):
        packed = pack_activations(levels, slow_reference=slow)
        dense, _ = plan.corrupt_levels(packed.dense, 4, surface="activations")
        values = packed._coord_table()[:, 3]
        struck_values, _ = plan.corrupt_levels(values, 16, surface="outliers")
        entries = [
            dc_replace(e, value=int(v)) for e, v in zip(packed.outliers, struck_values)
        ]
        results.append(unpack_activations(packed.replace_streams(dense=dense, outliers=entries)))
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
    slow = olaccel_conv2d(acts, weights, pad=1, slow_reference=True)
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
    for slow in (False, True):
        packed = pack_weights(levels, slow_reference=slow)
        rebuilt = corrupt_packed_weights(packed, plan)
        assert np.array_equal(rebuilt.unpack(), levels)
        assert np.array_equal(rebuilt.unpack(slow_reference=True), levels)


def test_faults_nonzero_rate_identical_across_packing_paths():
    # FaultPlan's rng is stateless per (seed, surface): identical word
    # lists get identical strikes, so the fast- and slow-packed tables
    # degrade identically.
    rng = np.random.default_rng(909)
    levels = _random_levels(rng, 48, 22, 0.05)
    plan = FaultPlan(rate=5e-3, seed=31)

    results = []
    for slow in (False, True):
        obs = Registry()
        packed = pack_weights(levels, slow_reference=slow)
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


def _random_cluster_case(rng):
    from repro.olaccel.event_sim import passes_from_levels

    n_passes = int(rng.integers(0, 40))
    levels = rng.integers(0, 16, size=(n_passes, 16))
    levels[rng.random(levels.shape) < float(rng.uniform(0.2, 0.8))] = 0
    spills = rng.random(levels.shape) < float(rng.uniform(0.0, 0.5))
    return (
        passes_from_levels(levels, spills),
        int(rng.integers(0, 30)),
        int(rng.integers(1, 13)),
        int(rng.integers(1, 5)),
    )


def test_cluster_sim_fast_matches_scalar_randomized():
    import dataclasses

    from repro.olaccel.event_sim import ClusterSim

    rng = np.random.default_rng(4242)
    for _ in range(60):
        passes, outliers, n_groups, bw = _random_cluster_case(rng)
        fast_sim = ClusterSim(n_groups=n_groups, accumulation_bandwidth=bw)
        slow_sim = ClusterSim(n_groups=n_groups, accumulation_bandwidth=bw)
        fast = fast_sim.run(passes, outlier_broadcasts=outliers)
        slow = slow_sim.run(passes, outlier_broadcasts=outliers, slow_reference=True)
        assert dataclasses.asdict(fast) == dataclasses.asdict(slow)
        # per-group counters must agree too: ClusterSim instances are
        # reusable and accumulate across run() calls
        for f_group, s_group in zip(fast_sim.groups, slow_sim.groups):
            assert f_group.busy_cycles == s_group.busy_cycles
            assert f_group.run_cycles == s_group.run_cycles
            assert f_group.skip_cycles == s_group.skip_cycles
            assert f_group.bcast_cycles == s_group.bcast_cycles
            assert f_group.stall_cycles == s_group.stall_cycles
            assert f_group.completed_passes == s_group.completed_passes


def test_cluster_sim_fast_matches_scalar_edge_cases():
    import dataclasses

    from repro.olaccel.event_sim import ClusterSim, passes_from_levels

    empty = passes_from_levels(np.zeros((0, 16), dtype=np.int64))
    all_zero = passes_from_levels(np.zeros((5, 16), dtype=np.int64))
    for passes, outliers in [(empty, 0), (empty, 7), (all_zero, 0), (all_zero, 3)]:
        fast = ClusterSim(n_groups=3).run(passes, outlier_broadcasts=outliers)
        slow = ClusterSim(n_groups=3).run(
            passes, outlier_broadcasts=outliers, slow_reference=True
        )
        assert dataclasses.asdict(fast) == dataclasses.asdict(slow)


def test_cluster_sim_repeated_runs_accumulate_identically():
    import dataclasses

    from repro.olaccel.event_sim import ClusterSim

    rng = np.random.default_rng(77)
    fast_sim = ClusterSim(n_groups=4)
    slow_sim = ClusterSim(n_groups=4)
    for _ in range(3):
        passes, outliers, _, _ = _random_cluster_case(rng)
        fast = fast_sim.run(passes, outlier_broadcasts=outliers)
        slow = slow_sim.run(passes, outlier_broadcasts=outliers, slow_reference=True)
        assert dataclasses.asdict(fast) == dataclasses.asdict(slow)


def test_cluster_sim_max_cycles_boundary_matches():
    from repro.olaccel.event_sim import ClusterSim, passes_from_levels

    passes = passes_from_levels(np.ones((1, 16), dtype=np.int64))
    need = ClusterSim(n_groups=1).run(passes, slow_reference=True).cycles
    for max_cycles in (need, need + 1):
        outcomes = []
        for slow in (False, True):
            try:
                ClusterSim(n_groups=1).run(passes, max_cycles=max_cycles, slow_reference=slow)
                outcomes.append("converged")
            except RuntimeError:
                outcomes.append("raised")
        assert outcomes[0] == outcomes[1], (max_cycles, outcomes)


def test_cluster_sim_obs_forces_scalar_stepper():
    # per-cycle histograms only exist on the stepper; attaching a
    # registry must produce them (the fast path cannot)
    from repro.olaccel.event_sim import ClusterSim, passes_from_levels

    rng = np.random.default_rng(9)
    levels = rng.integers(0, 4, size=(6, 16))
    passes = passes_from_levels(levels)
    obs = Registry()
    ClusterSim(n_groups=2, obs=obs).run(passes)
    assert obs.histogram("queue_depth").count > 0


def test_cluster_sim_tracer_forces_scalar_stepper():
    # per-pass completion events only exist on the stepper; an attached
    # tracer must receive them even without slow_reference=True
    from repro.obs import Tracer
    from repro.olaccel.event_sim import ClusterSim, passes_from_levels

    rng = np.random.default_rng(10)
    levels = rng.integers(0, 4, size=(7, 16))
    passes = passes_from_levels(levels)
    tracer = Tracer()
    result = ClusterSim(n_groups=2, tracer=tracer).run(passes)
    assert len(tracer.of_kind("pass_done")) == result.passes == 7


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
    slow = ClusterSim(n_groups=3).run(passes, outlier_broadcasts=4, slow_reference=True)
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
        slow = batch_pass_cycles(levels, spills, slow_reference=True)
        assert np.array_equal(fast, slow)
        assert fast.dtype == slow.dtype == np.int64
    # spill_flags defaults to no spills on both paths
    levels = rng.integers(0, 16, size=(8, 16))
    assert np.array_equal(
        batch_pass_cycles(levels), batch_pass_cycles(levels, slow_reference=True)
    )
    with pytest.raises(ValueError):
        batch_pass_cycles(levels, np.zeros((8, 4), dtype=bool))


def test_pass_op_counts_sum_is_micro_schedule_length():
    from repro.olaccel.event_sim import PassDescriptor, _micro_schedule
    from repro.olaccel.pe_group import pass_op_counts

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
            slow = F.col2im(cols, (n, c, h, w), k, k, s, p, slow_reference=True)
            assert fast.dtype == slow.dtype
            assert np.array_equal(fast, slow), (n, c, h, w, k, s, p, dtype)


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
    # reference dx through the slow col2im on the same dcols
    x_shape, cols, weight, stride, pad = cache
    dy_mat = dy.transpose(0, 2, 3, 1).reshape(-1, 4)
    dcols = dy_mat @ weight.reshape(4, -1)
    dx_ref = F.col2im(dcols, x_shape, 3, 3, stride, pad, slow_reference=True)
    assert np.array_equal(dx, dx_ref)


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
