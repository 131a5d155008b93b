"""Tests for the cycle-exact cluster simulator (repro.olaccel.event_sim),
including cross-validation against the analytic/exact cycle models."""

import numpy as np
import pytest

from repro.arch import ActivationChunk, WeightChunk
from repro.olaccel import chunk_pass_cycles, expected_pass_costs, schedule_passes
from repro.olaccel.event_sim import ClusterSim, PassDescriptor, passes_from_levels
from repro.reference import PEGroupSim


def make_pass(values, spill_lanes=()):
    spill = [i in spill_lanes for i in range(16)]
    return PassDescriptor(tuple(values), tuple(spill))


class TestPEGroupSim:
    def run_to_completion(self, work):
        group = PEGroupSim()
        group.start(work)
        cycles = 0
        while not group.idle:
            group.step()
            cycles += 1
        return cycles, group

    def test_dense_pass_is_16_cycles(self):
        cycles, group = self.run_to_completion(make_pass([1] * 16))
        assert cycles == 16
        assert group.run_cycles == 16
        assert group.skip_cycles == 0

    def test_all_zero_pass_is_4_skip_cycles(self):
        cycles, group = self.run_to_completion(make_pass([0] * 16))
        assert cycles == 4
        assert group.skip_cycles == 4

    def test_spill_lane_adds_stall(self):
        base, _ = self.run_to_completion(make_pass([1] + [0] * 15))
        spilled, _ = self.run_to_completion(make_pass([1] + [0] * 15, spill_lanes=(0,)))
        assert spilled == base + 1

    def test_spill_on_zero_lane_is_free(self):
        base, _ = self.run_to_completion(make_pass([1] + [0] * 15))
        spilled, _ = self.run_to_completion(make_pass([1] + [0] * 15, spill_lanes=(5,)))
        assert spilled == base

    def test_matches_exact_chunk_model(self, rng):
        """Event simulation agrees with chunk_pass_cycles on random data."""
        for _ in range(50):
            values = rng.integers(0, 3, size=16) * rng.integers(0, 2, size=16)
            spill = rng.random(16) < 0.2
            cycles, _ = self.run_to_completion(
                PassDescriptor(tuple(int(v) for v in values), tuple(bool(s) for s in spill))
            )
            chunks = [
                WeightChunk(lanes=(0,) * 16, ol_ptr=0) if spill[i] else WeightChunk(lanes=(0,) * 16)
                for i in range(16)
            ]
            expected = chunk_pass_cycles(ActivationChunk(tuple(int(v) for v in values)), chunks)
            assert cycles == expected

    def test_start_while_busy_raises(self):
        group = PEGroupSim()
        group.start(make_pass([1] * 16))
        with pytest.raises(RuntimeError):
            group.start(make_pass([1] * 16))


class TestClusterSim:
    def test_single_group_serializes(self, rng):
        levels = (rng.random((20, 16)) < 0.4).astype(np.int64)
        passes = passes_from_levels(levels)
        result = ClusterSim(n_groups=1).run(passes)
        serial = sum(
            max(int((levels[i] != 0).sum()), 0) + int(sum((levels[i, q * 4 : q * 4 + 4] == 0).all() for q in range(4)))
            for i in range(20)
        )
        assert result.cycles >= serial  # accumulation can only add
        assert result.passes == 20

    def test_parallel_groups_speed_up(self, rng):
        levels = (rng.random((60, 16)) < 0.5).astype(np.int64)
        passes = passes_from_levels(levels)
        one = ClusterSim(n_groups=1).run(passes).cycles
        six = ClusterSim(n_groups=6).run(passes).cycles
        assert six < one
        assert six >= one / 6 - 1

    def test_matches_greedy_schedule_bound(self, rng):
        """Cluster makespan is the greedy schedule of per-pass costs
        (front ends never wait on accumulation at bandwidth 2)."""
        levels = (rng.integers(0, 2, size=(40, 16))).astype(np.int64)
        passes = passes_from_levels(levels)
        result = ClusterSim(n_groups=4).run(passes)
        costs = []
        for row in levels:
            nz = int((row != 0).sum())
            quads = int(sum((row[q * 4 : q * 4 + 4] == 0).all() for q in range(4)))
            costs.append(nz + quads)
        ideal = schedule_passes(costs, 4)
        assert result.cycles == pytest.approx(ideal, abs=2)

    def test_mean_cost_matches_analytic_expectation(self, rng):
        density, spill_p = 0.45, 0.1
        n = 4000
        levels = (rng.random((n, 16)) < density).astype(np.int64)
        spill = rng.random((n, 16)) < spill_p
        result = ClusterSim(n_groups=6).run(passes_from_levels(levels, spill))
        analytic = expected_pass_costs(density, spill_p).total
        measured = (result.run_cycles + result.skip_cycles) / n
        assert measured == pytest.approx(analytic, rel=0.03)

    def test_outlier_broadcasts_counted(self):
        passes = passes_from_levels(np.ones((4, 16), dtype=np.int64))
        result = ClusterSim(n_groups=2).run(passes, outlier_broadcasts=10)
        assert result.outlier_cycles == 10

    def test_outlier_path_extends_tail(self):
        """A huge outlier load outlasts the dense work and sets the makespan."""
        passes = passes_from_levels(np.ones((2, 16), dtype=np.int64))
        small = ClusterSim(n_groups=2).run(passes, outlier_broadcasts=0).cycles
        big = ClusterSim(n_groups=2).run(passes, outlier_broadcasts=500).cycles
        assert big >= 500 > small

    def test_tri_buffer_conflict_free(self, rng):
        levels = (rng.random((30, 16)) < 0.5).astype(np.int64)
        result = ClusterSim(n_groups=6).run(passes_from_levels(levels))
        assert result.tri_buffer_conflict_free

    def test_accumulation_stalls_with_many_groups(self):
        """12 groups finishing dense passes together exceed bandwidth 2."""
        passes = passes_from_levels(np.ones((48, 16), dtype=np.int64))
        result = ClusterSim(n_groups=12, accumulation_bandwidth=2).run(passes)
        assert result.accumulation_stalls > 0

    def test_idle_accounting(self, rng):
        levels = (rng.random((10, 16)) < 0.5).astype(np.int64)
        result = ClusterSim(n_groups=6).run(passes_from_levels(levels))
        busy = result.run_cycles + result.skip_cycles
        assert result.idle_cycles == result.cycles * 6 - busy

    def test_invalid_inputs(self, rng):
        with pytest.raises(ValueError):
            ClusterSim(n_groups=0)
        with pytest.raises(ValueError):
            passes_from_levels(np.zeros((4, 8)))
        with pytest.raises(ValueError):
            passes_from_levels(np.zeros((4, 16)), np.zeros((3, 16), dtype=bool))
        with pytest.raises(ValueError):
            PassDescriptor((0,) * 8, (False,) * 8)
