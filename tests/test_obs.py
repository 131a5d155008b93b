"""Tests for the repro.obs observability layer and its simulator hooks."""

import numpy as np
import pytest

from repro.baselines import EyerissSimulator, ZenaSimulator
from repro.obs import (
    NULL_REGISTRY,
    Registry,
    Tracer,
    get_registry,
    set_registry,
)
from repro.obs.registry import _NULL_COUNTER, _NULL_TIMER
from repro.olaccel import ClusterSim, OLAccelSimulator, passes_from_levels
from repro.harness.workloads import paper_workload


class TestRegistry:
    def test_counter_accumulates(self):
        reg = Registry()
        reg.counter("a").add()
        reg.counter("a").add(2.5)
        assert reg.counters["a"].value == 3.5

    def test_scope_builds_hierarchical_paths(self):
        reg = Registry()
        with reg.scope("olaccel16"):
            with reg.scope("conv1"):
                reg.counter("cycles").add(7)
        assert reg.counters["olaccel16/conv1/cycles"].value == 7

    def test_scope_pops_on_exit(self):
        reg = Registry()
        with reg.scope("outer"):
            pass
        reg.counter("top").add()
        assert "top" in reg.counters

    def test_histogram_stats(self):
        reg = Registry()
        hist = reg.histogram("h")
        for v in (1, 1, 4):
            hist.record(v)
        assert hist.count == 3
        assert hist.mean == pytest.approx(2.0)
        assert hist.max == 4
        assert hist.buckets == {1: 2, 4: 1}

    def test_timer_measures_and_counts(self):
        reg = Registry()
        with reg.timer("t"):
            pass
        with reg.timer("t"):
            pass
        timer = reg.timers["t"]
        assert timer.calls == 2
        assert timer.seconds >= 0.0

    def test_disabled_registry_hands_out_null_instruments(self):
        reg = Registry(enabled=False)
        assert reg.counter("x") is _NULL_COUNTER
        assert reg.timer("x") is _NULL_TIMER
        reg.counter("x").add(5)
        with reg.timer("x"):
            pass
        reg.histogram("x").record(1)
        assert reg.counters == {} and reg.timers == {} and reg.histograms == {}

    def test_snapshot_and_to_dict(self):
        reg = Registry()
        reg.counter("a").add(2)
        with reg.timer("t"):
            pass
        reg.histogram("h").record(3)
        flat = reg.snapshot()
        assert flat["a"] == 2
        assert "t.seconds" in flat
        doc = reg.to_dict()
        assert doc["counters"]["a"] == 2
        assert doc["histograms"]["h"]["buckets"] == {"3": 1}
        assert doc["timers"]["t"]["calls"] == 1

    def test_reset(self):
        reg = Registry()
        reg.counter("a").add()
        reg.reset()
        assert reg.counters == {}

    def test_count_matches_scoped_counter_block(self):
        amounts = {"cycles": 7.5, "run_cycles": 3.0, "passes": 2, "energy_pj": -0.0}
        block = Registry()
        batched = Registry()
        for reg in (block, batched):
            reg.counter("before").add()
        for _ in range(2):  # a second round adds to the existing counters
            with block.scope("olaccel16"):
                with block.scope("conv1"):
                    for name, amount in amounts.items():
                        block.counter(name).add(amount)
            with batched.scope("olaccel16"):
                batched.count("conv1", amounts)
        assert batched.to_dict() == block.to_dict()
        assert list(batched.counters) == list(block.counters)
        assert batched._stack == []

    def test_count_on_disabled_registry_records_nothing(self):
        NULL_REGISTRY.count("conv1", {"cycles": 1.0, "passes": 2.0})
        assert NULL_REGISTRY.counters == {}
        assert NULL_REGISTRY._stack == []

    def test_global_registry_swap_and_restore(self):
        assert get_registry() is NULL_REGISTRY
        mine = Registry()
        previous = set_registry(mine)
        try:
            assert get_registry() is mine
        finally:
            set_registry(previous)
        assert get_registry() is NULL_REGISTRY


class TestTracer:
    def test_emit_and_filter(self):
        tracer = Tracer()
        tracer.emit(3, "pass_done", group=1)
        tracer.emit(4, "other")
        assert [e.cycle for e in tracer.of_kind("pass_done")] == [3]
        assert tracer.to_dicts()[0] == {"cycle": 3, "kind": "pass_done", "group": 1}

    def test_bounded_ring_drops_oldest(self):
        tracer = Tracer(capacity=2)
        for cycle in range(4):
            tracer.emit(cycle, "e")
        assert tracer.dropped == 2
        assert [e.cycle for e in tracer.events] == [2, 3]

    def test_full_ring_keeps_newest_events_in_order(self):
        capacity = 5
        tracer = Tracer(capacity=capacity)
        for cycle in range(3 * capacity):
            tracer.emit(cycle, "e", n=cycle)
        assert tracer.dropped == 2 * capacity
        assert [e.cycle for e in tracer.events] == list(range(2 * capacity, 3 * capacity))
        assert tracer.to_dicts()[0] == {"cycle": 2 * capacity, "kind": "e", "n": 2 * capacity}
        tracer.reset()
        assert tracer.events == [] and tracer.dropped == 0

    def test_disabled_records_nothing(self):
        tracer = Tracer(enabled=False)
        tracer.emit(1, "e")
        assert tracer.events == []


def random_passes(rng, n=300, density=0.5, spill_p=0.08):
    levels = (rng.random((n, 16)) < density) * rng.integers(1, 16, size=(n, 16))
    flags = rng.random((n, 16)) < spill_p
    return passes_from_levels(levels, flags)


class TestEventSimHooks:
    def test_trace_counters_match_cluster_result(self):
        """The obs counters may never drift from the returned result."""
        rng = np.random.default_rng(0)
        reg = Registry()
        sim = ClusterSim(n_groups=3, obs=reg)
        result = sim.run(random_passes(rng), outlier_broadcasts=40)
        counters = {path: c.value for path, c in reg.counters.items()}
        assert counters["run_cycles"] == result.run_cycles
        assert counters["skip_cycles"] == result.skip_cycles
        assert counters["idle_cycles"] == result.idle_cycles
        assert counters["cycles"] == result.cycles
        assert counters["passes"] == result.passes
        assert counters["outlier_broadcasts"] == result.outlier_cycles
        assert counters["accumulation_stalls"] == result.accumulation_stalls
        assert counters["ops/bcast"] == result.bcast_cycles
        assert counters["ops/stall"] == result.stall_cycles
        assert counters["ops/skip"] == result.skip_cycles

    def test_micro_op_split_is_consistent(self):
        rng = np.random.default_rng(1)
        result = ClusterSim(n_groups=2).run(random_passes(rng))
        assert result.bcast_cycles + result.stall_cycles == result.run_cycles
        assert result.max_queue_depth == 300

    def test_pass_done_trace_events(self):
        rng = np.random.default_rng(2)
        tracer = Tracer()
        result = ClusterSim(n_groups=2, tracer=tracer).run(random_passes(rng, n=50))
        done = tracer.of_kind("pass_done")
        assert len(done) == result.passes == 50
        cycles = [e.cycle for e in done]
        assert cycles == sorted(cycles)
        assert cycles[-1] <= result.cycles

    def test_queue_histogram_records_every_cycle(self):
        rng = np.random.default_rng(3)
        reg = Registry()
        result = ClusterSim(n_groups=2, obs=reg).run(random_passes(rng, n=40))
        assert reg.histograms["queue_depth"].count == result.cycles
        assert reg.histograms["tribuffer_active"].count > 0

    def test_untraced_run_matches_traced_run(self):
        """Instrumentation must not change simulated behaviour."""
        plain = ClusterSim(n_groups=3).run(random_passes(np.random.default_rng(4)))
        traced = ClusterSim(n_groups=3, obs=Registry(), tracer=Tracer()).run(
            random_passes(np.random.default_rng(4))
        )
        assert plain == traced


class TestSimulatorHooks:
    def test_olaccel_counters_match_run_stats(self):
        workload = paper_workload("alexnet")
        reg = Registry()
        sim = OLAccelSimulator(obs=reg)
        run = sim.simulate_network(workload)
        prefix = sim.config.name
        for stat in run.layers:
            base = f"{prefix}/{stat.layer_name}"
            assert reg.counters[f"{base}/cycles"].value == pytest.approx(stat.cycles)
            assert reg.counters[f"{base}/run_cycles"].value == pytest.approx(stat.run_cycles)
            assert reg.counters[f"{base}/skip_cycles"].value == pytest.approx(stat.skip_cycles)
            assert reg.counters[f"{base}/idle_cycles"].value == pytest.approx(stat.idle_cycles)
        total_run = sum(c.value for c in reg.iter_counters(prefix) if c.name.endswith("/run_cycles"))
        assert total_run == pytest.approx(run.total_run_cycles)
        assert reg.timers[f"simulate/{workload.name}"].calls == 1

    @pytest.mark.parametrize("sim_cls", [EyerissSimulator, ZenaSimulator])
    def test_baseline_counters_match_run_stats(self, sim_cls):
        workload = paper_workload("alexnet")
        reg = Registry()
        sim = sim_cls(obs=reg)
        run = sim.simulate_network(workload)
        for stat in run.layers:
            path = f"{sim.config.name}/{stat.layer_name}/cycles"
            assert reg.counters[path].value == pytest.approx(stat.cycles)
        assert reg.timers[f"simulate/{workload.name}"].calls == 1

    def test_default_is_unobserved(self):
        sim = OLAccelSimulator()
        assert sim.obs is NULL_REGISTRY
        sim.simulate_network(paper_workload("alexnet"))
        assert NULL_REGISTRY.counters == {}
