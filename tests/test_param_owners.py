"""Each parameter rule has one owner, and every front end reaches it
before anything runs: the owner raises a ``ConfigError`` whose
``field`` names the refused parameter (docs/SERVE.md, "Who refuses
what")."""

from __future__ import annotations

import argparse

import pytest

from repro.cli import _accumulator_width, _fault_rate
from repro.constants import FAULT_RATE_RANGE, MIN_ACCUMULATOR_BITS
from repro.errors import ConfigError
from repro.faults import AccumulatorModel, FaultPlan
from repro.harness import faults as harness_faults
from repro.harness.explore import DesignSpace, ExploreRequest, explore_run
from repro.harness.resilience import breakdown_plan, faults_plan


@pytest.mark.parametrize(
    "kwargs,field",
    [
        ({"network": "lenet5"}, "network"),
        ({"strategy": "dowse"}, "strategy"),
        ({"accuracy": "oracle"}, "accuracy"),
        ({"eta": 1}, "eta"),
        ({"samples": 0}, "samples"),
        ({"screen_layers": 0}, "screen_layers"),
        ({"max_candidates": 0}, "max_candidates"),
        ({"accuracy_samples": 0}, "accuracy_samples"),
        ({"budget_mm2": -1.0}, "budget"),
        ({"space": DesignSpace(ratios=(0.03, 1.0))}, "space"),
    ],
)
def test_explore_request_refuses_at_construction(kwargs, field):
    with pytest.raises(ConfigError) as err:
        ExploreRequest(**{"network": "alexnet", **kwargs})
    assert err.value.field == field


def test_ratio_one_needs_no_quantizer_without_an_accuracy_axis():
    request = ExploreRequest("alexnet", accuracy="none", space=DesignSpace(ratios=(1.0,)))
    assert request.space.ratios == (1.0,)


def test_explore_run_sees_only_valid_requests():
    with pytest.raises(ConfigError, match="unknown accuracy mode 'oracle'"):
        explore_run(ExploreRequest("alexnet", accuracy="oracle"))


SWEEP_REFUSALS = [
    ({"network": "lenet5"}, "network"),
    ({"rates": (0.0, 2.5)}, "rates"),
    ({"rates": ()}, "rates"),
    ({"widths": (24, 1)}, "widths"),
    ({"policy": "panic"}, "policy"),
    ({"model": "gamma"}, "model"),
    ({"ratio": 5.0}, "ratio"),
]


@pytest.mark.parametrize("kwargs,field", SWEEP_REFUSALS)
def test_fault_sweep_refuses_before_any_cell(monkeypatch, kwargs, field):
    def no_cell(*args, **kw):
        raise AssertionError("a cell ran")

    monkeypatch.setattr(harness_faults, "fault_rate_cell", no_cell)
    monkeypatch.setattr(harness_faults, "fault_width_cell", no_cell)
    monkeypatch.setattr(harness_faults, "fault_case", no_cell)
    with pytest.raises(ConfigError) as err:
        harness_faults.fault_sweep(**{"network": "alexnet", **kwargs})
    assert err.value.field == field


@pytest.mark.parametrize("kwargs,field", SWEEP_REFUSALS)
def test_faults_plan_refuses_like_fault_sweep(kwargs, field):
    with pytest.raises(ConfigError) as err:
        faults_plan(**{"network": "alexnet", **kwargs})
    assert err.value.field == field


@pytest.mark.parametrize("ratio", [-0.01, 1.5, float("nan")])
def test_breakdown_plan_refuses_a_ratio_no_workload_holds(ratio):
    with pytest.raises(ConfigError) as err:
        breakdown_plan("alexnet", ratio=ratio)
    assert err.value.field == "ratio"


def test_breakdown_plan_takes_the_ratio_range_ends():
    for ratio in (0.0, 1.0):
        assert breakdown_plan("alexnet", ratio=ratio).params["ratio"] == ratio


def test_parse_time_types_hold_the_owners_bounds():
    low, high = FAULT_RATE_RANGE
    for rate in (low, high):
        assert _fault_rate(repr(rate)) == FaultPlan(rate=rate).rate
    for rate in (low - 1e-9, high + 1e-9):
        with pytest.raises(ConfigError):
            FaultPlan(rate=rate)
        with pytest.raises(argparse.ArgumentTypeError):
            _fault_rate(repr(rate))
    assert _accumulator_width(str(MIN_ACCUMULATOR_BITS)) == MIN_ACCUMULATOR_BITS
    AccumulatorModel(width_bits=MIN_ACCUMULATOR_BITS)
    with pytest.raises(ConfigError):
        AccumulatorModel(width_bits=MIN_ACCUMULATOR_BITS - 1)
    with pytest.raises(argparse.ArgumentTypeError):
        _accumulator_width(str(MIN_ACCUMULATOR_BITS - 1))
