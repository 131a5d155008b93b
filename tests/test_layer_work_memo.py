"""The OLAccel layer-work memo is keyed on everything its terms read.

:func:`repro.olaccel.accelerator.layer_work` memoizes the workload-only
terms of a layer (passes, broadcasts, outlier-path load) on the layer
and config fields they read, so designs that differ only in groups,
buffers or accumulator width share them. If the key missed a field, two
inputs that differ only in that field would share one entry. Here every
layer and config field varies, one at a time, against a base point: a
simulation that may hit the memo must equal, field by field, one made
after clearing it, with a registry attached and without one. Configs
with no clusters are drawn too: the terms check the outlier-group count
only by raising, so a key without it would raise the wrong error.
"""

from __future__ import annotations

from dataclasses import fields, replace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.workload import LayerWorkload
from repro.obs import Registry
from repro.olaccel import accelerator
from repro.olaccel.accelerator import OLAccelSimulator
from repro.olaccel.config import OLAccelConfig

UNIT = st.floats(0.0, 1.0)
LAYERS = st.builds(
    LayerWorkload,
    name=st.sampled_from(["conv1", "fc8"]),
    kind=st.sampled_from(["conv", "fc"]),
    macs=st.integers(1, 10**10),
    weight_count=st.integers(1, 10**8),
    input_count=st.integers(1, 10**7),
    output_count=st.integers(1, 10**7),
    out_channels=st.integers(1, 4096),
    kernel=st.integers(1, 11),
    stride=st.integers(1, 4),
    act_density=UNIT,
    weight_density=UNIT,
    act_outlier_ratio=UNIT,
    weight_outlier_ratio=UNIT,
    is_first=st.booleans(),
    first_weight_bits=st.sampled_from([4, 8]),
)
BITS = st.sampled_from([2, 4, 8, 16])
CONFIGS = st.builds(
    OLAccelConfig,
    name=st.sampled_from(["olaccel16", "olx"]),
    n_clusters=st.integers(0, 12),
    groups_per_cluster=st.integers(1, 10),
    lanes=st.sampled_from([4, 8, 16, 32]),
    act_bits=BITS,
    weight_bits=BITS,
    weight_outlier_bits=BITS,
    act_outlier_bits=BITS,
    acc_bits=st.sampled_from([16, 24, 32]),
    raw_input_bits=BITS,
    outlier_ratio=UNIT,
    swarm_buffer_bytes=st.integers(1, 1 << 22),
    cluster_weight_chunks=st.integers(1, 400),
    cluster_act_chunks=st.integers(1, 128),
    group_act_chunks=st.integers(1, 4),
    dispatch_efficiency=st.floats(0.05, 1.0),
    clock_mhz=st.floats(50.0, 1000.0),
    has_outlier_mac=st.booleans(),
    zero_skip=st.booleans(),
    pipelined_accumulation=st.booleans(),
)


def variants(base, other):
    """``base`` with one field at a time taken from ``other`` (a flag flips)."""
    out = []
    for f in fields(base):
        value = getattr(other, f.name)
        if isinstance(value, bool):
            value = not getattr(base, f.name)
        if value != getattr(base, f.name):
            out.append(replace(base, **{f.name: value}))
    return out


def simulate(layer, config, with_registry):
    obs = Registry() if with_registry else None
    try:
        stats = OLAccelSimulator(config, obs=obs).simulate_layer(layer)
    except ValueError as exc:
        return "raises", str(exc)
    return repr(stats), repr(obs.to_dict()) if obs is not None else None


@settings(max_examples=150, deadline=None)
@given(LAYERS, LAYERS, CONFIGS, CONFIGS, st.booleans())
def test_memoized_layer_equals_a_fresh_one(layer, other_layer, config, other_config, with_registry):
    pairs = [(layer, config)]
    pairs += [(v, config) for v in variants(layer, other_layer)]
    pairs += [(layer, v) for v in variants(config, other_config)]
    accelerator._WORK_MEMO.clear()
    memoized = [simulate(l, c, with_registry) for l, c in pairs]
    for (l, c), got in zip(pairs, memoized):
        accelerator._WORK_MEMO.clear()
        assert got == simulate(l, c, with_registry), (l, c)


def test_memo_is_bounded(monkeypatch):
    assert 0 < accelerator._WORK_MEMO_MAXSIZE < float("inf")
    monkeypatch.setattr(accelerator, "_WORK_MEMO_MAXSIZE", 3)
    accelerator._WORK_MEMO.clear()
    sim = OLAccelSimulator()
    for macs in range(1, 11):
        sim.simulate_layer(LayerWorkload("l", "conv", macs * 4096, 16, 64, 64, 16))
        assert len(accelerator._WORK_MEMO) <= 3

