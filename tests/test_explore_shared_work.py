"""The in-process explore search computes each quantity once per thing it
depends on.

The outlier ratio changes only the workload and the accuracy axis, so
``_execute_inline`` builds one simulator per design and ``explore_run``
one area per design. The proxy accuracy of every ratio that shares one
seeded draw is scored in one pass, whose thresholds come from one
``np.quantile`` call per tensor. Here each of those is held equal to the
per-candidate or per-ratio computation it replaces, and the simcache
records of the accuracy cells are held to what one lookup per point
gives.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CellError, ConfigError
from repro.harness import explore
from repro.harness.explore import (
    Candidate,
    DesignSpace,
    ExploreRequest,
    _accuracy_cells,
    _execute_inline,
    _proxy_accuracies,
    _proxy_tensors,
    accuracy_cell,
    explore_cell,
    explore_run,
)
from repro.harness.simcache import SimCache, set_active
from repro.obs import Registry
from repro.olaccel.accelerator import OLAccelSimulator
from repro.quant.outlier import magnitude_threshold, magnitude_thresholds, quantize_activations, quantize_weights

#: Two proxy draws x two ratios, 4 of the 32 candidates over alexnet's budget.
TWO_DRAWS = DesignSpace(
    clusters=(4, 8), groups=(6,), buffers_kib=(96, 384), ratios=(0.01, 0.03),
    acc_bits=(16, 24), weight_bits=(4, 8),
)


@pytest.fixture
def rootless_cache():
    cache = SimCache()
    set_active(cache)
    yield cache
    set_active(None)


# ---------------------------------------------------------------------------
# one threshold pass per tensor
# ---------------------------------------------------------------------------


def one_ratio_threshold(x, ratio, over_nonzero=False):
    """The threshold as one ``np.quantile`` call per ratio computed it."""
    mags = np.abs(np.asarray(x, dtype=np.float64)).ravel()
    if over_nonzero:
        mags = mags[mags > 0]
    if mags.size == 0:
        return 0.0
    if ratio <= 0.0:
        return float(mags.max())
    return float(np.quantile(mags, 1.0 - ratio))


RATIOS = st.lists(
    st.sampled_from([0.0, 0.001, 0.01, 0.03, 0.05, 0.2, 0.5, 1.0]) | st.floats(0.0, 1.0),
    min_size=1, max_size=6,
)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(-1e6, 1e6) | st.just(0.0), max_size=300).map(np.array),
    RATIOS,
    st.booleans(),
)
def test_thresholds_equal_one_quantile_per_ratio(values, ratios, over_nonzero):
    want = [one_ratio_threshold(values, r, over_nonzero) for r in ratios]
    got = magnitude_thresholds(values, ratios, over_nonzero)
    assert got == want and all(type(t) is float for t in got)
    assert [magnitude_threshold(values, r, over_nonzero) for r in ratios] == want


@pytest.mark.parametrize("bits", [(4, 4), (8, 8), (4, 8)])
def test_thresholds_of_the_proxy_draws(bits):
    weights, acts = _proxy_tensors(0, *bits)
    ratios = [0.0, 0.01, 0.03, 0.05, 0.2]
    assert magnitude_thresholds(weights, ratios) == [one_ratio_threshold(weights, r) for r in ratios]
    assert magnitude_thresholds(acts, ratios, over_nonzero=True) == [
        one_ratio_threshold(acts, r, over_nonzero=True) for r in ratios
    ]


# ---------------------------------------------------------------------------
# one proxy pass per draw
# ---------------------------------------------------------------------------


def one_ratio_proxy(act_bits, weight_bits, ratio, seed):
    """The proxy accuracy as it was scored one ratio at a time."""
    weights, acts = _proxy_tensors(seed, act_bits, weight_bits)
    qw = quantize_weights(weights, ratio=ratio, normal_bits=weight_bits, outlier_bits=8)
    threshold = one_ratio_threshold(acts, ratio, over_nonzero=True)
    qa = quantize_activations(acts, threshold, normal_bits=act_bits, outlier_bits=16, ratio=ratio)

    def sqnr_db(x, xq):
        noise = float(np.sum((x - xq) ** 2))
        signal = float(np.sum(x**2))
        return 10.0 * math.log10(signal / noise) if noise > 0 else float("inf")

    w_sqnr = sqnr_db(weights, qw.dequantize())
    a_sqnr = sqnr_db(acts, qa.dequantize())
    return {
        "metric": "sqnr_db",
        "accuracy": 0.5 * (w_sqnr + a_sqnr),
        "weight_sqnr_db": w_sqnr,
        "act_sqnr_db": a_sqnr,
    }


def outcome(fn, *args):
    try:
        return fn(*args)
    except ConfigError as exc:
        return (type(exc), str(exc))


def as_outcome(entry):
    return (type(entry), str(entry)) if isinstance(entry, Exception) else entry


@pytest.mark.parametrize("bits", [(4, 4), (8, 8), (4, 8), (2, 4), (16, 4)])
@pytest.mark.parametrize("seed", [0, 7])
def test_proxy_pass_equals_each_ratio_alone(bits, seed):
    # 1.0 is a ratio the quantizer refuses; its entry is that error.
    act_bits, weight_bits = bits
    ratios = [0.03, 0.0, 1.0, 0.01, 0.05, 0.2]
    got = [as_outcome(e) for e in _proxy_accuracies(act_bits, weight_bits, ratios, seed)]
    want = [outcome(one_ratio_proxy, act_bits, weight_bits, r, seed) for r in ratios]
    assert got == want
    for entry in got:
        if isinstance(entry, dict):
            assert list(entry) == ["metric", "accuracy", "weight_sqnr_db", "act_sqnr_db"]
            assert all(type(entry[k]) is float for k in ("accuracy", "weight_sqnr_db", "act_sqnr_db"))
    assert got[2] == (ConfigError, "outlier ratio must be in [0, 1), got 1.0")


def test_refused_precisions_keep_the_error_of_their_own_quantizer():
    # Weights wider than their 8-bit outlier grid fail in the weight
    # quantizer; activations wider than 16 bits in the activation one.
    for act_bits, weight_bits in ((4, 16), (32, 4)):
        got = [as_outcome(e) for e in _proxy_accuracies(act_bits, weight_bits, [0.0, 0.03], 0)]
        assert got == [outcome(one_ratio_proxy, act_bits, weight_bits, r, 0) for r in (0.0, 0.03)]
        assert got[0][0] is ConfigError


def test_accuracy_cells_equal_one_accuracy_cell_each(rootless_cache):
    points = [(4, 4, 0.03), (4, 8, 0.01), (4, 4, 0.0), (4, 8, 0.05), (4, 4, 0.01)]
    got = _accuracy_cells("resnet18", points, "proxy", 256, 3)
    assert got == [accuracy_cell("resnet18", *p, seed=3) for p in points]
    assert got == [one_ratio_proxy(a, w, r, 3) for a, w, r in points]


def test_a_refused_ratio_raises_at_its_own_point(tmp_path):
    # The points before it are stored, as one lookup per point stores them.
    obs = Registry()
    cache = SimCache(root=tmp_path, obs=obs)
    with pytest.raises(ConfigError, match=r"outlier ratio must be in \[0, 1\), got 1.0"):
        _accuracy_cells("alexnet", [(4, 4, 0.03), (4, 4, 1.0), (4, 4, 0.05)], "proxy", 256, 0, cache)
    assert obs.counters["simcache/stores"].value == 1
    assert obs.counters["simcache/lookups"].value == 2


def test_explore_scores_each_draw_in_one_pass(monkeypatch, rootless_cache):
    passes = []
    real = explore._proxy_accuracies

    def counting(act_bits, weight_bits, ratios, seed):
        passes.append((act_bits, weight_bits, tuple(ratios)))
        return real(act_bits, weight_bits, ratios, seed)

    monkeypatch.setattr(explore, "_proxy_accuracies", counting)
    explore_run(ExploreRequest("alexnet", seed=7, space=TWO_DRAWS))
    assert passes == [(4, 4, (0.01, 0.03)), (4, 8, (0.01, 0.03))]


def simcache_counters(obs):
    return {c.name: c.value for c in obs.iter_counters("simcache/")}


def test_warm_rerun_computes_no_proxy(monkeypatch, tmp_path):
    requests = [ExploreRequest("alexnet", seed=7, space=TWO_DRAWS), ExploreRequest("resnet18")]
    try:
        cold_obs = Registry()
        set_active(SimCache(root=tmp_path, obs=cold_obs))
        cold = [explore_run(r)[1] for r in requests]

        def refuse(*args):
            raise AssertionError("a warm rerun scored a proxy draw")

        monkeypatch.setattr(explore, "_proxy_accuracies", refuse)
        warm_obs = Registry()
        set_active(SimCache(root=tmp_path, obs=warm_obs))
        warm = [explore_run(r)[1] for r in requests]
    finally:
        set_active(None)
    assert [e["result"] for e in warm] == [e["result"] for e in cold]
    # One lookup per (act_bits, weight_bits, ratio) point: 4 + 3.
    assert simcache_counters(cold_obs) == {
        "simcache/lookups": 7.0, "simcache/misses": 7.0, "simcache/stores": 7.0,
    }
    assert simcache_counters(warm_obs) == {"simcache/lookups": 7.0, "simcache/hits": 7.0}


# ---------------------------------------------------------------------------
# one simulator and one area per design
# ---------------------------------------------------------------------------


def test_default_search_builds_each_design_once(monkeypatch, rootless_cache):
    built, areas, batches = [], [], []
    init, area, batch = OLAccelSimulator.__init__, Candidate.area_mm2, OLAccelSimulator.batch

    def counting_init(self, config=None, *args, **kwargs):
        built.append(config.name)
        init(self, config, *args, **kwargs)

    def counting_area(self):
        areas.append(self.design)
        return area(self)

    def counting_batch(sims):
        batches.append(len(sims))
        return batch(sims)

    monkeypatch.setattr(OLAccelSimulator, "__init__", counting_init)
    monkeypatch.setattr(Candidate, "area_mm2", counting_area)
    monkeypatch.setattr(OLAccelSimulator, "batch", counting_batch)
    result, _ = explore_run(ExploreRequest("resnet18"))
    assert result.candidates == 216 and len(result.evaluated) == 216
    assert len(built) == 72 and len(areas) == len(set(areas)) == 72
    # The three ratio groups hold the same 72 designs: one batch.
    assert batches == [72]


def explore_cell_record(network, cand, fidelity=None):
    try:
        return {"status": "ok", "result": explore_cell(network, cand, fidelity_layers=fidelity)}
    except Exception as exc:  # noqa: BLE001 - the record is the point
        error = CellError(f"{type(exc).__name__}: {exc}", cell_id=cand.cand_id, kind="exception")
        return {"status": "failed", "error": error.to_dict()}


def test_a_failing_design_fails_each_of_its_candidates():
    population = [
        Candidate(0, 6, 96, 0.01, 16, 4, 4),
        Candidate(4, 6, 96, 0.01, 16, 4, 4),
        Candidate(4, 6, 96, 0.03, 16, 4, 4),
        Candidate(0, 6, 96, 0.03, 16, 4, 4),
    ]
    got = _execute_inline("alexnet", population, None)
    assert got == {c.cand_id: explore_cell_record("alexnet", c) for c in population}
    for cand in (population[0], population[3]):
        error = got[cand.cand_id]["error"]
        assert got[cand.cand_id]["status"] == "failed"
        assert error["cell_id"] == cand.cand_id
        assert "n_groups must be positive" in error["message"]


def test_ratios_with_different_designs_get_their_own_batches():
    # Halving's refinement keeps different designs at different ratios.
    population = [
        Candidate(4, 6, 96, 0.01, 16, 4, 4),
        Candidate(8, 6, 384, 0.01, 24, 4, 4),
        Candidate(8, 6, 384, 0.03, 24, 4, 4),
        Candidate(4, 4, 96, 0.05, 16, 4, 8),
    ]
    for fidelity in (None, 2):
        got = _execute_inline("resnet18", population, fidelity)
        assert got == {c.cand_id: explore_cell_record("resnet18", c, fidelity) for c in population}
