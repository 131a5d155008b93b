"""Tests for the `repro bench` harness and the `--jobs` flag."""

from __future__ import annotations

import json
import sys

import numpy as np
import pytest

from repro.cli import main
from repro.harness.bench import BENCH_SEED_DEFAULT, default_bench_path, run_benchmarks

PAIRED_CASES = (
    "pack_weights",
    "packed_unpack",
    "bitcodec_encode",
    "bitcodec_decode",
    "pack_activations",
    "unpack_activations",
    "e2e_alexnet_functional",
    "event_sim_cluster",
    "pe_group_pass",
    "col2im_backward",
    "simcache_warm_sweep",
)
TIMING_ONLY_CASES = ("quantize_weights", "simulate_layer", "simulate_network")


@pytest.fixture(scope="module")
def smoke_result():
    return run_benchmarks(smoke=True, seed=0)


def test_bench_covers_all_cases(smoke_result):
    names = [case.name for case in smoke_result.cases]
    for name in PAIRED_CASES + TIMING_ONLY_CASES:
        assert name in names


def test_bench_timings_positive_and_paired(smoke_result):
    for case in smoke_result.cases:
        assert case.best_s > 0
        assert case.mean_s >= case.best_s
        if case.name in PAIRED_CASES:
            assert case.baseline_best_s is not None and case.baseline_best_s > 0
            assert case.speedup == pytest.approx(case.baseline_best_s / case.best_s)
        else:
            assert case.speedup is None


def _repro_line_events(fn) -> int:
    """Line events ``fn()`` runs in ``repro`` frames; numpy's C loops run none."""
    count = 0

    def local(frame, event, arg):
        nonlocal count
        if event == "line":
            count += 1
        return local

    def call(frame, event, arg):
        module = frame.f_globals.get("__name__") or ""
        return local if module == "repro" or module.startswith("repro.") else None

    previous = sys.gettrace()
    sys.settrace(call)
    try:
        fn()
    finally:
        sys.settrace(previous)  # a coverage run traces too
    return count


def _kernel_pair(name: str, size: int):
    """(vectorized kernel, its scalar twin, line events the kernel may
    spend on its output alone) for one input of the given size."""
    from repro import reference
    from repro.arch.act_packing import pack_activations
    from repro.arch.bitcodec import encode_packed
    from repro.arch.packing import pack_weights
    from repro.harness.bench import _act_levels, _weight_levels
    from repro.nn.functional import _col2im_slices, col2im, conv_out_size
    from repro.olaccel.event_sim import ClusterSim, passes_from_levels
    from repro.olaccel.functional import olaccel_conv2d
    from repro.olaccel.pe_group import batch_pass_cycles

    rng = np.random.default_rng(0)
    if name == "pack_weights":
        levels = _weight_levels(rng, size, 144, ratio=0.03)
        return (lambda: pack_weights(levels)), (lambda: reference.pack_weights_scalar(levels)), 0
    if name == "packed_unpack":
        packed = pack_weights(_weight_levels(rng, size, 144, ratio=0.03))
        chunks = reference.chunk_form(packed)
        return packed.unpack, (lambda: reference.unpack_chunks(*chunks)), 0
    if name == "bitcodec_encode":
        # The 80-bit words exceed int64: building each Python int is one
        # line event per word, which the allowance admits.
        packed = pack_weights(_weight_levels(rng, size, 50, ratio=0.005))
        words = len(packed.base_chunks) + len(packed.spill_chunks)
        return (
            lambda: encode_packed(packed),
            lambda: reference.encode_table(packed.base_chunks, packed.spill_chunks),
            words,
        )
    if name == "pack_activations":
        acts = _act_levels(rng, size, 8, 8)
        return (lambda: pack_activations(acts)), (lambda: reference.pack_activations_scalar(acts)), 0
    if name in ("pe_group_pass", "event_sim_cluster"):
        levels = rng.integers(0, 16, size=(4 * size, 16))
        levels[rng.random(levels.shape) < 0.5] = 0
        spills = rng.random(levels.shape) < 0.1
    if name == "event_sim_cluster":
        # The greedy dispatch pops and pushes a heap once per pass: five
        # line events per pass, which the allowance admits.
        passes = passes_from_levels(levels, spills)
        outliers = len(levels) // 4
        return (
            lambda: ClusterSim(n_groups=6).run(passes, outlier_broadcasts=outliers),
            lambda: reference.cluster_run_scalar(ClusterSim(n_groups=6), passes, outlier_broadcasts=outliers),
            5 * len(levels),
        )
    if name == "pe_group_pass":
        return (
            lambda: batch_pass_cycles(levels, spills),
            lambda: reference.batch_pass_cycles_scalar(levels, spills),
            0,
        )
    if name == "e2e_alexnet_functional":
        acts = _act_levels(rng, size, 6, 6).reshape(1, size, 6, 6)
        weights = _weight_levels(rng, 32, size * 9, ratio=0.03).reshape(32, size, 3, 3)
        return (
            lambda: olaccel_conv2d(acts, weights, pad=1),
            lambda: olaccel_conv2d(
                acts, weights, pad=1, packed=reference.pack_weights_scalar(weights.reshape(32, -1))
            ),
            0,
        )
    assert name == "col2im_backward"
    # The slice baseline loops over kernel offsets, so the kernel grows.
    kernel = 3 if size == SMALL else 5
    cols = rng.standard_normal((conv_out_size(6, kernel, 1, kernel // 2) ** 2, 2 * kernel * kernel))
    args = (cols, (1, 2, 6, 6), kernel, kernel, 1, kernel // 2)
    return (lambda: col2im(*args)), (lambda: _col2im_slices(*args)), 0


SMALL, LARGE = 16, 64


@pytest.mark.parametrize(
    "name",
    [
        "pack_weights",
        "packed_unpack",
        "bitcodec_encode",
        "pack_activations",
        "pe_group_pass",
        "event_sim_cluster",
        "e2e_alexnet_functional",
        "col2im_backward",
    ],
)
def test_vectorized_kernel_python_work_does_not_grow_with_input(name):
    """A vectorized kernel keeps its per-element work in numpy: the lines
    of repro code it runs do not grow with its input, while its scalar
    twin's do. Counting trace events, not seconds, makes this independent
    of machine speed. (simcache_warm_sweep times cache reads, not a
    kernel; tests/test_simcache.py counts that the warm replay computes
    nothing.)"""
    counts = []
    for size in (SMALL, LARGE):
        fast, slow, allowance = _kernel_pair(name, size)
        fast(), slow()  # first calls may import or fill caches
        counts.append((_repro_line_events(fast), _repro_line_events(slow), allowance))
    (fast_small, slow_small, allow_small), (fast_large, slow_large, allow_large) = counts
    assert slow_large > slow_small, "the larger input must add scalar work"
    assert fast_large - fast_small <= allow_large - allow_small, counts


def test_bench_seed_resolution():
    assert run_benchmarks(smoke=True, seed=123).seed == 123
    assert run_benchmarks(smoke=True).seed == BENCH_SEED_DEFAULT


def test_bench_to_dict_round_trips_through_json(smoke_result):
    doc = json.loads(json.dumps(smoke_result.to_dict()))
    assert doc["kind"] == "bench"
    assert doc["smoke"] is True
    assert len(doc["cases"]) == len(smoke_result.cases)
    assert "obs" in doc
    formatted = smoke_result.format()
    assert "pack_weights" in formatted and "speedup" in formatted


def test_bench_case_dicts_omit_absent_baselines(smoke_result):
    # paired cases serialize all three baseline keys; timing-only cases
    # omit them entirely (absent, not null) so envelope consumers can
    # distinguish "never paired" from "paired with a null measurement"
    by_name = {case["name"]: case for case in smoke_result.to_dict()["cases"]}
    baseline_keys = ("baseline_best_s", "baseline_repeats", "speedup")
    for name in PAIRED_CASES:
        for key in baseline_keys:
            assert key in by_name[name], f"{name} missing {key}"
            assert by_name[name][key] is not None
    for name in TIMING_ONLY_CASES:
        for key in baseline_keys:
            assert key not in by_name[name], f"{name} should omit {key}"
    # shared schema: every case carries the timing core, meta stays a dict
    for case in by_name.values():
        for key in ("name", "repeats", "best_s", "mean_s", "meta"):
            assert key in case
        assert isinstance(case["meta"], dict)


def test_default_bench_path_is_versioned():
    path = default_bench_path()
    assert path.startswith("BENCH_") and path.endswith(".json")


def test_bench_cli_smoke_writes_envelope(tmp_path, capsys):
    out = tmp_path / "bench.json"
    assert main(["bench", "--smoke", "--seed", "0", "--json", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["schema"] == "repro.experiment/v1"
    assert doc["experiment"] == "bench"
    assert doc["result"]["kind"] == "bench"
    assert capsys.readouterr().out.count("pack_weights") >= 1


# ---------------------------------------------------------------------------
# --jobs: cell workers only; without --run-dir cells compute serially
# ---------------------------------------------------------------------------


def test_compare_cli_accepts_jobs(capsys):
    assert main(["compare", "alexnet", "--jobs", "2"]) == 0
    assert "olaccel" in capsys.readouterr().out
