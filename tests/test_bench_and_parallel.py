"""Tests for the `repro bench` harness and the `--jobs` flag."""

from __future__ import annotations

import json

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


def test_bench_vectorization_wins(smoke_result):
    # even at smoke sizes the chunk-grid paths should win clearly; the
    # committed full-size BENCH baseline shows far larger margins
    assert smoke_result.speedup("pack_weights") > 1.5
    assert smoke_result.speedup("packed_unpack") > 1.5
    assert smoke_result.speedup("bitcodec_encode") > 1.5
    assert smoke_result.speedup("e2e_alexnet_functional") > 1.1
    assert smoke_result.speedup("pack_activations") > 10.0
    assert smoke_result.speedup("event_sim_cluster") > 1.5
    assert smoke_result.speedup("pe_group_pass") > 1.5
    assert smoke_result.speedup("col2im_backward") > 1.1
    # warm cache replay vs cold fault-cell compute is the largest margin
    assert smoke_result.speedup("simcache_warm_sweep") > 3.0


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
