"""Self-test of the end-to-end benchmark (not part of the tier-1 suite).

Run from the repository root::

    python -m pytest benchmarks/e2e -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from tracer import span_stats
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
SPEC = json.loads((REPO / "BENCHMARK.json").read_text())


def bench(*args: str, script: Path = HERE / "run.py", cwd: Path = REPO) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(script), *args], cwd=cwd, capture_output=True, text=True, timeout=300
    )


def last_line(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    report = tmp_path_factory.mktemp("smoke") / "report.json"
    line = last_line(bench("--smoke", "--json", str(report)))
    return line, json.loads(report.read_text())


@pytest.fixture(scope="module")
def traced_smoke(tmp_path_factory):
    trace_dir = tmp_path_factory.mktemp("trace")
    return last_line(bench("--smoke", "--trace", "1", "--trace-dir", str(trace_dir))), trace_dir


def test_smoke_run_is_correct(smoke):
    line, report = smoke
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 2 * len(WORKLOADS)
    for name, entry in report["workloads"].items():
        assert entry["error_rate"] == 0, (name, entry["errors"])
        assert entry["ops"] == 2


def test_declared_workloads_and_metrics_are_reported(smoke, traced_smoke):
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    line, _ = smoke
    for workload in WORKLOADS:
        for metric in SPEC["end_to_end"]:
            reported = line["metrics"][f"{workload}/{metric['name']}"]
            assert reported["unit"] == metric["unit"]
            assert reported["value"] > 0, (workload, metric["name"])
    traced, trace_dir = traced_smoke
    assert traced["correct"]
    for workload in WORKLOADS:
        for metric in SPEC["per_layer"]:
            assert traced["metrics"][f"{workload}/{metric['name']}"]["unit"] == metric["unit"]
    events = json.loads((trace_dir / "trace.json").read_text())["traceEvents"]
    assert {e["name"] for e in events} >= {"cli.main", "simcache.memoize", "nn.conv2d", "resilience.execute_sweep"}
    layers = json.loads((trace_dir / "layers.json").read_text())["workloads"]
    assert set(layers) == set(WORKLOADS)
    assert layers["accuracy_eval"]["metrics"]["nn.conv2d.calls"]["value"] > 0


def test_self_time_subtracts_the_union_of_children():
    # op [0, 10] > a [1, 3], b [2, 5] (overlapping a), c [8, 12] (runs past its parent)
    # and a [2, 2.5] nested under the outer a.
    spans = [
        ["op", 0.0, 10.0, -1, 0, 0],
        ["a", 1.0, 3.0, 0, 0, 0],
        ["b", 2.0, 5.0, 0, 0, 1],
        ["c", 8.0, 12.0, 0, 0, 2],
        ["a", 2.0, 2.5, 1, 0, 0],
    ]
    stats = span_stats(spans)
    assert stats["op"]["self_ms"] == pytest.approx((10 - 4 - 2) * 1e3)
    assert stats["a"]["calls"] == 2
    assert stats["a"]["ms"] == pytest.approx(2e3)  # the nested "a" is not counted twice
    assert stats["a"]["self_ms"] == pytest.approx((1.5 + 0.5) * 1e3)
    assert stats["b"]["n"] == 1 and stats["c"]["n"] == 2


def test_corrupted_expected_digest_counts_as_failure(tmp_path):
    copy = tmp_path / "e2e"
    shutil.copytree(HERE, copy, ignore=shutil.ignore_patterns("fixtures", "__pycache__"))
    expected = json.loads((HERE / "expected.json").read_text())
    expected["analytic_sweep"] = {op: "0" * 64 for op in expected["analytic_sweep"]}
    (copy / "expected.json").write_text(json.dumps(expected))
    report = tmp_path / "report.json"
    line = last_line(bench("--smoke", "--workload", "analytic_sweep", "--json", str(report), script=copy / "run.py"))
    assert not line["correct"] and line["failed"] == 2
    assert json.loads(report.read_text())["workloads"]["analytic_sweep"]["error_rate"] == 1.0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "cli_commands", "--seed", "0", "--seconds", "1", "--trace", "0",
                 script=tmp_path / "benchmarks" / "e2e" / "run.py", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
