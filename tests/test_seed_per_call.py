"""Each seed travels as an argument and lives for one call.

``--seed`` reaches its verb's driver as ``seed=``, a run dir's cells take
theirs from the manifest, and neither leaves anything behind: an unseeded
driver called afterwards in the same process still uses its own default.
"""

from __future__ import annotations

import pytest

from repro.cli import EXPERIMENTS, main
from repro.harness.experiments import fig17_multi_outlier, fig19_chunk_cycles
from repro.harness.explore import ExploreRequest, explore_run
from repro.harness.faults import fault_sweep
from repro.harness.resilience import canonical_envelope_bytes, execute_sweep, faults_plan, work_run
from repro.harness.serialize import experiment_envelope, load_json, to_jsonable

SWEEP = {"rates": (0.0, 1e-3), "widths": (24,)}
SWEEP_ARGV = ["faults", "alexnet", "--rates", "0", "0.001", "--widths", "24"]


def _unseeded():
    """The unseeded driver calls whose rows a leaked seed would change."""
    return (
        to_jsonable(fault_sweep("alexnet", **SWEEP)),
        to_jsonable(fig17_multi_outlier(monte_carlo_trials=2000)),
    )


def test_cli_seed_does_not_outlive_main(capsys):
    before = _unseeded()
    assert main(["run", "fig17", "--seed", "7"]) == 0
    assert _unseeded() == before


def test_manifest_seed_does_not_outlive_work_run(tmp_path):
    before = _unseeded()
    run_dir = tmp_path / "run"
    execute_sweep(faults_plan("alexnet", seed=3, **SWEEP), run_dir)
    _, envelope, _, _ = work_run(run_dir)
    assert envelope["result"]["seed"] == 3
    assert _unseeded() == before


def _fig(name, driver):
    return lambda seed: experiment_envelope(name, driver(seed=seed), EXPERIMENTS[name][1])


def _faults(seed):
    result = fault_sweep("alexnet", seed=seed, **SWEEP)
    return experiment_envelope("faults", result, "fault-rate + accumulator-width sweep for alexnet")


def _explore(seed):
    return explore_run(ExploreRequest("alexnet", accuracy="none", seed=seed))[1]


@pytest.mark.parametrize(
    "argv, build",
    [
        (["run", "fig17"], _fig("fig17", fig17_multi_outlier)),
        (["run", "fig19"], _fig("fig19", fig19_chunk_cycles)),
        (SWEEP_ARGV, _faults),
        (["explore", "alexnet", "--accuracy", "none"], _explore),
    ],
    ids=["fig17", "fig19", "faults", "explore"],
)
def test_seed_flag_reaches_the_driver(tmp_path, capsys, argv, build):
    out = tmp_path / "out.json"
    assert main([*argv, "--seed", "7", "--json", str(out)]) == 0
    cli = canonical_envelope_bytes(load_json(out))
    assert cli == canonical_envelope_bytes(build(7))
    assert cli != canonical_envelope_bytes(build(None))


def test_faults_seed_means_the_same_with_and_without_a_run_dir(tmp_path, capsys):
    plain, checkpointed = tmp_path / "plain.json", tmp_path / "rd.json"
    assert main([*SWEEP_ARGV, "--seed", "3", "--json", str(plain)]) == 0
    run_dir = str(tmp_path / "run")
    argv = [*SWEEP_ARGV, "--seed", "3", "--run-dir", run_dir, "--json", str(checkpointed)]
    assert main(argv) == 0
    a, b = load_json(plain)["result"], load_json(checkpointed)["result"]
    assert a["seed"] == b["seed"] == 3
    assert a["rate_rows"] == b["rate_rows"]
    assert a["width_rows"] == b["width_rows"]
