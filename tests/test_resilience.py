"""Tests for the resilient execution layer (docs/RESILIENCE.md).

Covers the atomic/checksummed artifact writers, the checkpointed run
directory, the supervised worker pool (timeouts, retries, crash
isolation, clean teardown), graceful degradation (FAILED cells), and
the headline guarantee: a sweep SIGKILLed at a cell boundary resumes to
a byte-identical envelope.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.cli import EXPERIMENTS, main
from repro.errors import ArtifactIntegrityError, CellError
from repro.harness.resilience import (
    KILL_AFTER_ENV,
    PLAN_ASSEMBLERS,
    CellSpec,
    RetryPolicy,
    RunDir,
    SweepPlan,
    breakdown_plan,
    canonical_envelope_bytes,
    execute_sweep,
    faults_plan,
    register_cell_runner,
    work_run,
    _run_breakdown_cell,
)
from repro.harness.report import FAILED, format_failures
from repro.harness.serialize import (
    INTEGRITY_KEY,
    atomic_write_text,
    load_csv,
    load_json,
    save_csv,
    save_json,
)
from repro.obs import Registry

REPO = Path(__file__).resolve().parents[1]
CLI_ENV = {**os.environ, "PYTHONPATH": str(REPO / "src")}
CLI_ENV.pop(KILL_AFTER_ENV, None)


def _repro(*argv, env=None, timeout=120):
    return subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        env=env or CLI_ENV,
        capture_output=True,
        text=True,
        timeout=timeout,
    )


# ---------------------------------------------------------------------------
# Synthetic cells for the supervised-pool tests. Registered at import
# time so fork()ed workers inherit them.
# ---------------------------------------------------------------------------


def _cell_ok(params):
    return {"value": params["x"] * 2}


def _cell_boom(params):
    raise ValueError("synthetic failure")


def _cell_sleep(params):
    time.sleep(params.get("s", 60))
    return {"slept": True}


def _cell_exit(params):
    os._exit(3)  # die without reporting: the "crash" failure mode


def _cell_flaky(params):
    """Fails on the first attempt (marker file absent), succeeds after."""
    marker = Path(params["marker"])
    if not marker.exists():
        marker.write_text("attempt 1 failed here")
        raise RuntimeError("first attempt fails by design")
    return _run_breakdown_cell(params)


register_cell_runner("t_ok", _cell_ok)
register_cell_runner("t_boom", _cell_boom)
register_cell_runner("t_sleep", _cell_sleep)
register_cell_runner("t_exit", _cell_exit)
register_cell_runner("t_flaky", _cell_flaky)


def _rows_assembler(plan, records):
    return {
        "rows": {
            cid: rec["result"]
            for cid, rec in records.items()
            if rec.get("status") == "ok"
        },
        "failed": sorted(
            cid for cid, rec in records.items() if rec.get("status") != "ok"
        ),
    }


PLAN_ASSEMBLERS["testplan"] = _rows_assembler


def _test_plan(cells, seed=0):
    return SweepPlan(
        plan="testplan",
        experiment="testplan",
        description="synthetic cells",
        seed=seed,
        params={},
        cells=cells,
    )


def _fast_retry(**kw):
    defaults = dict(max_attempts=2, backoff_base_s=0.01, backoff_factor=1.0)
    defaults.update(kw)
    return RetryPolicy(**defaults)


class TestAtomicArtifacts:
    def test_atomic_write_leaves_no_temp(self, tmp_path):
        path = atomic_write_text("hello", tmp_path / "a.txt")
        assert path.read_text() == "hello"
        assert [p.name for p in tmp_path.iterdir()] == ["a.txt"]

    def test_save_json_embeds_digest_and_roundtrips(self, tmp_path):
        payload = {"a": 1, "b": [1.5, "x"]}
        path = save_json(payload, tmp_path / "doc.json")
        import json

        raw = json.loads(path.read_text())
        assert raw[INTEGRITY_KEY]["algo"] == "sha256"
        # load verifies and strips: caller sees exactly what was saved
        assert load_json(path) == payload

    def test_truncated_json_is_structured_error(self, tmp_path):
        path = save_json({"a": 1}, tmp_path / "doc.json")
        text = path.read_text()
        path.write_text(text[: len(text) // 2])
        with pytest.raises(ArtifactIntegrityError) as err:
            load_json(path)
        assert err.value.reason == "truncated"
        assert str(path) in str(err.value)

    def test_tampered_json_fails_digest(self, tmp_path):
        path = save_json({"a": 1}, tmp_path / "doc.json")
        path.write_text(path.read_text().replace('"a": 1', '"a": 2'))
        with pytest.raises(ArtifactIntegrityError) as err:
            load_json(path)
        assert err.value.reason == "digest_mismatch"
        # --no-verify escape hatch still parses (and still strips the key)
        assert load_json(path, verify=False) == {"a": 2}

    def test_missing_file_is_unreadable(self, tmp_path):
        with pytest.raises(ArtifactIntegrityError) as err:
            load_json(tmp_path / "nope.json")
        assert err.value.reason == "unreadable"

    def test_csv_sidecar_verifies(self, tmp_path):
        rows = [{"a": "1", "b": "2"}, {"a": "3", "b": "4"}]
        path = save_csv(rows, tmp_path / "t.csv")
        assert path.with_suffix(".csv.sha256").exists()
        assert load_csv(path) == rows
        path.write_text(path.read_text() + "9,9\n")
        with pytest.raises(ArtifactIntegrityError) as err:
            load_csv(path)
        assert err.value.reason == "digest_mismatch"
        assert load_csv(path, verify=False)[-1] == {"a": "9", "b": "9"}


class TestSupervisedPool:
    def test_retry_crash_isolation_and_reconciliation(self, tmp_path):
        plan = _test_plan(
            [
                CellSpec("ok", "t_ok", {"x": 21}),
                CellSpec("boom", "t_boom", {}),
                CellSpec("crash", "t_exit", {}),
            ]
        )
        obs = Registry()
        result, envelope, _, records = execute_sweep(
            plan, tmp_path / "run", jobs=2, retry=_fast_retry(), obs=obs
        )
        assert result["rows"] == {"ok": {"value": 42}}
        assert result["failed"] == ["boom", "crash"]
        assert records["boom"]["error"]["kind"] == "exception"
        assert "ValueError" in records["boom"]["error"]["message"]
        assert records["crash"]["error"]["kind"] == "crash"
        snap = obs.snapshot()
        assert snap["resilience/cells_total"] == 3
        assert snap["resilience/cells_attempted"] == 3
        # the reconciliation invariant: attempted == succeeded + failed
        assert (
            snap["resilience/cells_attempted"]
            == snap["resilience/cells_succeeded"] + snap["resilience/cells_failed"]
        )
        # 1 attempt for ok + 2 each for the two failures
        assert snap["resilience/attempts"] == 5
        assert snap["resilience/retries"] == 2
        assert envelope["resilience"]["cells_failed"] == 2
        assert [f["cell_id"] for f in envelope["resilience"]["failures"]] == ["boom", "crash"]

    def test_timeout_kills_worker_and_no_orphans(self, tmp_path):
        plan = _test_plan([CellSpec("slow", "t_sleep", {"s": 60})])
        obs = Registry()
        start = time.monotonic()
        _, envelope, _, records = execute_sweep(
            plan,
            tmp_path / "run",
            retry=_fast_retry(max_attempts=1, timeout_s=0.3),
            obs=obs,
        )
        assert time.monotonic() - start < 30  # nowhere near the 60 s sleep
        assert records["slow"]["error"]["kind"] == "timeout"
        assert obs.snapshot()["resilience/timeouts"] == 1
        assert envelope["resilience"]["cells_failed"] == 1
        # the timed-out worker was terminated AND joined — nothing alive
        assert not any(p.is_alive() for p in multiprocessing.active_children())

    def test_deadline_judged_from_measured_cell_duration(self, tmp_path):
        # Each late cell sleeps past its deadline, then exits and reports
        # normally. The verdict comes from the cell's own measured
        # duration, so it cannot depend on whether the supervisor polled
        # before the worker exited.
        late = [CellSpec(f"late{i}", "t_sleep", {"s": 0.05}) for i in range(4)]
        obs = Registry()
        _, envelope, _, records = execute_sweep(
            _test_plan(late), tmp_path / "late", jobs=2,
            retry=_fast_retry(max_attempts=1, timeout_s=0.01), obs=obs,
        )
        assert [records[c.cell_id]["error"]["kind"] for c in late] == ["timeout"] * 4
        assert obs.snapshot()["resilience/timeouts"] == 4
        assert envelope["resilience"]["cells_failed"] == 4
        # ...while fast cells under a generous deadline never time out
        fast = [CellSpec(f"fast{i}", "t_ok", {"x": i}) for i in range(4)]
        obs = Registry()
        result, _, _, _ = execute_sweep(
            _test_plan(fast), tmp_path / "fast", jobs=2,
            retry=_fast_retry(max_attempts=1, timeout_s=60), obs=obs,
        )
        assert result["failed"] == []
        assert obs.snapshot().get("resilience/timeouts", 0) == 0

    def test_retried_cell_is_bit_identical(self, tmp_path):
        """A cell that fails once and succeeds on retry reproduces the
        exact result of a never-failed run (global --seed re-applied in
        the worker)."""
        params = {
            "accelerator": "olaccel16",
            "network": "alexnet",
            "ratio": 0.03,
            "seed": 11,
            "marker": str(tmp_path / "marker"),
        }
        plan = _test_plan([CellSpec("flaky", "t_flaky", params)], seed=11)
        obs = Registry()
        result, _, _, records = execute_sweep(
            plan, tmp_path / "run", retry=_fast_retry(max_attempts=3), obs=obs
        )
        assert records["flaky"]["attempts"] == 2
        assert obs.snapshot()["resilience/retries"] == 1
        reference = _run_breakdown_cell(
            {k: v for k, v in params.items() if k != "marker"}
        )
        assert result["rows"]["flaky"] == reference


class TestRunDir:
    def test_completed_cells_are_skipped_on_rerun(self, tmp_path):
        plan = _test_plan([CellSpec("a", "t_ok", {"x": 1}), CellSpec("b", "t_ok", {"x": 2})])
        run_dir = tmp_path / "run"
        _, first, _, _ = execute_sweep(plan, run_dir)
        obs = Registry()
        _, second, _, _ = execute_sweep(plan, run_dir, obs=obs)
        snap = obs.snapshot()
        assert snap["resilience/cells_skipped"] == 2
        assert snap["resilience/cells_attempted"] == 0
        assert canonical_envelope_bytes(first) == canonical_envelope_bytes(second)

    def test_manifest_mismatch_refused(self, tmp_path):
        run_dir = tmp_path / "run"
        execute_sweep(_test_plan([CellSpec("a", "t_ok", {"x": 1})]), run_dir)
        other = _test_plan([CellSpec("a", "t_ok", {"x": 1})], seed=99)
        with pytest.raises(ArtifactIntegrityError) as err:
            execute_sweep(other, run_dir)
        assert err.value.reason == "manifest_mismatch"

    def test_corrupt_cell_record_reexecutes(self, tmp_path):
        plan = _test_plan([CellSpec("a", "t_ok", {"x": 1}), CellSpec("b", "t_ok", {"x": 2})])
        run_dir = tmp_path / "run"
        _, first, _, _ = execute_sweep(plan, run_dir)
        cell = RunDir(run_dir).cell_path("a")
        cell.write_text(cell.read_text()[:40])  # torn write
        obs = Registry()
        _, again, _, _ = work_run(run_dir, obs=obs)
        assert obs.snapshot()["resilience/cells_attempted"] == 1
        assert canonical_envelope_bytes(first) == canonical_envelope_bytes(again)

    def test_failed_cells_reexecute_on_resume(self, tmp_path):
        marker = tmp_path / "marker"
        params = {
            "accelerator": "olaccel16",
            "network": "alexnet",
            "ratio": 0.03,
            "seed": 5,
            "marker": str(marker),
        }
        plan = _test_plan([CellSpec("flaky", "t_flaky", params)], seed=5)
        run_dir = tmp_path / "run"
        # no retries: first run records the cell as failed...
        _, first, _, _ = execute_sweep(plan, run_dir, retry=_fast_retry(max_attempts=1))
        assert first["resilience"]["cells_failed"] == 1
        # ...resume re-executes exactly the failed cell and succeeds
        _, second, _, records = work_run(run_dir, retry=_fast_retry(max_attempts=1))
        assert second["resilience"]["cells_failed"] == 0
        assert records["flaky"]["status"] == "ok"


class TestKillResume:
    """SIGKILL at a cell boundary, then `repro resume` — the envelope
    must be byte-identical (modulo declared volatile fields) to an
    uninterrupted run."""

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_fig11_kill_resume_byte_identical(self, tmp_path, jobs):
        run_dir = tmp_path / "run"
        env = dict(CLI_ENV, **{KILL_AFTER_ENV: "2"})
        killed = _repro(
            "run", "fig11", "--run-dir", str(run_dir), "--seed", "7", "--jobs", jobs,
            env=env,
        )
        assert killed.returncode == -signal.SIGKILL, killed.stderr
        done = list((run_dir / "cells").glob("*.json"))
        assert len(done) == 2  # checkpointed exactly up to the kill
        assert not run_dir.joinpath("envelope.json").exists()

        resumed = _repro("resume", str(run_dir), "--jobs", jobs)
        assert resumed.returncode == 0, resumed.stderr
        envelope = load_json(run_dir / "envelope.json")

        ref_dir = tmp_path / "ref"
        plan = breakdown_plan(
            "alexnet", seed=7, experiment="fig11", description=EXPERIMENTS["fig11"][1]
        )
        _, reference, _, _ = execute_sweep(plan, ref_dir)
        assert canonical_envelope_bytes(envelope) == canonical_envelope_bytes(reference)

    def test_faults_kill_resume_byte_identical(self, tmp_path):
        run_dir = tmp_path / "run"
        env = dict(CLI_ENV, **{KILL_AFTER_ENV: "1"})
        killed = _repro(
            "faults", "alexnet", "--rates", "0", "0.001", "--widths", "24",
            "--run-dir", str(run_dir), "--seed", "3",
            env=env,
        )
        assert killed.returncode == -signal.SIGKILL, killed.stderr
        assert len(list((run_dir / "cells").glob("*.json"))) == 1

        resumed = _repro("resume", str(run_dir))
        assert resumed.returncode == 0, resumed.stderr
        envelope = load_json(run_dir / "envelope.json")

        ref_dir = tmp_path / "ref"
        plan = faults_plan("alexnet", rates=(0.0, 0.001), widths=(24,), seed=3)
        _, reference, _, _ = execute_sweep(plan, ref_dir)
        assert canonical_envelope_bytes(envelope) == canonical_envelope_bytes(reference)

    def test_volatile_fields_really_differ(self, tmp_path):
        """Sanity: the byte-equality above is not vacuous — two separate
        runs do differ in the volatile fields before stripping."""
        plan = _test_plan([CellSpec("a", "t_ok", {"x": 1})])
        _, env1, man1, _ = execute_sweep(plan, tmp_path / "r1")
        _, env2, man2, _ = execute_sweep(plan, tmp_path / "r2")
        assert man1["run_id"] != man2["run_id"]
        assert env1["resilience"]["run_id"] != env2["resilience"]["run_id"]
        assert canonical_envelope_bytes(env1) == canonical_envelope_bytes(env2)


class TestGracefulDegradation:
    def test_breakdown_report_renders_failed_rows(self, tmp_path):
        plan = breakdown_plan("alexnet", seed=0)
        run_dir = tmp_path / "run"
        result, _, _, records = execute_sweep(plan, run_dir)
        assert not result.failures
        # forge a failed record for one accelerator and reassemble
        records = dict(records)
        records["olaccel16"] = {
            "schema": "repro.cell/v1",
            "cell_id": "olaccel16",
            "kind": "breakdown",
            "status": "failed",
            "attempts": 3,
            "result": None,
            "error": CellError(
                "synthetic", cell_id="olaccel16", kind="timeout", attempts=3
            ).to_dict(),
        }
        partial = PLAN_ASSEMBLERS["breakdown"](plan, records)
        text = partial.format()
        assert FAILED in text
        assert "olaccel16" in partial.failures
        # the surviving accelerators still report absolute numbers
        assert "eyeriss16" in text

    def test_format_failures_table(self):
        errors = [
            CellError("boom", cell_id="rate-0.01", kind="exception", attempts=2).to_dict()
        ]
        text = format_failures(errors)
        assert FAILED in text
        assert "rate-0.01" in text
        assert "exception" in text

    def test_cli_exit_1_on_failed_cells(self, tmp_path, capsys):
        # an impossible per-cell timeout fails every cell but still
        # completes the run, writes the envelope, and exits 1
        code = main(
            [
                "faults", "alexnet", "--rates", "0", "--widths", "24",
                "--run-dir", str(tmp_path / "run"),
                "--timeout", "0.001", "--retries", "1", "--seed", "0",
            ]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert FAILED in out
        envelope = load_json(tmp_path / "run" / "envelope.json")
        # a cell that finishes before the supervisor's first poll can
        # legitimately beat the deadline, so >= 1 rather than == 2
        assert envelope["resilience"]["cells_failed"] >= 1
        # ...and resuming with a sane policy completes it cleanly
        code = main(["resume", str(tmp_path / "run")])
        assert code == 0
        envelope = load_json(tmp_path / "run" / "envelope.json")
        assert envelope["resilience"]["cells_failed"] == 0


class TestInterruptTeardown:
    def test_sigterm_during_sweep_exits_cleanly(self, tmp_path):
        """SIGTERM mid-sweep takes the same teardown path as Ctrl-C:
        exit 130, completed cells checkpointed, no envelope yet, and the
        run dir resumes cleanly afterwards."""
        run_dir = tmp_path / "run"
        script = tmp_path / "sweep.py"
        script.write_text(
            "import sys\n"
            "from repro.cli import main\n"
            "sys.exit(main(['faults', 'alexnet', '--rates', '0', '--widths', '24',\n"
            f"               '--run-dir', {str(run_dir)!r}, '--seed', '3',\n"
            "               '--timeout', '300']))\n"
        )
        # make the second cell hang so the sweep is mid-flight when the
        # TERM arrives: patch the width runner to sleep via sitecustomize?
        # Simpler: send TERM as soon as the first cell record appears.
        proc = subprocess.Popen(
            [sys.executable, str(script)],
            env=CLI_ENV,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            deadline = time.monotonic() + 60
            cells = run_dir / "cells"
            while time.monotonic() < deadline and proc.poll() is None:
                if cells.exists() and list(cells.glob("*.json")):
                    break
                time.sleep(0.02)
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
            proc.wait(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        # either the TERM landed mid-sweep (130) or the tiny sweep beat
        # us to completion (0) — both must leave a resumable run dir
        assert proc.returncode in (130, 0), proc.stderr.read()
        result, envelope, _, _ = work_run(run_dir)
        assert envelope["resilience"]["cells_failed"] == 0
