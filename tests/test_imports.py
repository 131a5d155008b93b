"""What each entry point imports: lazy package exports, per-verb CLI
imports and forked cells that inherit their runner's modules.

Every check runs in a fresh interpreter, because this test process has
long since imported everything. The assertions are on module sets, never
on timings (docs/PERFORMANCE.md, "CLI start-up", has the budget).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro import constants
from repro.harness.resilience import pool_context

REPO = Path(__file__).resolve().parents[1]
ENV = {**os.environ, "PYTHONPATH": str(REPO / "src")}
for var in ("REPRO_CACHE_DIR", "REPRO_NO_CACHE", "REPRO_KILL_AFTER_CELLS"):
    ENV.pop(var, None)

PACKAGES = ("harness", "arch", "olaccel", "nn", "quant", "faults", "baselines", "obs")

#: Imported by no verb at ``import repro.cli`` time.
HEAVY = (
    "numpy",
    "repro.harness.serve",
    "repro.harness.remote",
    "repro.harness.explore",
    "repro.harness.resilience",
    "repro.harness.coord",
    "repro.harness.bench",
    "repro.harness.ablations",
    "asyncio",
    "http.server",
    "multiprocessing",
)

#: Runs ``repro.cli.main(argv)`` and prints, as the last stdout line, the
#: exit code and the modules it left loaded.
MAIN = textwrap.dedent(
    """
    import json, sys
    from repro.cli import main
    try:
        code = main(sys.argv[1:])
    except SystemExit as exc:
        code = exc.code
    sys.stdout.flush()
    print(json.dumps({"code": code, "modules": sorted(sys.modules)}))
    """
)


def _python(code: str, *argv: str, cwd: Path = REPO) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-c", code, *argv],
        env=ENV, cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def _main(*argv: str, cwd: Path = REPO):
    proc = _python(MAIN, *argv, cwd=cwd)
    assert proc.stdout, proc.stderr
    doc = json.loads(proc.stdout.splitlines()[-1])
    return doc["code"], set(doc["modules"]), proc.stderr


def test_import_cli_loads_no_driver():
    proc = _python("import json, sys, repro.cli; print(json.dumps(sorted(sys.modules)))")
    assert proc.returncode == 0, proc.stderr
    loaded = set(json.loads(proc.stdout))
    assert not loaded & set(HEAVY)


@pytest.mark.parametrize(
    "argv, code, message",
    [
        (["--help"], 0, "usage: repro"),
        (["run", "--help"], 0, "usage: repro run"),
        (["list"], 0, "fig11"),
        (["run", "fig99"], 2, "unknown experiment(s): fig99"),
        (["compare", "nosuchnet"], 2, "unknown network 'nosuchnet'"),
        (["faults", "nosuchnet"], 2, "unknown network 'nosuchnet'"),
        (["explore", "alexnet", "--strategy", "bogus"], 2, "invalid choice: 'bogus'"),
    ],
)
def test_usage_paths_import_no_numpy(argv, code, message):
    got, loaded, err = _main(*argv)
    assert got == code
    assert "numpy" not in loaded
    if code == 2:
        assert message in err
    if argv[-1] == "bogus":
        for name in ("grid", "halving", "random"):
            assert name in err


def test_run_fig11_loads_only_its_driver(tmp_path):
    code, loaded, _ = _main("run", "fig11", "--seed", "0", "--json", str(tmp_path / "fig11.json"))
    assert code == 0
    assert "repro.harness.experiments" in loaded
    for module in (
        "repro.harness.serve",
        "repro.harness.remote",
        "repro.harness.explore",
        "repro.harness.bench",
        "repro.harness.pretrained",
        "repro.quant.qmodel",
        "asyncio",
        "http.server",
        "multiprocessing",
    ):
        assert module not in loaded


def test_package_exports_resolve():
    """Each ``__all__`` name resolves, ``import *`` binds all of them,
    and an unknown name still fails the normal way."""
    code = textwrap.dedent(
        """
        import importlib, sys
        for pkg in sys.argv[1:]:
            module = importlib.import_module(f"repro.{pkg}")
            assert len(set(module.__all__)) == len(module.__all__), pkg
            namespace = {}
            exec(f"from repro.{pkg} import *", namespace)
            for name in module.__all__:
                assert namespace[name] is getattr(module, name), (pkg, name)
            assert set(module.__all__) <= set(dir(module)), pkg
            try:
                exec(f"from repro.{pkg} import no_such_name", {})
            except ImportError:
                pass
            else:
                raise AssertionError(f"repro.{pkg}.no_such_name resolved")
        print("ok")
        """
    )
    proc = _python(code, *PACKAGES)
    assert proc.stdout.strip() == "ok", proc.stderr


def test_constants_have_one_home():
    """The old import locations re-export the numpy-free originals."""
    from repro.faults.plan import FAULT_MODELS
    from repro.faults.validate import RECOVERY_POLICIES
    from repro.harness.coord import DEFAULT_HEARTBEAT_S, DEFAULT_LEASE_TTL_S
    from repro.harness.explore import STRATEGIES
    from repro.harness.faults import DEFAULT_RATES, DEFAULT_WIDTHS
    from repro.harness.workloads import MEMORY_TABLE

    assert MEMORY_TABLE is constants.MEMORY_TABLE
    assert DEFAULT_RATES is constants.DEFAULT_RATES
    assert DEFAULT_WIDTHS is constants.DEFAULT_WIDTHS
    assert FAULT_MODELS is constants.FAULT_MODELS
    assert RECOVERY_POLICIES is constants.RECOVERY_POLICIES
    assert DEFAULT_LEASE_TTL_S == constants.DEFAULT_LEASE_TTL_S
    assert DEFAULT_HEARTBEAT_S == constants.DEFAULT_HEARTBEAT_S
    assert tuple(sorted(STRATEGIES)) == constants.STRATEGY_NAMES


#: Wraps the supervisor's worker entry so that each forked cell writes
#: the ``repro.*`` modules it imported to ``<out>/<kind>-<pid>.json``.
RECORD_CELLS = textwrap.dedent(
    """
    import json, os, sys
    from repro.harness import resilience

    out, argv = sys.argv[1], sys.argv[2:]
    cell_worker = resilience._cell_worker

    def recording(conn, kind, params):
        before = set(sys.modules)
        try:
            cell_worker(conn, kind, params)
        finally:
            new = sorted(m for m in set(sys.modules) - before if m.startswith("repro"))
            with open(os.path.join(out, f"{kind}-{os.getpid()}.json"), "w") as f:
                json.dump(new, f)

    resilience._cell_worker = recording
    from repro.cli import main

    sys.exit(main(argv))
    """
)


@pytest.mark.skipif(pool_context().get_start_method() != "fork", reason="cells inherit only when forked")
@pytest.mark.parametrize(
    "argv, cells",
    [
        (["run", "fig11"], 6),
        (["faults", "alexnet", "--rates", "0", "1e-3", "--widths", "16", "24"], 4),
    ],
    ids=["breakdown", "faults"],
)
def test_forked_cells_import_nothing_new(tmp_path, argv, cells):
    out = tmp_path / "imports"
    out.mkdir()
    run_dir = tmp_path / "run"
    proc = _python(
        RECORD_CELLS, str(out), *argv, "--seed", "0", "--jobs", "2", "--run-dir", str(run_dir)
    )
    assert proc.returncode == 0, proc.stderr
    reports = {path.name: json.loads(path.read_text()) for path in out.iterdir()}
    assert len(reports) == cells
    assert all(new == [] for new in reports.values()), reports
