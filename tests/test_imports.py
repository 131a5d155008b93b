"""What each entry point imports: lazy package exports, per-verb CLI
imports and forked cells that inherit their runner's modules.

Every check runs in a fresh interpreter, because this test process has
long since imported everything. The assertions are on module sets, never
on timings (docs/PERFORMANCE.md, "CLI start-up", has the budget).
"""

from __future__ import annotations

import ast
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


#: Verbs whose models are pure Python: they write their envelope with numpy
#: never loaded.
ANALYTIC_VERBS = [
    ["run", "fig11"],
    ["run", "fig12"],
    ["run", "fig13"],
    ["run", "fig15"],
    ["run", "fig18"],
    ["run", "tab1"],
    ["compare", "resnet101"],
]


@pytest.mark.parametrize("argv", ANALYTIC_VERBS, ids=" ".join)
def test_analytic_verbs_import_no_numpy(tmp_path, argv):
    out = tmp_path / "out.json"
    code, loaded, err = _main(*argv, "--seed", "0", "--json", str(out))
    assert code == 0, err
    assert out.exists()
    assert "numpy" not in loaded


@pytest.mark.parametrize("argv", [["faults", "alexnet"], ["run", "fig17"]], ids=" ".join)
def test_array_verbs_still_load_numpy(tmp_path, argv):
    """The gate above is not vacuous: verbs that sample arrays load numpy."""
    code, loaded, err = _main(*argv, "--seed", "0", "--json", str(tmp_path / "out.json"))
    assert code == 0, err
    assert "numpy" in loaded


@pytest.mark.parametrize("argv", [["faults", "alexnet"], ["run", "fig11"]], ids=" ".join)
def test_verbs_never_load_the_reference_twins(tmp_path, argv):
    code, loaded, err = _main(*argv, "--seed", "0", "--json", str(tmp_path / "out.json"))
    assert code == 0, err
    assert "repro.reference" not in loaded


def _imported_modules(path: Path, module: str) -> set:
    """Absolute names of every module ``path`` (module ``module``) imports."""
    package = module if path.name == "__init__.py" else module.rpartition(".")[0]
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                parent = package.rsplit(".", node.level - 1)[0]
                base = f"{parent}.{base}" if base else parent
            names.add(base)
            names.update(f"{base}.{alias.name}" for alias in node.names)
    return names


def test_only_bench_imports_the_reference_twins():
    """The scalar twins are test support: of the modules under ``src``,
    only ``repro bench`` (which times the fast paths against them)
    imports ``repro.reference``."""
    src = REPO / "src"
    importers = set()
    for path in sorted((src / "repro").rglob("*.py")):
        parts = path.relative_to(src).with_suffix("").parts
        module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        if "repro.reference" in _imported_modules(path, module):
            importers.add(module)
    assert importers == {"repro.harness.bench"}


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
#: the ``repro.*`` modules it imported, and whether numpy and
#: ``repro.reference`` were loaded, to ``<out>/<kind>-<pid>.json``; the
#: runner writes the same two flags to ``<out>/main.json``.
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
                flags = {"numpy": "numpy" in sys.modules, "reference": "repro.reference" in sys.modules}
                json.dump({"new": new, **flags}, f)

    resilience._cell_worker = recording
    from repro.cli import main

    code = main(argv)
    with open(os.path.join(out, "main.json"), "w") as f:
        json.dump({"numpy": "numpy" in sys.modules, "reference": "repro.reference" in sys.modules}, f)
    sys.exit(code)
    """
)


@pytest.mark.skipif(pool_context().get_start_method() != "fork", reason="cells inherit only when forked")
@pytest.mark.parametrize(
    "argv, cells, numpy",
    [
        (["run", "fig11"], 6, False),
        (["faults", "alexnet", "--rates", "0", "1e-3", "--widths", "16", "24"], 4, True),
    ],
    ids=["breakdown", "faults"],
)
def test_forked_cells_import_nothing_new(tmp_path, argv, cells, numpy):
    out = tmp_path / "imports"
    out.mkdir()
    run_dir = tmp_path / "run"
    proc = _python(
        RECORD_CELLS, str(out), *argv, "--seed", "0", "--jobs", "2", "--run-dir", str(run_dir)
    )
    assert proc.returncode == 0, proc.stderr
    reports = {path.name: json.loads(path.read_text()) for path in out.iterdir()}
    assert reports.pop("main.json") == {"numpy": numpy, "reference": False}
    assert len(reports) == cells
    clean = {"new": [], "numpy": numpy, "reference": False}
    assert all(report == clean for report in reports.values()), reports
