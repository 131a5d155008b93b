"""The benchmark's four workloads: what an op is, its inputs, its check.

Each workload stresses different layers (README.md has the table):

- ``cli_commands`` — fresh ``python -m repro`` processes: interpreter
  start and ``import repro.cli`` dominate.
- ``analytic_sweep`` — in-process breakdown / ratio-sweep / explore calls
  under a fresh memory-only simcache: the cycle models and the cache's
  miss-and-store path, with no import, fork or nn.
- ``accuracy_eval`` — the fig2 pipeline on the committed mini-AlexNet
  weights: calibration and quantized forward passes, i.e. nn and quant.
- ``checkpointed_sweep`` — ``--run-dir --jobs 2`` sweeps against a warm
  disk cache: the per-cell supervisor, leases and cache reads.

Every op's output is reduced to a *fingerprint* (an envelope digest,
calibrated thresholds, or top-1/top-5 counts) and compared with
``expected.json``, which ``make_expected.py`` writes from the same
methods. Every CLI command passes ``--seed 0``, so the benchmark's
``--seed`` only reorders ops and picks the accuracy test batches.

Program imports happen inside methods: a worker imports ``repro.cli``
first, as part of its measured set-up.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
EXPECTED_PATH = HERE / "expected.json"
FIXTURE = HERE / "fixtures" / "alexnet-seed7-ep10.npz"
FIXTURE_SHA256 = "fecf7438075ecec5eb731d8895b7c46286d19ca03cdf60923ba0465406560f8a"

EXPLORE_ARGS = [
    "explore", "alexnet", "--clusters", "4", "8", "--groups", "6",
    "--buffers-kib", "96", "384", "--ratios", "0.01", "--acc-bits", "16",
]
CLI_COMMANDS = {
    "run fig11": ["run", "fig11"],
    "run tab1": ["run", "tab1"],
    "compare resnet101": ["compare", "resnet101"],
    "faults alexnet": ["faults", "alexnet"],
    "profile alexnet": ["profile", "alexnet"],
}
#: Five commands, not four: with an even count the median latency falls
#: in the gap between two commands' latency bands, where it swung by up
#: to a third between runs.
CHECKPOINTED_COMMANDS = {
    "run fig11": ["run", "fig11"],
    "run fig13": ["run", "fig13"],
    "compare resnet101": ["compare", "resnet101"],
    "faults alexnet": ["faults", "alexnet"],
    "explore alexnet": EXPLORE_ARGS,
}
BREAKDOWN_NETWORKS = ("alexnet", "vgg16", "resnet18", "resnet101", "densenet121")
#: fig2's outlier ratios; "fp" is the unquantized model.
ACCURACY_POINTS = ("fp", "0.0", "0.005", "0.01", "0.02", "0.035", "0.05")
BATCH = 64
BATCHES_PER_POINT = 3
CALIBRATION_IMAGES = 100
#: Relative tolerance on calibrated thresholds: far above the float noise
#: of a reordered sum, far below any change to the calibration itself.
THRESHOLD_REL_TOL = 1e-6
#: The tolerance tests/test_golden.py applies to the same totals.
GOLDEN_REL_TOL = 1e-9


class Context:
    """What a workload needs from the worker process running it."""

    def __init__(self, root: Path, tmp: Path, warm_cache: Optional[Path] = None, fork: bool = False,
                 tracer=None, registry=None, expected: Optional[Dict] = None):
        self.root = root
        self.tmp = tmp
        self.warm_cache = warm_cache
        self.fork = fork
        self.tracer = tracer
        self.registry = registry
        self.expected = expected if expected is not None else {}
        self._ids = itertools.count()

    def fresh_path(self, suffix: str) -> Path:
        return self.tmp / f"op{os.getpid()}-{next(self._ids)}{suffix}"


def envelope_digest(envelope: Dict, simulated_only: bool = False) -> str:
    """SHA-256 of an envelope's canonical bytes (volatile fields removed).

    ``simulated_only`` drops the host wall-clock fields of a profile
    envelope: ``rows[*].wall_ms`` and the ``*.seconds`` timer counters.
    """
    from repro.harness import canonical_envelope_bytes

    if simulated_only:
        result = dict(envelope["result"])
        result["rows"] = [{k: v for k, v in row.items() if k != "wall_ms"} for row in result["rows"]]
        result["counters"] = {k: v for k, v in result["counters"].items() if not k.endswith(".seconds")}
        envelope = {**envelope, "result": result}
    return hashlib.sha256(canonical_envelope_bytes(envelope)).hexdigest()


def check_golden(root: Path, envelope: Dict) -> None:
    """Raise if a breakdown envelope's totals leave ``tests/golden``."""
    result = envelope.get("result")
    if not (isinstance(result, dict) and "runs" in result and "network" in result):
        return
    path = root / "tests" / "golden" / f"{result['network']}.json"
    if not path.exists():
        return
    from repro.harness import run_stats_from_dict

    golden = json.loads(path.read_text())["accelerators"]
    for kind, doc in golden.items():
        if kind not in result["runs"]:
            raise ValueError(f"{result['network']}: no {kind} run to compare with the golden totals")
        run = run_stats_from_dict(result["runs"][kind])
        pairs = (
            ("total_cycles", run.total_cycles, doc["total_cycles"]),
            ("energy.total", run.total_energy.total, doc["energy"]["total"]),
        )
        for label, got, want in pairs:
            if not math.isclose(got, want, rel_tol=GOLDEN_REL_TOL):
                raise ValueError(f"{result['network']}/{kind}: {label} {got!r} != golden {want!r}")


class Workload:
    """One workload: set-up, a seeded cycle of ops, and per-op run/check.

    A cycle holds every op of the workload's mix once, so any whole
    number of cycles has the same mix whatever the seed.
    """

    name = ""
    #: The host probe (a key of ``worker.PROBES``) whose work resembles
    #: this workload's ops, so that its time tracks theirs.
    probe = "kernel"

    def __init__(self, ctx: Context):
        self.ctx = ctx

    def setup(self) -> None:
        """Load the inputs; runs after ``import repro.cli``, inside set-up."""

    def ops(self) -> List[str]:
        """Every op a cycle can contain, in an order that can run as is."""
        raise NotImplementedError

    def cycle(self, rng) -> List[str]:
        ops = self.ops()
        rng.shuffle(ops)
        return ops

    def run(self, op: str):
        """The timed part of one op; returns what :meth:`fingerprint` reads."""
        raise NotImplementedError

    def observe(self, op: str, output) -> Dict[str, float]:
        """Untimed layer observations after a traced op."""
        return {}

    def fingerprint(self, op: str, output):
        """The JSON value ``expected.json`` pins for this op's output."""
        raise NotImplementedError

    def matches(self, op: str, got, want) -> bool:
        return got == want

    def check(self, op: str, output) -> Optional[str]:
        """An error message if the op's output is wrong, else ``None``."""
        want = self.ctx.expected.get(self.name, {}).get(op)
        got = self.fingerprint(op, output)
        if want is None or not self.matches(op, got, want):
            return f"{op}: output {str(got)[:80]} != expected {str(want)[:80]}"
        return None


class CliCommands(Workload):
    """A fresh ``python -m repro <cmd> --seed 0 --json <tmp>`` per op.

    In the traced run each op instead calls ``repro.cli.main`` in a child
    forked after import, so its spans can be shipped back.
    """

    name = "cli_commands"
    probe = "spawn"
    commands = CLI_COMMANDS

    def ops(self) -> List[str]:
        return list(self.commands)

    def argv(self, op: str, out: Path) -> List[str]:
        return [*self.commands[op], "--seed", "0", "--json", str(out)]

    def run(self, op: str):
        out = self.ctx.fresh_path(".json")
        argv = self.argv(op, out)
        if self.ctx.fork:
            import repro.cli
            from tracer import fork_call

            code, counters = fork_call(lambda: repro.cli.main(argv), self.ctx.tracer, self.ctx.registry)
            if self.ctx.registry is not None:
                for path, value in counters.items():
                    self.ctx.registry.counter(path).add(value)
        else:
            code = subprocess.run(
                [sys.executable, "-m", "repro", *argv],
                stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL,
            ).returncode
        return code, out, argv

    def fingerprint(self, op: str, output) -> str:
        code, out, _ = output
        try:
            if code != 0:
                raise RuntimeError(f"exit code {code}")
            envelope = json.loads(out.read_text())
        finally:
            out.unlink(missing_ok=True)
        check_golden(self.ctx.root, envelope)
        return envelope_digest(envelope, simulated_only=op.startswith("profile"))


class CheckpointedSweep(CliCommands):
    """``--run-dir <new> --jobs 2 --cache-dir <warm>`` sweeps per op.

    :meth:`prepare` fills the warm cache before any round, so every cell
    reads the simcache from disk.
    """

    name = "checkpointed_sweep"
    commands = CHECKPOINTED_COMMANDS

    def argv(self, op: str, out: Path) -> List[str]:
        return [
            *self.commands[op], "--seed", "0", "--run-dir", str(self.ctx.fresh_path("-run")),
            "--jobs", "2", "--cache-dir", str(self.ctx.warm_cache), "--json", str(out),
        ]

    def prepare(self) -> None:
        """Fill the warm cache: each command once, untimed and checked."""
        for op in self.ops():
            error = self.check(op, self.run(op))
            if error:
                raise RuntimeError(f"warm-cache preparation failed: {error}")

    @staticmethod
    def run_dir(output) -> Path:
        argv = output[2]
        return Path(argv[argv.index("--run-dir") + 1])

    def observe(self, op: str, output) -> Dict[str, float]:
        """Run-dir file count, and the same cells computed inline.

        ``inline_ms`` runs every cell of the op's plans through the cell
        runners in this process against the same warm cache: the
        baseline of ``resilience.overhead_per_cell_ms``.
        """
        from repro.harness import SimCache, set_active
        from repro.harness.resilience import CELL_RUNNERS, RunDir

        run_dir = self.run_dir(output)
        files = sum(1 for path in run_dir.rglob("*") if path.is_file())
        inline = 0.0
        for manifest in sorted(run_dir.rglob("manifest.json")):
            rd = RunDir(manifest.parent)
            plan = rd.plan_from_manifest(rd.load_manifest())
            set_active(SimCache(root=self.ctx.warm_cache))
            start = time.perf_counter()
            for spec in plan.cells:
                CELL_RUNNERS[spec.kind](dict(spec.params))
            inline += time.perf_counter() - start
        set_active(None)
        return {"rundir_files": files, "inline_ms": inline * 1e3}

    def fingerprint(self, op: str, output) -> str:
        try:
            return super().fingerprint(op, output)
        finally:
            shutil.rmtree(self.run_dir(output), ignore_errors=True)


class AnalyticSweep(Workload):
    """In-process analytic drivers, each under a fresh memory-only cache."""

    name = "analytic_sweep"

    def setup(self) -> None:
        from repro.harness import breakdown_experiment, fig14_ratio_sweep
        from repro.harness.explore import ExploreRequest, explore_run

        self.calls = {f"breakdown {n}": (lambda n=n: breakdown_experiment(n)) for n in BREAKDOWN_NETWORKS}
        self.calls["fig14 ratio sweep"] = lambda: fig14_ratio_sweep(with_accuracy=False)
        self.calls["explore resnet18"] = lambda: explore_run(ExploreRequest("resnet18"))[1]

    def ops(self) -> List[str]:
        return list(self.calls)

    def run(self, op: str):
        from repro.harness import SimCache, set_active

        set_active(SimCache())
        return self.calls[op]()

    def fingerprint(self, op: str, output) -> str:
        from repro.harness import experiment_envelope, set_active

        set_active(None)
        envelope = output if op.startswith("explore") else experiment_envelope(op.split()[0], output)
        check_golden(self.ctx.root, envelope)
        return envelope_digest(envelope)


class AccuracyEval(Workload):
    """fig2 on the trained mini-AlexNet, one calibration or batch per op.

    A cycle visits the 7 points (FP and the 6 fig2 ratios) in seeded
    order; a quantized point first calibrates on 100 training images,
    then each point runs ``BATCHES_PER_POINT`` seeded 64-image test
    batches.
    """

    name = "accuracy_eval"
    probe = "numpy"

    def setup(self) -> None:
        digest = hashlib.sha256(FIXTURE.read_bytes()).hexdigest()
        if digest != FIXTURE_SHA256:
            raise RuntimeError(f"{FIXTURE} has sha256 {digest}, expected {FIXTURE_SHA256}")
        # REPRO_CACHE_DIR is also the trained-weights directory: point it
        # at the committed fixture so nothing is trained or written.
        os.environ["REPRO_CACHE_DIR"] = str(FIXTURE.parent)
        try:
            from repro.harness import default_dataset, trained_mini

            self.model = trained_mini("alexnet")
            self.data = default_dataset()
        finally:
            del os.environ["REPRO_CACHE_DIR"]
        self.batches = len(self.data.test_y) // BATCH
        self.qmodels = {}

    def ops(self) -> List[str]:
        ops = []
        for point in ACCURACY_POINTS:
            if point != "fp":
                ops.append(f"calibrate {point}")
            ops += [f"forward {point} {b}" for b in range(self.batches)]
        return ops

    def cycle(self, rng) -> List[str]:
        points = list(ACCURACY_POINTS)
        rng.shuffle(points)
        ops = []
        for point in points:
            if point != "fp":
                ops.append(f"calibrate {point}")
            ops += [f"forward {point} {b}" for b in rng.sample(range(self.batches), BATCHES_PER_POINT)]
        return ops

    def run(self, op: str):
        from repro.quant import QuantConfig, QuantizedModel, calibrate_activation_thresholds

        kind, point, *batch = op.split()
        if kind == "calibrate":
            ratio = float(point)
            cal = calibrate_activation_thresholds(self.model, self.data.train_x[:CALIBRATION_IMAGES], ratio=ratio)
            self.qmodels[point] = QuantizedModel(self.model, cal, QuantConfig(ratio=ratio))
            return cal
        start = int(batch[0]) * BATCH
        x = self.data.test_x[start : start + BATCH]
        return self.model.forward(x) if point == "fp" else self.qmodels[point].forward(x)

    def fingerprint(self, op: str, output):
        """Calibrated thresholds, or a batch's top-1 and top-5 hit counts
        (counted as ``topk_accuracy`` counts them)."""
        import numpy as np

        kind, _, *batch = op.split()
        if kind == "calibrate":
            return [layer.threshold for layer in output.layers]
        start = int(batch[0]) * BATCH
        labels = self.data.test_y[start : start + BATCH]
        top5 = np.argpartition(-output, 5, axis=1)[:, :5]
        return [int((output.argmax(axis=1) == labels).sum()), int((top5 == labels[:, None]).any(axis=1).sum())]

    def matches(self, op: str, got, want) -> bool:
        if not op.startswith("calibrate"):
            return got == want
        return len(got) == len(want) and all(
            math.isclose(g, w, rel_tol=THRESHOLD_REL_TOL) for g, w in zip(got, want)
        )


WORKLOADS = {cls.name: cls for cls in (CliCommands, AnalyticSweep, AccuracyEval, CheckpointedSweep)}
