"""End-to-end benchmark of the repro commands; see README.md.

Run from the repository root::

    python benchmarks/e2e/run.py [--workload NAME ...] [--seed N] [--seconds S]
                                 [--trace 0|1] [--trace-dir DIR] [--json OUT] [--smoke]

One closed-loop client: every op waits for the previous one. Each
workload runs ``ROUNDS`` rounds, each in a fresh worker process, in a
seeded order interleaved across workloads; a round runs whole cycles of
the workload's op mix for about its share of ``--seconds``. With
``--trace 1`` it instead runs, per workload, one untraced and one traced
round on the same ops, reports the per-layer metrics of BENCHMARK.json,
and writes ``trace.json`` (Chrome trace events) and ``layers.json`` to
``--trace-dir``.

Every metric is printed with its unit; the last stdout line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``
(metric names are prefixed ``<workload>/`` when several workloads run).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from layers import layer_metrics
from tracer import chrome_trace, span_stats
from worker import PROBES, spawn_probe
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROUNDS = 5
#: Fresh ``import repro.cli`` runs behind ``cli.import_ms``.
IMPORT_SAMPLES = 7
#: Each of a traced run's two rounds gets this share of ``--seconds``.
TRACE_ROUND_SHARE = 1 / 3
#: The whole run ends within this many seconds even if workers hang.
DEADLINE_S = 170.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS),
                        help="workload to run (repeatable; default all)")
    parser.add_argument("--seed", type=int, default=0, help="op-order and test-batch seed (default 0)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured op time per workload (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run reporting the per-layer metrics")
    parser.add_argument("--trace-dir", default=".bench/trace",
                        help="where --trace 1 writes trace.json and layers.json")
    parser.add_argument("--json", dest="json_out", metavar="OUT", help="also write the full report here")
    parser.add_argument("--smoke", action="store_true", help="1 round of 2 ops per workload")
    return parser.parse_args(argv)


def bench_env(root: Path) -> Dict[str, str]:
    """The workers' environment: one BLAS thread, no REPRO_* settings.

    ``REPRO_CACHE_DIR`` would silently turn every sweep into a disk-cached
    run, so it and every other ``REPRO_*`` variable are removed.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = str(root / "src")
    return env


def kill_group(proc: subprocess.Popen) -> None:
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def spawn(command: List[str], root: Path, env: Dict[str, str], timeout: float):
    """Run ``command`` in its own process group; ``(returncode, stderr)``.

    Whatever the command leaves running is killed with its group. On
    timeout the code is ``None``.
    """
    proc = subprocess.Popen(command, cwd=root, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        _, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        err = None
    finally:
        kill_group(proc)
    if err is None:
        proc.communicate()
        return None, f"timed out after {timeout:.0f}s"
    return proc.returncode, err


def run_worker(config: Dict, root: Path, env: Dict[str, str], timeout: float):
    """One worker round; ``(result, None)`` or ``(None, error)``.

    Set-up is a process start too, so a spawn probe just before the
    worker's spawn goes with it as ``setup_probe_s``.
    """
    setup_probe = spawn_probe()
    spawned = time.monotonic()
    code, err = spawn([sys.executable, str(HERE / "worker.py"), json.dumps(config)], root, env, timeout)
    if code != 0:
        tail = (err or "").strip().splitlines()[-1:] or [""]
        return None, f"{config['workload']} {config['mode']} worker: exit {code}: {tail[0]}"
    if config["mode"] == "prepare":
        return {}, None
    result = json.loads(Path(config["result"]).read_text())
    result["setup_s"] = result["ready"] - spawned
    result["setup_probe_s"] = setup_probe
    return result, None


def import_ms(root: Path, env: Dict[str, str]) -> float:
    """Median wall time of fresh ``python -c 'import repro.cli'`` runs."""
    samples = []
    for _ in range(IMPORT_SAMPLES):
        start = time.perf_counter()
        code, err = spawn([sys.executable, "-c", "import repro.cli"], root, env, 60)
        if code != 0:
            raise RuntimeError(f"import repro.cli failed: {err}")
        samples.append((time.perf_counter() - start) * 1e3)
    return statistics.median(samples)


def percentile(values: List[float], pct: float) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[int(pct) - 1]


def host_scales(round_: Dict) -> Tuple[List[float], float]:
    """Factors that turn a round's times into times on the reference host.

    The host's speed drifts by tens of percent within seconds on a shared
    machine. Each op's factor is the probe's reference time over the mean
    of the probes just before and just after the op, so it follows the
    host through the run. Set-up is scaled by the spawn probe taken just
    before the worker's spawn. Returns ``(per-op factors, set-up factor)``.
    """
    reference = PROBES[round_["probe"]][1]
    probes = round_["probes"]
    ops = [2 * reference / (probes[i] + probes[i + 1]) for i in range(len(round_["ops"]))]
    return ops, PROBES["spawn"][1] / round_["setup_probe_s"]


def e2e_metrics(rounds: List[Dict], scaled: bool = True) -> Dict[str, float]:
    """The end-to-end metrics over ``rounds``, as on the reference host
    unless ``scaled`` is false.

    Latencies pool every op; set-up and peak RSS are medians over rounds.
    """
    ops, setups = [], []
    for r in rounds:
        op_scales, setup_scale = host_scales(r) if scaled else ([1.0] * len(r["ops"]), 1.0)
        ops += [(op, scale) for op, scale in zip(r["ops"], op_scales)]
        setups.append(r["setup_s"] * setup_scale)
    if not ops:
        return {}
    latencies = [op[1] * scale for op, scale in ops]
    completed = sum(1 for op, _ in ops if op[3] is None)
    return {
        "setup_s": statistics.median(setups),
        "ops_per_s": completed / sum(latencies),
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_p90_ms": percentile(latencies, 90) * 1e3,
        "cpu_ms_per_op": sum(op[2] * scale for op, scale in ops) / len(ops) * 1e3,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
    }


def run_benchmark(args, spec: Dict, root: Path, tmp: Path) -> Dict[str, Dict]:
    """Run every round; returns the per-workload report."""
    deadline = time.monotonic() + DEADLINE_S
    seconds = args.seconds or spec["run_seconds"]
    names = args.workload or list(WORKLOADS)
    env = bench_env(root)
    warm_cache = tmp / "warm-cache"
    report = {name: {"rounds": [], "errors": [], "attempted": 0} for name in names}

    def config(name: str, mode: str, round_index: int, budget: float) -> Dict:
        return {
            "workload": name, "mode": mode, "seed": args.seed, "round": round_index,
            "budget_s": budget, "max_ops": 2 if args.smoke else None, "root": str(root),
            "tmp": str(tmp), "warm_cache": str(warm_cache),
            "result": str(tmp / f"{name}-{mode}-{round_index}.json"),
        }

    if "checkpointed_sweep" in names:
        _, error = run_worker(config("checkpointed_sweep", "prepare", 0, 0), root, env, 120)
        if error:
            report["checkpointed_sweep"]["errors"].append(error)
            report["checkpointed_sweep"]["attempted"] += 1

    if args.trace:
        imported_ms = import_ms(root, env)
        schedule = [(name, mode, 0) for name in names for mode in ("reference", "traced")]
    else:
        rounds = 1 if args.smoke else ROUNDS
        schedule = [(name, "timed", r) for name in names for r in range(rounds)]
    random.Random(args.seed).shuffle(schedule)
    budget_left = {name: seconds for name in names}
    rounds_left = {name: sum(1 for s in schedule if s[0] == name) for name in names}

    for name, mode, round_index in schedule:
        if args.trace:
            budget = seconds * TRACE_ROUND_SHARE
        else:
            budget = budget_left[name] / rounds_left[name]
        rounds_left[name] -= 1
        timeout = max(5.0, min(budget + 60.0, deadline - time.monotonic()))
        result, error = run_worker(config(name, mode, round_index, budget), root, env, timeout)
        entry = report[name]
        if error:
            entry["errors"].append(error)
            entry["attempted"] += 1
            continue
        result["mode"] = mode
        entry["rounds"].append(result)
        entry["attempted"] += len(result["ops"])
        entry["errors"] += [op[3] for op in result["ops"] if op[3]]
        budget_left[name] -= result["op_wall_s"]

    for name, entry in report.items():
        if args.trace:
            summarize_trace(entry, spec, imported_ms)
        elif entry["rounds"]:
            entry["probe"] = entry["rounds"][0]["probe"]
            entry["probe_ms"] = statistics.median(p for r in entry["rounds"] for p in r["probes"]) * 1e3
            entry["metrics"] = e2e_metrics(entry["rounds"])
            entry["raw_metrics"] = e2e_metrics(entry["rounds"], scaled=False)
        else:
            entry["metrics"] = {}
        entry["ops"] = sum(len(r["ops"]) for r in entry["rounds"])
        entry["failed"] = len(entry["errors"])
    return report


def summarize_trace(entry: Dict, spec: Dict, imported_ms: float) -> None:
    """Per-layer metrics of one workload's traced round, vs its reference."""
    rounds = {r["mode"]: r for r in entry["rounds"]}
    traced, reference = rounds.get("traced"), rounds.get("reference")
    names = [m["name"] for m in spec["per_layer"]]
    if traced is None or reference is None:
        entry["metrics"] = {metric: 0.0 for metric in names}
        return
    trace = traced.pop("trace")
    extras = dict(trace["extras"], import_ms=imported_ms)
    traced_rate = e2e_metrics([traced])["ops_per_s"]
    reference_rate = e2e_metrics([reference])["ops_per_s"]
    if traced_rate:
        extras["overhead_pct"] = (reference_rate / traced_rate - 1.0) * 100.0
    stats = span_stats(trace["spans"])
    entry["metrics"] = layer_metrics(names, stats, trace["counters"], extras, len(traced["ops"]))
    entry["spans"] = trace["spans"]
    entry["layers"] = {
        "ops": len(traced["ops"]),
        "reference_ops_per_s": reference_rate,
        "traced_ops_per_s": traced_rate,
        "missing_targets": trace["missing"],
        "per_op": {
            span: {field: value / max(len(traced["ops"]), 1) for field, value in fields.items()}
            for span, fields in sorted(stats.items())
        },
    }


def write_trace(report: Dict[str, Dict], units: Dict[str, str], trace_dir: Path) -> None:
    trace_dir.mkdir(parents=True, exist_ok=True)
    spans = {name: entry.pop("spans", []) for name, entry in report.items()}
    (trace_dir / "trace.json").write_text(json.dumps(chrome_trace(spans), separators=(",", ":")))
    layers = {
        name: {
            **entry.get("layers", {}),
            "metrics": {m: {"value": v, "unit": units[m]} for m, v in entry["metrics"].items()},
        }
        for name, entry in report.items()
    }
    (trace_dir / "layers.json").write_text(json.dumps({"schema": "repro.e2e-layers/v1", "workloads": layers}, indent=2))


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "repro" / "cli.py").is_file() or not (root / "BENCHMARK.json").is_file():
        print("run.py: no src/repro/cli.py or BENCHMARK.json here; run from the repository root", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}

    scratch = root / ".bench" / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=scratch))
    try:
        report = run_benchmark(args, spec, root, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if args.trace:
        write_trace(report, units, root / args.trace_dir)

    single = len(report) == 1
    metrics = {}
    print(f"{'workload':20} {'metric':34} {'value':>14}  unit")
    for name, entry in report.items():
        for metric, unit in units.items():
            value = entry["metrics"].get(metric, 0.0)
            print(f"{name:20} {metric:34} {value:14.4f}  {unit}")
            metrics[metric if single else f"{name}/{metric}"] = {"value": value, "unit": unit}
        beyond_p90 = entry["ops"] - int(0.9 * entry["ops"])
        print(f"{name:20} {entry['ops']} ops in {len(entry['rounds'])} rounds, {beyond_p90} beyond p90, "
              f"{entry['failed']}/{entry['attempted']} failed")
        if "probe" in entry:
            reference_ms = PROBES[entry["probe"]][1] * 1e3
            print(f"{name:20} {entry['probe']} probe median {entry['probe_ms']:.3f} ms: times scaled op by op "
                  f"to its {reference_ms:.1f} ms reference")
        for error in entry["errors"][:5]:
            print(f"{name:20} error: {error}")
    attempted = sum(entry["attempted"] for entry in report.values())
    failed = sum(entry["failed"] for entry in report.values())
    if args.json_out:
        doc = {
            "schema": "repro.e2e-bench/v1", "seed": args.seed, "trace": args.trace, "smoke": args.smoke,
            "workloads": {
                name: {
                    "attempted": entry["attempted"], "failed": entry["failed"],
                    "error_rate": entry["failed"] / max(entry["attempted"], 1), "ops": entry["ops"],
                    "metrics": {m: {"value": v, "unit": units[m]} for m, v in entry["metrics"].items()},
                    "raw_metrics": entry.get("raw_metrics", {}), "probe": entry.get("probe"),
                    "probe_ms": entry.get("probe_ms"),
                    "errors": entry["errors"],
                }
                for name, entry in report.items()
            },
        }
        Path(args.json_out).write_text(json.dumps(doc, indent=2) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": max(attempted, 1), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
