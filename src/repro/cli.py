"""Command-line interface: regenerate any paper experiment from a shell.

Usage::

    python -m repro list                 # show available experiments
    python -m repro run fig11            # one experiment
    python -m repro run fig11 fig13      # several
    python -m repro run all              # everything (trains mini models
                                         # on first use; cached afterwards)
    python -m repro run fig11 --json out.json   # machine-readable results
    python -m repro run fig11 --csv out.csv     # per-layer CSV rows
    python -m repro ablations            # design-choice ablations
    python -m repro compare resnet101    # breakdown for any zoo network
    python -m repro profile alexnet      # wall-clock + simulated cycles
    python -m repro faults alexnet       # fault-rate + accumulator sweep
    python -m repro bench                # vectorized-vs-scalar benchmarks
    python -m repro explore alexnet      # design-space Pareto search
    python -m repro export alexnet --out results/   # CSV + JSON breakdown
    python -m repro faults alexnet --cache-dir ~/.repro-cache  # warm reruns
    python -m repro cache stats --cache-dir ~/.repro-cache # inspect it
    python -m repro serve --spool /tmp/spool --port 8765   # HTTP job server

``run``/``compare`` accept ``--json``/``--csv`` paths; ``profile`` and
``faults`` accept ``--json``. The JSON layout is the versioned
experiment envelope documented in docs/EXPERIMENTS.md. Unknown
experiment ids and networks exit with status 2 and print the available
choices. ``run``/``compare``/``profile``/``faults``/``bench``/``explore``
take ``--seed``, which the handler passes to its driver as ``seed=``;
without it each driver uses its own default (docs/FAULTS.md lists them).
No seed outlives the call. ``bench`` times the
vectorized hot paths against their ``slow_reference`` twins, writing a
versioned ``BENCH_<date>.json`` (docs/PERFORMANCE.md).

``explore`` (docs/EXPLORE.md) searches accelerator designs under an
``--budget`` area cap and emits the energy/cycles/accuracy Pareto
frontier as a ``repro.explore/v1`` envelope; it shares the resilience
and cache flags below.

Sweep-shaped verbs are **resumable** (docs/RESILIENCE.md): ``run
fig11/12/13``, ``compare``, ``faults`` and ``explore`` take ``--run-dir
DIR`` to checkpoint each cell of the sweep into ``DIR`` under a
manifest. ``--jobs N`` runs up to N cells at once, each in its own
supervised worker process; without ``--run-dir`` cells compute serially
in process. Each cell is supervised (``--timeout`` seconds per cell,
``--retries`` attempts with exponential backoff); a failing cell is recorded as a
structured CellError and rendered FAILED instead of aborting (exit
status 1 flags partial results). ``repro resume DIR`` re-executes only
the missing/failed cells and reassembles the final envelope
bit-identically to an uninterrupted run (``--no-verify`` skips the
artifact digest checks). ``export`` refuses to overwrite existing
artifacts unless ``--force`` is given.

Checkpointed sweeps are also **distributable** (docs/COORD.md): any
number of ``repro work DIR`` worker processes — one machine or many
sharing a filesystem — cooperatively drain the same run dir, claiming
cells via crash-safe lease files, renewing heartbeats while simulating,
and stealing cells whose owner died; ``repro status DIR`` shows the
per-cell record/lease/owner state. ``--lease-ttl``/``--heartbeat``
tune the protocol (validated at parse time: the TTL must exceed the
heartbeat interval, and any ``--timeout`` plus one heartbeat).

``repro serve`` (docs/SERVE.md) turns the simulator into a long-running
HTTP job service: ``POST /jobs`` accepts versioned ``repro.job/v1``
requests for the sweep-shaped verbs, each job materializes an ordinary
run dir under ``--spool`` (joinable by external ``repro work``
processes), and a killed server resumes unfinished jobs from the spool
on restart. Workers on *other machines* join with ``repro work
--connect http://host:port`` — no shared filesystem, cells travel over
the HTTP work-dispatch protocol (docs/REMOTE.md) — and ``repro status
--connect`` renders every job's per-cell table the same way; ``repro
serve --workers 0`` runs the server as a pure coordinator whose cells
are computed entirely by such remote workers. Both modes of ``repro
work`` run their cells through the same supervised pool, so
``--jobs``/``--timeout``/``--retries`` and the cache flags mean the
same in each; a flag of the other mode (``--lease-ttl``,
``--heartbeat``, ``--no-verify``, ``--json`` with ``--connect``;
``--linger``, ``--request-timeout`` without it) exits 2.

The cells worth persisting are additionally **memoized**
(docs/PERFORMANCE.md): fault cells and explore accuracy cells.
``run``/``compare``/``faults``/``bench``/``explore``/``resume`` take
``--cache-dir DIR`` to persist those cells content-addressed under DIR —
a repeat invocation with the same configuration replays them from the
cache and produces a byte-identical envelope. The cache has one tier,
that directory: without it (or with ``--no-cache``, which overrides
``--cache-dir`` and ``REPRO_CACHE_DIR``) every cell computes directly,
with no key, store or copy. The analytic breakdown cells of
``run``/``compare`` and explore's cost cells always compute directly:
their cycle models cost less than a cache lookup, so either flag leaves
them and their envelope unchanged. ``repro cache stats|clear|prune``
inspects and maintains the directory. Cache settings travel to
``--jobs`` workers via the ``REPRO_CACHE_DIR``/``REPRO_NO_CACHE``
environment variables, which the flags set for the length of one
``main()`` call.

Each verb imports its drivers inside its handler: ``repro --help``,
``repro list`` and usage errors import no numpy, and ``run fig11`` loads
the breakdown driver but not the server, explore or the supervisor
(docs/PERFORMANCE.md, "CLI start-up").
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

from .constants import (
    DEFAULT_HEARTBEAT_S,
    DEFAULT_LEASE_TTL_S,
    DEFAULT_RATES,
    DEFAULT_WIDTHS,
    FAULT_MODELS,
    MEMORY_TABLE,
    RECOVERY_POLICIES,
    STRATEGY_NAMES,
)
from .errors import ArtifactIntegrityError, ConfigError

__all__ = ["main", "EXPERIMENTS"]

#: Experiments that decompose into checkpointable cells (--run-dir).
SWEEPABLE = {"fig11": "alexnet", "fig12": "vgg16", "fig13": "resnet18"}


def _runner(name: str, *args: Any, seeded: bool = False) -> Callable[..., Any]:
    """A runner calling ``harness.experiments.<name>(*args)``; the module
    is imported when the runner is called, not when the table is built.
    A ``seeded`` runner passes the ``--seed`` it is called with on as
    ``seed=``; the others ignore it."""

    def run(seed: Optional[int]) -> Any:
        from .harness import experiments

        kwargs = {"seed": seed} if seeded else {}
        return getattr(experiments, name)(*args, **kwargs)

    return run


#: Experiment id -> (runner, description). Runners take the ``--seed``
#: value and return objects with ``format()``.
EXPERIMENTS: Dict[str, tuple] = {
    "fig1": (_runner("fig1_weight_distributions"), "weight distributions: fp vs linear vs OAQ"),
    "fig2": (_runner("fig2_accuracy_vs_ratio"), "accuracy vs outlier ratio (mini-AlexNet)"),
    "fig3": (_runner("fig3_accuracy_networks"), "4-bit OAQ accuracy across networks"),
    "tab1": (_runner("table1_configurations"), "ISO-area configurations"),
    "fig11": (_runner("breakdown_experiment", "alexnet"), "AlexNet cycle/energy breakdown"),
    "fig12": (_runner("breakdown_experiment", "vgg16"), "VGG-16 cycle/energy breakdown"),
    "fig13": (_runner("breakdown_experiment", "resnet18"), "ResNet-18 cycle/energy breakdown"),
    "fig14": (_runner("fig14_ratio_sweep"), "energy/cycles/accuracy vs outlier ratio"),
    "fig15": (_runner("fig15_scalability"), "multi-NPU scalability"),
    "fig16": (_runner("fig16_outlier_histogram"), "effective outlier-activation ratios"),
    "fig17": (
        _runner("fig17_multi_outlier", seeded=True), "multi-outlier probability vs group width"
    ),
    "fig18": (_runner("fig18_utilization"), "utilization breakdown per conv layer"),
    "fig19": (_runner("fig19_chunk_cycles", seeded=True), "per-chunk cycle distributions"),
}


def _unknown_network(network: str) -> int:
    print(
        f"unknown network {network!r}; available: {', '.join(sorted(MEMORY_TABLE))}",
        file=sys.stderr,
    )
    return 2


def _cmd_list(_: argparse.Namespace) -> int:
    width = max(len(name) for name in EXPERIMENTS)
    for name, (_, description) in EXPERIMENTS.items():
        print(f"{name.ljust(width)}  {description}")
    return 0


def _write_outputs(
    args: argparse.Namespace,
    envelopes: Dict[str, dict],
    csv_rows: List[dict],
    written: Optional[Path] = None,
) -> int:
    """Handle the shared ``--json``/``--csv`` flags; returns an exit code.

    ``written`` is a run dir's ``envelope.json``, the saved form of the
    one envelope: ``--json`` copies its bytes instead of encoding again.
    """
    from .harness.serialize import save_csv, save_json

    if getattr(args, "json", None):
        if written is not None:
            print(f"wrote {_copy_envelope(written, args.json)}")
        else:
            payload = next(iter(envelopes.values())) if len(envelopes) == 1 else envelopes
            print(f"wrote {save_json(payload, args.json)}")
    if getattr(args, "csv", None):
        if not csv_rows:
            print(
                "no per-layer rows to write as CSV (only breakdown-style "
                "experiments — fig11/12/13, compare — have them)",
                file=sys.stderr,
            )
            return 1
        print(f"wrote {save_csv(csv_rows, args.csv)}")
    return 0


def _copy_envelope(written: Path, path: str) -> Path:
    """Atomically copy a run dir's saved envelope to ``--json``'s path."""
    from .harness.serialize import atomic_write_text

    return atomic_write_text(Path(written).read_bytes().decode(), path)


def _retry_policy(args: argparse.Namespace):
    from .harness.resilience import RetryPolicy

    return RetryPolicy(
        max_attempts=getattr(args, "retries", 3),
        timeout_s=getattr(args, "timeout", None),
    )


def _run_sweep(plan, args: argparse.Namespace):
    """Execute one checkpointed sweep; returns (result, envelope, exit code)."""
    from .harness.resilience import execute_sweep

    try:
        result, envelope, _, _ = execute_sweep(
            plan,
            args.run_dir,
            jobs=getattr(args, "jobs", 1),
            retry=_retry_policy(args),
            lease_ttl=getattr(args, "lease_ttl", None),
            heartbeat_s=getattr(args, "heartbeat", None),
        )
    except ArtifactIntegrityError as exc:
        print(str(exc), file=sys.stderr)
        return None, None, 2
    return result, envelope, 1 if envelope["resilience"]["cells_failed"] else 0


def _cmd_run(args: argparse.Namespace) -> int:
    names: List[str] = list(EXPERIMENTS) if "all" in args.experiments else args.experiments
    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        print(
            f"unknown experiment(s): {', '.join(unknown)}; "
            f"available: {', '.join(EXPERIMENTS)}",
            file=sys.stderr,
        )
        return 2
    if getattr(args, "run_dir", None):
        if len(names) != 1 or names[0] not in SWEEPABLE:
            print(
                "--run-dir requires exactly one sweep-shaped experiment; "
                f"available: {', '.join(SWEEPABLE)}",
                file=sys.stderr,
            )
            return 2
        from .harness.resilience import RunDir, breakdown_plan
        from .harness.serialize import experiment_csv_rows

        name = names[0]
        _, description = EXPERIMENTS[name]
        plan = breakdown_plan(
            SWEEPABLE[name], seed=args.seed, experiment=name, description=description
        )
        result, envelope, code = _run_sweep(plan, args)
        if result is None:
            return code
        print(f"== {name} ==")
        print(result.format())
        print()
        write_code = _write_outputs(
            args,
            {name: envelope},
            experiment_csv_rows(result) if args.csv else [],
            RunDir(args.run_dir).envelope_path,
        )
        return code or write_code
    from .harness.serialize import experiment_csv_rows, experiment_envelope

    envelopes: Dict[str, dict] = {}
    csv_rows: List[dict] = []
    for name in names:
        runner, description = EXPERIMENTS[name]
        result = runner(args.seed)
        print(f"== {name} ==")
        print(result.format())
        print()
        if args.json:
            envelopes[name] = experiment_envelope(name, result, description)
        if args.csv:
            csv_rows.extend(experiment_csv_rows(result))
    return _write_outputs(args, envelopes, csv_rows)


def _cmd_ablations(args: argparse.Namespace) -> int:
    from .harness.ablations import run_all_ablations, sweep_group_size

    for result in run_all_ablations(args.network):
        print(result.format())
    print()
    print(sweep_group_size(args.network).format())
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    if args.network not in MEMORY_TABLE:
        return _unknown_network(args.network)
    from .harness.experiments import breakdown_experiment
    from .harness.serialize import experiment_csv_rows, experiment_envelope

    if getattr(args, "run_dir", None):
        from .harness.resilience import RunDir, breakdown_plan

        plan = breakdown_plan(args.network, ratio=args.ratio, seed=args.seed)
        result, envelope, code = _run_sweep(plan, args)
        if result is None:
            return code
        print(result.format())
        write_code = _write_outputs(
            args,
            {"compare": envelope},
            experiment_csv_rows(result) if args.csv else [],
            RunDir(args.run_dir).envelope_path,
        )
        return code or write_code
    result = breakdown_experiment(args.network, ratio=args.ratio)
    print(result.format())
    envelopes = {}
    if args.json:
        envelopes["compare"] = experiment_envelope(
            "compare", result, f"cycle/energy breakdown for {args.network}"
        )
    csv_rows = experiment_csv_rows(result) if args.csv else []
    return _write_outputs(args, envelopes, csv_rows)


def _cmd_profile(args: argparse.Namespace) -> int:
    if args.network not in MEMORY_TABLE:
        return _unknown_network(args.network)
    from .harness.profile import profile_network
    from .harness.serialize import experiment_envelope, save_json

    result = profile_network(
        args.network, ratio=args.ratio, event_sim_passes=args.passes, seed=args.seed
    )
    print(result.format())
    if args.json:
        print(f"wrote {save_json(experiment_envelope('profile', result.to_dict()), args.json)}")
    return 0


def _cmd_faults(args: argparse.Namespace) -> int:
    if args.network not in MEMORY_TABLE:
        return _unknown_network(args.network)
    from .harness.faults import fault_sweep
    from .harness.serialize import experiment_envelope, save_json

    if getattr(args, "run_dir", None):
        from .harness.resilience import RunDir, faults_plan

        plan = faults_plan(
            args.network,
            rates=tuple(args.rates),
            widths=tuple(args.widths),
            policy=args.policy,
            model=args.model,
            ratio=args.ratio,
            seed=args.seed,
        )
        result, envelope, code = _run_sweep(plan, args)
        if result is None:
            return code
        print(result.format())
        if args.json:
            print(f"wrote {_copy_envelope(RunDir(args.run_dir).envelope_path, args.json)}")
        return code
    result = fault_sweep(
        args.network,
        rates=tuple(args.rates),
        widths=tuple(args.widths),
        policy=args.policy,
        model=args.model,
        ratio=args.ratio,
        seed=args.seed,
    )
    print(result.format())
    if args.json:
        envelope = experiment_envelope(
            "faults", result, f"fault-rate + accumulator-width sweep for {args.network}"
        )
        print(f"wrote {save_json(envelope, args.json)}")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from .harness.bench import default_bench_path, run_benchmarks
    from .harness.serialize import experiment_envelope, save_json

    result = run_benchmarks(smoke=args.smoke, seed=args.seed)
    print(result.format())
    path = args.json or default_bench_path()
    envelope = experiment_envelope(
        "bench", result.to_dict(), "wall-clock hot-path benchmarks (vectorized vs slow_reference)"
    )
    print(f"wrote {save_json(envelope, path)}")
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    from .harness.simcache import CACHE_DIR_ENV, SimCache

    root = args.cache_dir or os.environ.get(CACHE_DIR_ENV)
    if not root:
        print(
            "no cache directory: pass --cache-dir or set REPRO_CACHE_DIR",
            file=sys.stderr,
        )
        return 2
    cache = SimCache(root=root)
    if args.action == "stats":
        stats = cache.stats()
        print(f"cache {stats['root']}: {stats['entries']} entries, {stats['bytes']} bytes")
        return 0
    if args.action == "clear":
        removed = cache.clear()
        print(f"removed {removed} entries from {root}")
        return 0
    # prune
    if args.max_bytes is None:
        print("cache prune requires --max-bytes N", file=sys.stderr)
        return 2
    removed, remaining = cache.prune(args.max_bytes)
    print(f"pruned {removed} entries; {remaining} bytes remain in {root}")
    return 0


def _cmd_explore(args: argparse.Namespace) -> int:
    if args.network not in MEMORY_TABLE:
        return _unknown_network(args.network)
    from .harness.explore import DesignSpace, ExploreRequest, explore_csv_rows, explore_run

    space_overrides = {
        "clusters": args.clusters,
        "groups": args.groups,
        "buffers_kib": args.buffers_kib,
        "ratios": args.ratios,
        "acc_bits": args.acc_bits,
        "act_bits": args.act_bits,
        "weight_bits": args.weight_bits,
    }
    space_doc = {name: values for name, values in space_overrides.items() if values}
    try:
        space = DesignSpace.from_dict(space_doc) if space_doc else DesignSpace()
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    request = ExploreRequest(
        network=args.network,
        budget_mm2=args.budget,
        strategy=args.strategy,
        samples=args.samples,
        eta=args.eta,
        screen_layers=args.screen_layers,
        max_candidates=args.max_candidates,
        accuracy=args.accuracy,
        accuracy_samples=args.accuracy_samples,
        seed=args.seed,
        space=space,
    )
    try:
        result, envelope = explore_run(
            request,
            run_dir=args.run_dir,
            jobs=args.jobs,
            retry=_retry_policy(args),
            lease_ttl=getattr(args, "lease_ttl", None),
            heartbeat_s=getattr(args, "heartbeat", None),
        )
    except (ArtifactIntegrityError, ConfigError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    print(result.format())
    written = None
    if args.run_dir:
        written = Path(args.run_dir) / "envelope.json"
        print(f"\nwrote {written}")
    code = 1 if result.failures else 0
    write_code = _write_outputs(
        args, {"explore": envelope}, explore_csv_rows(result) if args.csv else [], written
    )
    return code or write_code


def _drain_run_dir(args: argparse.Namespace, owner: str = None) -> int:
    """Shared body of ``repro resume`` and ``repro work``: drain a run
    dir (plain sweep or explore search) and report the result."""
    from .harness.explore import explore_resume, is_explore_run
    from .harness.resilience import RunDir, work_run

    if is_explore_run(args.run_dir):
        try:
            result, _ = explore_resume(
                args.run_dir,
                jobs=args.jobs,
                retry=_retry_policy(args),
                verify=not args.no_verify,
                lease_ttl=getattr(args, "lease_ttl", None),
                heartbeat_s=getattr(args, "heartbeat", None),
            )
        except (ArtifactIntegrityError, ConfigError) as exc:
            print(str(exc), file=sys.stderr)
            return 2
        print(result.format())
        written = Path(args.run_dir) / "envelope.json"
        print(f"\nwrote {written}")
        if args.json:
            print(f"wrote {_copy_envelope(written, args.json)}")
        return 1 if result.failures else 0
    try:
        result, envelope, _, _ = work_run(
            args.run_dir,
            jobs=args.jobs,
            retry=_retry_policy(args),
            verify=not args.no_verify,
            owner=owner,
            lease_ttl=getattr(args, "lease_ttl", None),
            heartbeat_s=getattr(args, "heartbeat", None),
        )
    except ArtifactIntegrityError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    print(result.format())
    written = RunDir(args.run_dir).envelope_path
    print(f"\nwrote {written}")
    if args.json:
        print(f"wrote {_copy_envelope(written, args.json)}")
    return 1 if envelope["resilience"]["cells_failed"] else 0


def _cmd_resume(args: argparse.Namespace) -> int:
    return _drain_run_dir(args)


def _cmd_work(args: argparse.Namespace) -> int:
    if bool(args.connect) == bool(args.run_dir):
        print(
            "error: repro work takes exactly one of RUN_DIR (shared "
            "filesystem) or --connect URL (remote server)",
            file=sys.stderr,
        )
        return 2
    # A flag of the other mode exits 2 instead of being silently ignored:
    # the server's lease document sets a remote claim's TTL and
    # heartbeat, and a remote worker has no local run dir or envelope.
    if args.connect:
        mode, others = "--connect URL", ("--lease-ttl", "--heartbeat", "--no-verify", "--json")
    else:
        mode, others = "RUN_DIR", ("--linger", "--request-timeout")
    given = [flag for flag in others if getattr(args, flag[2:].replace("-", "_")) is not None]
    if given:
        print(f"error: repro work {mode} does not take {', '.join(given)}", file=sys.stderr)
        return 2
    from .harness.coord import default_owner_id

    owner = default_owner_id()
    if args.connect:
        return _remote_work(args, owner)
    print(f"worker {owner} draining {args.run_dir}")
    return _drain_run_dir(args, owner=owner)


def _remote_work(args: argparse.Namespace, owner: str) -> int:
    """``repro work --connect``: drain a remote server's cells over HTTP
    with no shared filesystem (docs/REMOTE.md), through the same
    supervised pool as local sweeps."""
    from .errors import RemoteProtocolError
    from .harness.remote import RemoteClient, RemoteWorker

    try:
        client = RemoteClient(args.connect, timeout_s=args.request_timeout)
    except RemoteProtocolError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"worker {owner} connecting to {client.base_url}")
    worker = RemoteWorker(
        client,
        owner=owner,
        jobs=args.jobs,
        retry=_retry_policy(args),
        linger_s=args.linger,
    )
    return worker.run()


def _print_status(status: Dict, indent: str = "") -> None:
    """Render one run's per-cell table (shared by ``repro status`` on a
    local run dir and on each job of ``repro status --connect``)."""
    counts = status["counts"]
    print(
        f"{indent}run {status['run_id']}  plan={status['plan']}  "
        f"experiment={status['experiment']}  cells={counts['total']}  "
        f"envelope={'yes' if status['envelope'] else 'no'}"
    )
    width = max([len("cell")] + [len(c["cell_id"]) for c in status["cells"]])
    print(
        f"{indent}{'cell'.ljust(width)}  {'state':7}  {'attempts':8}  "
        "owner (token, heartbeats, elapsed)"
    )
    for cell in status["cells"]:
        attempts = "-" if cell["attempts"] is None else str(cell["attempts"])
        if cell["owner"] is None:
            lease = "-"
        else:
            lease = (
                f"{cell['owner']} (token {cell['token']}, "
                f"hb {cell['heartbeats']}, {cell['elapsed_s']:g}s)"
            )
        print(f"{indent}{cell['cell_id'].ljust(width)}  {cell['state']:7}  {attempts:8}  {lease}")
    print(
        f"{indent}{counts['ok']} ok, {counts['failed']} failed, "
        f"{counts['leased']} leased, {counts['pending']} pending"
    )


def _cmd_status(args: argparse.Namespace) -> int:
    if bool(args.connect) == bool(args.run_dir):
        print(
            "error: repro status takes exactly one of RUN_DIR or --connect URL",
            file=sys.stderr,
        )
        return 2
    if args.connect:
        return _remote_status(args)
    from .harness.resilience import status_run

    try:
        status = status_run(args.run_dir, verify=not args.no_verify)
    except ArtifactIntegrityError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    _print_status(status)
    return 0


def _remote_status(args: argparse.Namespace) -> int:
    """``repro status --connect``: every job's table over HTTP."""
    from .errors import RemoteProtocolError
    from .harness.remote import RemoteClient

    try:
        client = RemoteClient(args.connect, timeout_s=args.request_timeout, retries=1)
        code, doc = client.request("GET", "/status")
    except RemoteProtocolError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if code != 200:
        print(f"error: server answered {code}: {doc.get('message')}", file=sys.stderr)
        return 2
    jobs = doc.get("jobs") or []
    if not jobs:
        print("no jobs")
        return 0
    for entry in jobs:
        print(
            f"job {entry['job_id']}  state={entry['state']}  "
            f"verb={entry['verb']}  detail={entry.get('detail', '')}"
        )
        if entry.get("cells"):
            _print_status(entry["cells"], indent="  ")
        else:
            progress = entry.get("progress") or {}
            total = progress.get("cells_total")
            print(
                f"  {progress.get('cells_ok', 0)} ok, "
                f"{progress.get('cells_failed', 0)} failed, "
                f"{progress.get('cells_leased', 0)} leased of "
                f"{'?' if total is None else total} cells"
            )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    # Lazy import: the server pulls in asyncio plumbing no other verb needs.
    from .harness.serve import ServeConfig, serve_forever

    if not (0 <= args.port <= 65535):
        print(f"error: --port must be in [0, 65535], got {args.port}", file=sys.stderr)
        return 2
    config = ServeConfig(
        spool=Path(args.spool),
        host=args.host,
        port=args.port,
        workers=args.workers,
        queue_limit=args.queue_limit,
        job_timeout_s=args.job_timeout,
        cell_jobs=args.jobs,
        retries=args.retries,
        cell_timeout_s=args.cell_timeout,
        lease_ttl=getattr(args, "lease_ttl", None),
        heartbeat_s=getattr(args, "heartbeat", None),
        read_timeout_s=args.read_timeout,
    )
    return serve_forever(config)


def _cmd_export(args: argparse.Namespace) -> int:
    if args.network not in MEMORY_TABLE:
        return _unknown_network(args.network)
    from .harness.experiments import breakdown_experiment
    from .harness.serialize import run_stats_rows, save_csv, save_json

    csv_path = Path(args.out) / f"{args.network}_layers.csv"
    json_path = Path(args.out) / f"{args.network}_summary.json"
    existing = [str(p) for p in (csv_path, json_path) if p.exists()]
    if existing and not args.force:
        print(
            f"refusing to overwrite {', '.join(existing)}; pass --force to replace",
            file=sys.stderr,
        )
        return 2
    result = breakdown_experiment(args.network, ratio=args.ratio)
    rows = []
    for run in result.runs.values():
        rows.extend(run_stats_rows(run))
    csv_path = save_csv(rows, csv_path)
    json_path = save_json(
        {"cycles": result.normalized_cycles(), "energy": result.normalized_energy()},
        json_path,
    )
    print(f"wrote {csv_path} and {json_path}")
    return 0


def _add_output_flags(parser: argparse.ArgumentParser, csv: bool = True) -> None:
    parser.add_argument("--json", metavar="PATH", help="also write results as a JSON envelope")
    if csv:
        parser.add_argument("--csv", metavar="PATH", help="also write per-layer rows as CSV")


def _add_seed_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--seed", type=int, default=None, metavar="N",
        help="RNG seed passed to this verb's driver, for this call only: it seeds the "
        "fig17/fig19 Monte-Carlo draws, profile's event-sim micro-trace, the faults "
        "sweep's synthetic layer and fault plans, explore's random subsample and "
        "accuracy proxy, and bench's inputs; unset, each driver uses its own default. "
        "compare and run fig11-13 draw nothing random and only record it in the "
        "--run-dir manifest",
    )


def _checked(convert, accept, expected: str):
    """An argparse type: ``convert`` the text, then require ``accept(value)``.

    Either failure is rejected at parse time (exit 2) with
    ``expected <expected>, got '<text>'``.
    """

    def parse(text: str):
        try:
            value = convert(text)
        except (TypeError, ValueError):
            value = None
        if value is None or not accept(value):
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
        return value

    return parse


# Comparisons with nan are false, so each of these also rejects "nan".
_positive_int = _checked(int, lambda v: v >= 1, "a positive integer")
_nonneg_int = _checked(int, lambda v: v >= 0, "a non-negative integer")
_positive_float = _checked(float, lambda v: v > 0, "a positive number")
_fault_rate = _checked(float, lambda v: 0.0 <= v <= 1.0, "a fault rate in [0, 1]")
_accumulator_width = _checked(int, lambda v: v >= 2, "an accumulator width >= 2 bits")


def _add_jobs_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs", type=_positive_int, default=1, metavar="N",
        help="run up to N sweep cells at once, each in a supervised worker "
             "process, when cells are checkpointed (--run-dir, resume, work, "
             "serve); without a run dir cells compute serially (default 1)",
    )


def _add_cache_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--cache-dir", metavar="DIR", default=None,
        help="persist the cells worth persisting (fault and explore "
             "accuracy cells; analytic breakdown and explore cost cells "
             "always compute) "
             "content-addressed under DIR so repeat invocations replay "
             "them; shared safely by --jobs workers (docs/PERFORMANCE.md)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="ignore --cache-dir and REPRO_CACHE_DIR: every cell computes "
             "directly, as without a cache directory",
    )


def _apply_cache_flags(args: argparse.Namespace) -> Dict[str, Any]:
    """Publish the cache flags as environment variables for one call.

    Env vars (not direct plumbing) so forked *and* spawned ``--jobs``
    workers resolve the identical cache configuration, and so run-dir
    manifests/cell params stay byte-identical whether or not a cache is
    attached. Returns the values they replaced (``None``: unset), which
    :func:`main` puts back when the call ends, so a later call in the
    same process sees only its own flags.
    """
    cache_dir, no_cache = getattr(args, "cache_dir", None), getattr(args, "no_cache", False)
    if not (cache_dir or no_cache or "repro.harness.simcache" in sys.modules):
        return {}  # nothing to publish, and no resolved cache to drop
    from .harness.simcache import CACHE_DIR_ENV, NO_CACHE_ENV, set_active

    replaced = {}
    for name, value in ((CACHE_DIR_ENV, cache_dir), (NO_CACHE_ENV, no_cache and "1")):
        if value:
            replaced[name] = os.environ.get(name)
            os.environ[name] = str(value)
    set_active(None)
    return replaced


def _add_resilience_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--run-dir", metavar="DIR", default=None,
        help="checkpoint each sweep cell into DIR so the run can be "
             "resumed with `repro resume DIR` or drained by extra "
             "`repro work DIR` workers (docs/RESILIENCE.md, docs/COORD.md)",
    )
    parser.add_argument(
        "--timeout", type=float, default=None, metavar="S",
        help="per-cell timeout in seconds (checkpointed sweeps; default none)",
    )
    parser.add_argument(
        "--retries", type=_positive_int, default=3, metavar="N",
        help="max attempts per cell incl. the first, with exponential "
             "backoff between attempts (default 3)",
    )
    _add_lease_flags(parser)


def _add_lease_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--lease-ttl", type=_positive_float, default=None, metavar="S",
        help="seconds a cell lease may go unrenewed before other workers "
             f"steal it (default: max({DEFAULT_LEASE_TTL_S:g}, --timeout "
             "+ two heartbeats); docs/COORD.md)",
    )
    parser.add_argument(
        "--heartbeat", type=_positive_float, default=None, metavar="S",
        help="seconds between lease heartbeat renewals "
             f"(default {DEFAULT_HEARTBEAT_S:g})",
    )


def _lease_flag_error(args: argparse.Namespace) -> str:
    """The parse-time consistency check for the lease knobs.

    Returns an error message (exit 2) when an explicit ``--lease-ttl``
    cannot outlive a heartbeat interval, or a cell running up to its
    ``--timeout``: such a configuration would let live leases expire
    mid-cell by construction. The auto-scaled default TTL is always
    consistent, so only explicit values can be rejected.
    """
    ttl = getattr(args, "lease_ttl", None)
    if ttl is None:
        return ""
    heartbeat = getattr(args, "heartbeat", None)
    heartbeat = heartbeat if heartbeat is not None else DEFAULT_HEARTBEAT_S
    if ttl <= heartbeat:
        return (
            f"--lease-ttl ({ttl:g}s) must exceed the --heartbeat interval "
            f"({heartbeat:g}s): a lease would expire between renewals by "
            "construction"
        )
    timeout = getattr(args, "timeout", None)
    if timeout is not None and ttl <= timeout + heartbeat:
        return (
            f"--lease-ttl ({ttl:g}s) must exceed --timeout ({timeout:g}s) "
            f"plus one --heartbeat interval ({heartbeat:g}s), or a live "
            "lease could expire mid-cell; raise --lease-ttl or lower "
            "--timeout"
        )
    return ""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce the OLAccel (ISCA 2018) evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments").set_defaults(func=_cmd_list)

    run = sub.add_parser("run", help="run experiments by id (or 'all')")
    run.add_argument("experiments", nargs="+", help="experiment ids, e.g. fig11 tab1, or 'all'")
    _add_output_flags(run)
    _add_seed_flag(run)
    _add_jobs_flag(run)
    _add_resilience_flags(run)
    _add_cache_flags(run)
    run.set_defaults(func=_cmd_run)

    abl = sub.add_parser("ablations", help="design-choice ablations")
    abl.add_argument("--network", default="alexnet", choices=sorted(MEMORY_TABLE))
    abl.set_defaults(func=_cmd_ablations)

    cmp_ = sub.add_parser("compare", help="cycle/energy breakdown for one network")
    cmp_.add_argument("network", help=f"one of: {', '.join(MEMORY_TABLE)}")
    cmp_.add_argument("--ratio", type=float, default=0.03, help="outlier ratio (default 0.03)")
    _add_output_flags(cmp_)
    _add_seed_flag(cmp_)
    _add_jobs_flag(cmp_)
    _add_resilience_flags(cmp_)
    _add_cache_flags(cmp_)
    cmp_.set_defaults(func=_cmd_compare)

    prof = sub.add_parser("profile", help="wall-clock + simulated-cycle profile")
    prof.add_argument("network", help=f"one of: {', '.join(MEMORY_TABLE)}")
    prof.add_argument("--ratio", type=float, default=0.03, help="outlier ratio (default 0.03)")
    prof.add_argument(
        "--passes", type=int, default=512,
        help="event-sim micro-trace sample size (0 disables; default 512)",
    )
    _add_output_flags(prof, csv=False)
    _add_seed_flag(prof)
    prof.set_defaults(func=_cmd_profile)

    faults = sub.add_parser("faults", help="fault-rate + accumulator-width sweep")
    faults.add_argument("network", help=f"one of: {', '.join(MEMORY_TABLE)}")
    faults.add_argument(
        "--rates", type=_fault_rate, nargs="+", default=list(DEFAULT_RATES), metavar="R",
        help=f"fault rates to sweep (default {' '.join(str(r) for r in DEFAULT_RATES)})",
    )
    faults.add_argument(
        "--widths", type=_accumulator_width, nargs="+", default=list(DEFAULT_WIDTHS), metavar="W",
        help=f"accumulator widths to sweep (default {' '.join(str(w) for w in DEFAULT_WIDTHS)})",
    )
    faults.add_argument(
        "--policy", default="degrade", choices=RECOVERY_POLICIES,
        help="recovery policy for detected violations (default degrade)",
    )
    faults.add_argument(
        "--model", default="bitflip", choices=FAULT_MODELS,
        help="fault model (default bitflip)",
    )
    faults.add_argument("--ratio", type=float, default=0.03, help="outlier ratio (default 0.03)")
    _add_output_flags(faults, csv=False)
    _add_seed_flag(faults)
    _add_jobs_flag(faults)
    _add_resilience_flags(faults)
    _add_cache_flags(faults)
    faults.set_defaults(func=_cmd_faults)

    bench = sub.add_parser("bench", help="time vectorized hot paths vs slow_reference")
    bench.add_argument("--smoke", action="store_true", help="small inputs for CI smoke runs")
    _add_output_flags(bench, csv=False)
    _add_seed_flag(bench)
    _add_cache_flags(bench)
    bench.set_defaults(func=_cmd_bench)

    explore = sub.add_parser(
        "explore", help="Pareto search over accelerator designs under an area budget"
    )
    explore.add_argument("network", help=f"one of: {', '.join(MEMORY_TABLE)}")
    explore.add_argument(
        "--budget", type=float, default=None, metavar="MM2",
        help="area budget in mm^2 for datapath + swarm buffer "
             "(default: the Table I ISO-area point for the network)",
    )
    explore.add_argument(
        "--strategy", default="grid", choices=STRATEGY_NAMES,
        help="search strategy (default grid; docs/EXPLORE.md)",
    )
    explore.add_argument(
        "--samples", type=_positive_int, default=64, metavar="N",
        help="candidate count drawn by --strategy random (default 64)",
    )
    explore.add_argument(
        "--eta", type=_positive_int, default=4, metavar="N",
        help="halving keep fraction 1/N between rungs (default 4)",
    )
    explore.add_argument(
        "--screen-layers", type=_positive_int, default=2, metavar="K",
        help="conv layers simulated in the halving screen rung (default 2)",
    )
    explore.add_argument(
        "--max-candidates", type=_positive_int, default=None, metavar="N",
        help="hard cap on enumerated candidates (excess counts as pruned)",
    )
    explore.add_argument(
        "--accuracy", default="proxy", choices=["none", "proxy", "quant"],
        help="accuracy axis: none, proxy (deterministic SQNR, default), or "
             "quant (measured mini-model top-1; trains on first use)",
    )
    explore.add_argument(
        "--accuracy-samples", type=_positive_int, default=256, metavar="N",
        help="test samples for --accuracy quant (default 256)",
    )
    for dim, flag_help in (
        ("clusters", "PE-cluster counts to explore"),
        ("groups", "PE groups per cluster to explore"),
        ("buffers-kib", "swarm-buffer capacities (KiB) to explore"),
        ("acc-bits", "accumulator widths to explore"),
        ("act-bits", "normal activation widths to explore"),
        ("weight-bits", "normal weight widths to explore"),
    ):
        explore.add_argument(
            f"--{dim}", type=int, nargs="+", default=None, metavar="V",
            help=f"{flag_help} (default: the documented grid, docs/EXPLORE.md)",
        )
    explore.add_argument(
        "--ratios", type=float, nargs="+", default=None, metavar="R",
        help="outlier ratios to explore (default 0.01 0.03 0.05)",
    )
    _add_output_flags(explore)
    _add_seed_flag(explore)
    _add_jobs_flag(explore)
    _add_resilience_flags(explore)
    _add_cache_flags(explore)
    explore.set_defaults(func=_cmd_explore)

    resume = sub.add_parser(
        "resume", help="re-execute the missing/failed cells of a checkpointed sweep"
    )
    resume.add_argument("run_dir", metavar="RUN_DIR", help="run directory with a manifest.json")
    resume.add_argument(
        "--no-verify", action="store_true",
        help="skip artifact digest verification when reading checkpointed cells",
    )
    resume.add_argument("--json", metavar="PATH", help="also write the final envelope here")
    resume.add_argument(
        "--timeout", type=float, default=None, metavar="S",
        help="per-cell timeout in seconds (default none)",
    )
    resume.add_argument(
        "--retries", type=_positive_int, default=3, metavar="N",
        help="max attempts per cell incl. the first (default 3)",
    )
    _add_lease_flags(resume)
    _add_jobs_flag(resume)
    _add_cache_flags(resume)
    resume.set_defaults(func=_cmd_resume)

    work = sub.add_parser(
        "work",
        help="join a checkpointed sweep as an extra worker, claiming and "
             "stealing cells via crash-safe leases (docs/COORD.md), or a "
             "remote server via --connect (docs/REMOTE.md)",
    )
    work.add_argument(
        "run_dir", metavar="RUN_DIR", nargs="?", default=None,
        help="run directory with a manifest.json (omit with --connect)",
    )
    work.add_argument(
        "--connect", metavar="URL", default=None,
        help="claim cells from a running `repro serve` at URL over HTTP "
             "instead of a shared filesystem (docs/REMOTE.md)",
    )
    work.add_argument(
        "--request-timeout", type=_positive_float, default=None, metavar="S",
        help="--connect only: per-HTTP-request timeout (default 10)",
    )
    work.add_argument(
        "--linger", type=float, default=None, metavar="S",
        help="--connect only: keep polling an idle server this long "
             "before exiting 0 (default 0: exit on first idle answer)",
    )
    work.add_argument(
        "--no-verify", action="store_true", default=None,
        help="RUN_DIR only: skip artifact digest verification when reading "
             "checkpointed cells",
    )
    work.add_argument(
        "--json", metavar="PATH", help="RUN_DIR only: also write the final envelope here"
    )
    work.add_argument(
        "--timeout", type=float, default=None, metavar="S",
        help="per-cell timeout in seconds (default none)",
    )
    work.add_argument(
        "--retries", type=_positive_int, default=3, metavar="N",
        help="max attempts per cell incl. the first (default 3)",
    )
    _add_lease_flags(work)
    _add_jobs_flag(work)
    _add_cache_flags(work)
    work.set_defaults(func=_cmd_work)

    status = sub.add_parser(
        "status",
        help="per-cell completion and lease/owner state of a checkpointed "
             "sweep, locally or from a remote server via --connect",
    )
    status.add_argument(
        "run_dir", metavar="RUN_DIR", nargs="?", default=None,
        help="run directory with a manifest.json (omit with --connect)",
    )
    status.add_argument(
        "--connect", metavar="URL", default=None,
        help="render every job's table from a running `repro serve` at "
             "URL over HTTP (docs/REMOTE.md)",
    )
    status.add_argument(
        "--request-timeout", type=_positive_float, default=10.0, metavar="S",
        help="per-HTTP-request timeout for --connect (default 10)",
    )
    status.add_argument(
        "--no-verify", action="store_true",
        help="skip artifact digest verification when reading checkpointed cells",
    )
    status.set_defaults(func=_cmd_status)

    cache = sub.add_parser("cache", help="inspect or maintain a simcache directory")
    cache.add_argument("action", choices=["stats", "clear", "prune"],
                       help="stats: entry/byte totals; clear: delete all "
                            "entries; prune: evict LRU entries to --max-bytes")
    cache.add_argument(
        "--cache-dir", metavar="DIR", default=None,
        help="cache directory (default: $REPRO_CACHE_DIR)",
    )
    cache.add_argument(
        "--max-bytes", type=int, default=None, metavar="N",
        help="prune target: keep at most N bytes of entries",
    )
    cache.set_defaults(func=_cmd_cache)

    serve = sub.add_parser(
        "serve",
        help="run the HTTP job server: accept repro.job/v1 requests and "
             "drain them on the coordination substrate (docs/SERVE.md)",
    )
    serve.add_argument(
        "--spool", metavar="DIR", required=True,
        help="directory for job state and run dirs; rescanned on restart "
             "so accepted jobs survive a server crash",
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address (default 127.0.0.1)")
    serve.add_argument(
        "--port", type=int, default=8765, metavar="N",
        help="TCP port; 0 picks an ephemeral port, published in "
             "<spool>/serve.json (default 8765)",
    )
    serve.add_argument(
        "--workers", type=_nonneg_int, default=2, metavar="N",
        help="concurrent job drains (default 2); 0 = pure coordinator, "
             "cells are computed only by --connect workers (docs/REMOTE.md)",
    )
    serve.add_argument(
        "--read-timeout", type=_positive_float, default=10.0, metavar="S",
        help="whole-request read deadline; a request that stalls past it "
             "answers 408 (default 10)",
    )
    serve.add_argument(
        "--queue-limit", type=_positive_int, default=16, metavar="N",
        help="max QUEUED jobs before POST /jobs answers 429 (default 16)",
    )
    serve.add_argument(
        "--timeout", dest="job_timeout", type=_positive_float, default=None, metavar="S",
        help="per-job wall-clock timeout in seconds; a request's "
             "timeout_s overrides it (default none)",
    )
    serve.add_argument(
        "--cell-timeout", type=_positive_float, default=None, metavar="S",
        help="per-cell timeout inside each drain (default none)",
    )
    serve.add_argument(
        "--retries", type=_positive_int, default=3, metavar="N",
        help="max attempts per cell incl. the first (default 3)",
    )
    _add_lease_flags(serve)
    _add_jobs_flag(serve)
    _add_cache_flags(serve)
    serve.set_defaults(func=_cmd_serve)

    export = sub.add_parser("export", help="save a breakdown as CSV + JSON")
    export.add_argument("network", help=f"one of: {', '.join(MEMORY_TABLE)}")
    export.add_argument("--ratio", type=float, default=0.03)
    export.add_argument("--out", default="results", help="output directory (default ./results)")
    export.add_argument(
        "--force", action="store_true",
        help="overwrite existing output files (refused with exit 2 otherwise)",
    )
    export.set_defaults(func=_cmd_export)
    return parser


def main(argv: List[str] = None) -> int:
    args = build_parser().parse_args(argv)
    lease_error = _lease_flag_error(args)
    if lease_error:
        print(f"error: {lease_error}", file=sys.stderr)
        return 2
    replaced_env = _apply_cache_flags(args)
    try:
        return args.func(args)
    except KeyboardInterrupt:
        # Checkpointed sweeps have already terminated+joined their
        # workers and flushed completed cells; exit like a shell would.
        print("interrupted", file=sys.stderr)
        return 130
    finally:
        for name, value in replaced_env.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value
