"""Correctness tests for the persistent simulation cache (``simcache``).

Covers the PR 5 cache guarantees: keys flip on every semantic input
(accelerator config, fault plan, code-version salt), corrupt entries
are structured misses that recompute rather than return wrong results,
default / cold / warm / ``--no-cache`` envelopes are byte-identical,
concurrent workers can share one cache directory, the ``simcache/*``
counters reconcile exactly, a warm fault sweep replays from disk without
recomputing, without a root nothing is keyed or stored, and the analytic
breakdown cells never touch the cache.
"""

from __future__ import annotations

import json
import multiprocessing
import os

import pytest

from repro.cli import main
from repro.harness.faults import fault_rate_cell, fault_sweep, fault_width_cell
from repro.harness.experiments import breakdown_experiment
from repro.harness.explore import Candidate, DesignSpace, ExploreRequest, explore_cell, explore_run
from repro.harness.resilience import canonical_envelope_bytes
from repro.harness.serialize import load_json
from repro.harness import simcache as simcache_mod
from repro.harness.simcache import (
    CACHE_DIR_ENV,
    CODE_VERSION,
    NO_CACHE_ENV,
    SIMCACHE_SCHEMA,
    SimCache,
    cache_key,
    get_active,
    set_active,
)
from repro.obs import Registry


@pytest.fixture(autouse=True)
def _isolated_cache_env():
    """Snapshot/restore the cache env vars and the process-wide pin.

    ``main()`` mutates ``REPRO_CACHE_DIR``/``REPRO_NO_CACHE``; every
    test starts and ends from a clean slate so ordering cannot leak
    state.
    """
    saved = {name: os.environ.get(name) for name in (CACHE_DIR_ENV, NO_CACHE_ENV)}
    set_active(None)
    yield
    for name, value in saved.items():
        if value is None:
            os.environ.pop(name, None)
        else:
            os.environ[name] = value
    set_active(None)


def _snap(obs: Registry, name: str) -> int:
    return obs.snapshot().get(f"simcache/{name}", 0)


# ---------------------------------------------------------------------------
# key schema
# ---------------------------------------------------------------------------


def test_cache_key_flips_on_every_component_and_salt():
    base = {
        "cell": "fault_rate",
        "network": "alexnet",
        "ratio": 0.03,
        "fault_plan": {"rate": 1e-3, "model": "bitflip", "seed": 0},
    }
    key = cache_key(base)
    assert key == cache_key(dict(base))  # deterministic
    for variant in (
        {**base, "network": "vgg16"},
        {**base, "ratio": 0.05},
        {**base, "fault_plan": {"rate": 1e-2, "model": "bitflip", "seed": 0}},
        {**base, "fault_plan": {"rate": 1e-3, "model": "stuck0", "seed": 0}},
        {**base, "fault_plan": {"rate": 1e-3, "model": "bitflip", "seed": 1}},
    ):
        assert cache_key(variant) != key
    # the code-version salt alone invalidates every entry
    assert cache_key(base, code_version=CODE_VERSION + "-next") != key


def test_explore_cells_bypass_the_cache(tmp_path):
    # explore cost cells compute directly: two candidates that differ
    # only in the accumulator width differ in energy, and an active
    # disk-backed cache sees no lookup and stores nothing
    obs = Registry()
    set_active(SimCache(root=tmp_path, obs=obs))
    try:
        wide, narrow = Candidate(8, 6, 384, 0.03, 24, 4, 4), Candidate(8, 6, 384, 0.03, 16, 4, 4)
        assert wide.accel_config() != narrow.accel_config()
        assert explore_cell("alexnet", wide) != explore_cell("alexnet", narrow)
        assert explore_cell("alexnet", wide) == explore_cell("alexnet", wide)
    finally:
        set_active(None)
    assert _snap(obs, "lookups") == 0
    assert _snap(obs, "stores") == 0
    assert not list(tmp_path.rglob("*.json"))


def test_fault_cells_key_on_the_full_fault_plan(tmp_path):
    obs = Registry()
    cache = SimCache(root=tmp_path, obs=obs)
    fault_rate_cell("alexnet", 0.0, cache=cache)
    fault_rate_cell("alexnet", 1e-3, cache=cache)            # rate flips
    fault_rate_cell("alexnet", 1e-3, seed=1, cache=cache)    # seed flips
    fault_rate_cell("alexnet", 1e-3, model="stuck0", cache=cache)
    fault_width_cell("alexnet", 24, cache=cache)             # accumulator key
    fault_width_cell("alexnet", 16, cache=cache)             # width flips
    assert _snap(obs, "misses") == 6
    assert _snap(obs, "hits") == 0
    fault_rate_cell("alexnet", 1e-3, cache=cache)
    fault_width_cell("alexnet", 24, cache=cache)
    assert _snap(obs, "hits") == 2
    assert _snap(obs, "misses") == 6


# ---------------------------------------------------------------------------
# integrity: corrupt entries are misses, never wrong results
# ---------------------------------------------------------------------------


def _single_entry_path(root):
    paths = [p for shard in root.iterdir() if shard.is_dir() for p in shard.glob("*.json")]
    assert len(paths) == 1
    return paths[0]


def test_corrupt_entry_warns_counts_and_recomputes(tmp_path):
    components = {"cell": "unit", "x": 1}
    first = SimCache(root=tmp_path)
    value = first.memoize(components, lambda: {"answer": 42})
    path = _single_entry_path(tmp_path)

    # torn write: truncate mid-document
    path.write_text(path.read_text()[:40])
    obs = Registry()
    fresh = SimCache(root=tmp_path, obs=obs)
    with pytest.warns(RuntimeWarning, match="integrity"):
        recomputed = fresh.memoize(components, lambda: {"answer": 42})
    assert recomputed == value == {"answer": 42}
    assert _snap(obs, "corrupt") == 1
    assert _snap(obs, "misses") == 1 and _snap(obs, "hits") == 0
    # the recompute re-stored a good entry; the next fresh cache hits
    assert _snap(obs, "stores") == 1
    assert SimCache(root=tmp_path).memoize(components, lambda: {"answer": -1}) == value


def test_flipped_payload_bit_fails_digest_verification(tmp_path):
    components = {"cell": "unit", "x": 2}
    SimCache(root=tmp_path).memoize(components, lambda: {"answer": 42})
    path = _single_entry_path(tmp_path)
    path.write_text(path.read_text().replace('"answer": 42', '"answer": 43'))
    obs = Registry()
    with pytest.warns(RuntimeWarning, match="integrity"):
        result = SimCache(root=tmp_path, obs=obs).memoize(
            components, lambda: {"answer": 42}
        )
    assert result == {"answer": 42}  # never the tampered 43
    assert _snap(obs, "corrupt") == 1


def test_wrong_schema_or_key_treated_as_corrupt(tmp_path):
    from repro.harness.serialize import save_json

    components = {"cell": "unit", "x": 3}
    cache = SimCache(root=tmp_path)
    cache.memoize(components, lambda: {"answer": 42})
    path = _single_entry_path(tmp_path)
    doc = load_json(path, verify=True)
    doc["schema"] = "repro.simcache/v0"
    save_json(doc, path)  # valid digest, wrong schema
    obs = Registry()
    with pytest.warns(RuntimeWarning, match="schema or key"):
        result = SimCache(root=tmp_path, obs=obs).memoize(
            components, lambda: {"answer": 42}
        )
    assert result == {"answer": 42}
    assert _snap(obs, "corrupt") == 1


# ---------------------------------------------------------------------------
# counters reconcile
# ---------------------------------------------------------------------------


def test_counters_reconcile_exactly(tmp_path):
    obs = Registry()
    cache = SimCache(root=tmp_path, obs=obs)
    for x in (1, 2, 1, 3, 2, 1):
        cache.memoize({"x": x}, lambda x=x: x * x)
    bypass = SimCache(root=None, obs=obs)
    for x in (1, 9):
        bypass.memoize({"x": x}, lambda x=x: x * x)
    snap = obs.snapshot()
    assert snap["simcache/lookups"] == 8
    assert snap["simcache/hits"] == 3
    assert snap["simcache/misses"] == 3
    assert snap["simcache/bypassed"] == 2
    assert snap["simcache/lookups"] == (
        snap["simcache/hits"] + snap["simcache/misses"] + snap["simcache/bypassed"]
    )
    assert snap["simcache/stores"] == 3


def test_hits_return_fresh_copies_never_aliases(tmp_path):
    cache = SimCache(root=tmp_path)
    first = cache.memoize({"x": 1}, lambda: {"nested": [1, 2]})
    first["nested"].append(99)
    second = cache.memoize({"x": 1}, lambda: {"nested": [1, 2]})
    assert second == {"nested": [1, 2]}


# ---------------------------------------------------------------------------
# maintenance: stats / clear / prune
# ---------------------------------------------------------------------------


def test_stats_clear_and_mtime_lru_prune(tmp_path):
    obs = Registry()
    cache = SimCache(root=tmp_path, obs=obs)
    for x in range(4):
        cache.memoize({"x": x}, lambda x=x: {"payload": "p" * 100, "x": x})
        path = cache.entry_path(cache.key({"x": x}))
        os.utime(path, (x + 1, x + 1))  # deterministic mtime order
    stats = cache.stats()
    assert stats["entries"] == 4 and stats["bytes"] > 0
    entry_bytes = stats["bytes"] // 4

    removed, remaining = cache.prune(max_bytes=entry_bytes * 2)
    assert removed == 2 and remaining <= entry_bytes * 2
    assert _snap(obs, "evictions") == 2
    # the two oldest mtimes went first
    assert not cache.entry_path(cache.key({"x": 0})).exists()
    assert not cache.entry_path(cache.key({"x": 1})).exists()
    assert cache.entry_path(cache.key({"x": 3})).exists()

    assert cache.clear() == 2
    assert cache.stats()["entries"] == 0


def test_cache_cli_verb(tmp_path, capsys):
    root = tmp_path / "cache"
    assert main(["faults", "alexnet", "--rates", "0", "--widths", "24",
                 "--cache-dir", str(root)]) == 0
    assert main(["cache", "stats", "--cache-dir", str(root)]) == 0
    out = capsys.readouterr().out
    assert "2 entries" in out
    assert main(["cache", "prune", "--cache-dir", str(root), "--max-bytes", "0"]) == 0
    assert main(["cache", "stats", "--cache-dir", str(root)]) == 0
    assert "0 entries" in capsys.readouterr().out
    assert main(["cache", "stats"]) == 2  # no dir anywhere → usage error


# ---------------------------------------------------------------------------
# envelope byte-identity: default == cold == warm == --no-cache
# ---------------------------------------------------------------------------


def test_cold_warm_and_nocache_envelopes_byte_identical(tmp_path):
    root = tmp_path / "cache"
    args = ["faults", "alexnet", "--rates", "0", "1e-3", "--widths", "24"]
    envelopes = {}
    for label, extra in (
        ("default", []),
        ("cold", ["--cache-dir", str(root)]),
        ("warm", ["--cache-dir", str(root)]),
        ("nocache", ["--no-cache"]),
    ):
        out = tmp_path / f"{label}.json"
        assert main(args + extra + ["--json", str(out)]) == 0
        envelopes[label] = canonical_envelope_bytes(load_json(out))
    assert (
        envelopes["default"] == envelopes["cold"] == envelopes["warm"] == envelopes["nocache"]
    )


def test_each_call_flags_win_over_an_earlier_call(tmp_path):
    # main() publishes its cache flags as env vars for --jobs workers
    # and puts them back on return, so a later in-process call does not
    # inherit what an earlier one set
    root = tmp_path / "cache"
    args = ["faults", "alexnet", "--rates", "0", "1e-3", "--widths", "24"]
    assert main(args + ["--no-cache", "--json", str(tmp_path / "a.json")]) == 0
    assert main(args + ["--cache-dir", str(root), "--json", str(tmp_path / "b.json")]) == 0
    assert SimCache(root=root).stats()["entries"] == 3
    more = ["faults", "alexnet", "--rates", "1e-2", "--widths", "16"]
    assert main(more + ["--json", str(tmp_path / "c.json")]) == 0  # no flag: no cache
    assert SimCache(root=root).stats()["entries"] == 3
    assert CACHE_DIR_ENV not in os.environ and NO_CACHE_ENV not in os.environ


def _sweep_and_search():
    """A fault sweep and a small explore search on the active cache."""
    sweep = fault_sweep("alexnet", rates=(0.0, 1e-3), widths=(24,), seed=0)
    space = DesignSpace(
        clusters=(4, 8), groups=(6,), buffers_kib=(96,), ratios=(0.01,),
        acc_bits=(16,), act_bits=(4, 8), weight_bits=(4,),
    )
    result, _ = explore_run(ExploreRequest(network="alexnet", seed=7, space=space))
    return sweep.rate_rows, sweep.width_rows, result.evaluated, result.frontier


def test_without_a_root_nothing_is_keyed_or_stored(tmp_path, monkeypatch):
    # no --cache-dir: every cell computes directly, with no key and no
    # file, and the rows equal a disk-rooted run's
    keyed = []
    real = simcache_mod.cache_key
    monkeypatch.setattr(
        simcache_mod, "cache_key", lambda *args, **kw: keyed.append(1) or real(*args, **kw)
    )
    workdir = tmp_path / "cwd"
    workdir.mkdir()
    monkeypatch.chdir(workdir)
    obs = Registry()
    set_active(SimCache(obs=obs))
    rows = _sweep_and_search()
    assert keyed == []
    assert _snap(obs, "lookups") == _snap(obs, "bypassed") > 0
    assert _snap(obs, "stores") == 0
    assert list(tmp_path.rglob("*")) == [workdir]

    set_active(SimCache(root=tmp_path / "cache"))
    assert _sweep_and_search() == rows
    assert keyed


# ---------------------------------------------------------------------------
# concurrency: --jobs workers share one cache directory
# ---------------------------------------------------------------------------


def _race_worker(args):
    root, rate = args
    cache = SimCache(root=root)
    return fault_rate_cell("alexnet", rate, cache=cache)


def test_concurrent_writers_share_a_cache_dir(tmp_path):
    # four processes race to compute and store the SAME cell; atomic
    # temp+fsync+rename writes mean the entry is always whole
    ctx = multiprocessing.get_context("fork")
    with ctx.Pool(4) as pool:
        rows = pool.map(_race_worker, [(str(tmp_path), 1e-3)] * 4)
    assert all(row == rows[0] for row in rows)
    # the stored entry verifies and serves a fresh process as a hit
    obs = Registry()
    served = SimCache(root=tmp_path, obs=obs).memoize(
        {"cell": "fault_rate", "network": "alexnet", "ratio": 0.03,
         "case": {"in_c": 32, "out_c": 32, "kernel": 3, "size": 8, "batch": 2},
         "fault_plan": {"rate": 1e-3, "model": "bitflip", "seed": 0},
         "policy": "degrade"},
        lambda: pytest.fail("warm lookup must not recompute"),
    )
    assert served == rows[0]
    assert _snap(obs, "hits") == 1


def test_jobs_workers_resolve_cache_from_env(tmp_path):
    # the CLI propagates --cache-dir via REPRO_CACHE_DIR; worker
    # processes resolve it through get_active()
    os.environ[CACHE_DIR_ENV] = str(tmp_path)
    os.environ.pop(NO_CACHE_ENV, None)
    assert get_active().root == tmp_path
    os.environ[NO_CACHE_ENV] = "1"
    assert get_active().root is None  # env change re-resolves


# ---------------------------------------------------------------------------
# the headline: a warm sweep replays without recomputing
# ---------------------------------------------------------------------------


def test_warm_fault_sweep_replays_without_recompute(tmp_path):
    """Counters, not wall clock, prove the warm pass computed nothing;
    CI's ``bench-smoke`` job gates the ``simcache_warm_sweep`` case's
    speedup ratio (``tools/bench_compare.py``), not a tier-1 test."""
    rates = (1e-3, 1e-2)
    cold = [fault_rate_cell("alexnet", rate, cache=SimCache(root=tmp_path)) for rate in rates]
    obs = Registry()
    cache = SimCache(root=tmp_path, obs=obs)  # fresh: every hit is a verified disk read
    warm = [fault_rate_cell("alexnet", rate, cache=cache) for rate in rates]
    assert warm == cold
    assert _snap(obs, "hits") == len(rates)
    assert _snap(obs, "misses") == 0


# ---------------------------------------------------------------------------
# breakdown cells compute directly: no lookup, no entry, same result
# ---------------------------------------------------------------------------


def test_breakdown_cells_bypass_the_cache(tmp_path):
    from repro.harness.experiments import ALL_ACCELERATORS, _simulator
    from repro.harness.workloads import MEMORY_TABLE, paper_workload

    obs = Registry()
    set_active(SimCache(root=tmp_path, obs=obs))
    for network in MEMORY_TABLE:  # the five paper networks
        runs = breakdown_experiment(network).runs
        workload = paper_workload(network, ratio=0.03)
        for kind in ALL_ACCELERATORS:
            plain = _simulator(kind, network, 0.03).simulate_network(workload).to_dict()
            assert runs[kind].to_dict() == plain, (network, kind)
    assert _snap(obs, "lookups") == 0
    assert _snap(obs, "stores") == 0
    assert SimCache(root=tmp_path).stats()["entries"] == 0
