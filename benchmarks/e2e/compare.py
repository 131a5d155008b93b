"""Compare benchmark runs against a baseline, metric by metric.

Run from the repository root on reports written by ``run.py --json``::

    python benchmarks/e2e/compare.py BASE NEW [NEW ...]

Each of BASE and NEW is one report or a directory of reports, one per
run, e.g. ten runs with different ``--seed``. Every NEW is compared with
BASE. For each (end-to-end metric, workload) it prints the median and
quartiles of the runs on both sides and a verdict against the metric's
bound in BENCHMARK.json:

- ``unresolved`` — either side's quartile spread (as a share of its
  median) is wider than the bound, and not every new run beats every
  baseline run;
- ``regressed`` / ``improved`` — the new median is worse / better than
  the baseline's by more than the bound;
- ``unchanged`` — otherwise.

Exits 1 if any pair regressed.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Sequence, Tuple


def load_runs(path: Path) -> List[Dict]:
    paths = sorted(path.glob("*.json")) if path.is_dir() else [path]
    return [json.loads(p.read_text()) for p in paths]


def summary(values: Sequence[float]) -> Tuple[float, float, float]:
    """(median, first quartile, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def verdict(base: Sequence[float], new: Sequence[float], better: str, bound: float) -> Tuple[str, float]:
    """The verdict and the signed relative change of the new median."""
    b_med, b_q1, b_q3 = summary(base)
    n_med, n_q1, n_q3 = summary(new)
    change = (n_med - b_med) / b_med if b_med else 0.0
    gain = -change if better == "lower" else change
    spread = max((b_q3 - b_q1) / b_med if b_med else 0.0, (n_q3 - n_q1) / n_med if n_med else 0.0)
    if spread > bound:
        dominates = max(new) < min(base) if better == "lower" else min(new) > max(base)
        return ("improved" if dominates else "unresolved"), change
    if gain < -bound:
        return "regressed", change
    if gain > bound:
        return "improved", change
    return "unchanged", change


def values(runs: List[Dict], workload: str, metric: str) -> List[float]:
    return [
        run["workloads"][workload]["metrics"][metric]["value"]
        for run in runs
        if metric in run["workloads"].get(workload, {}).get("metrics", {})
    ]


def main(argv: List[str]) -> int:
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(Path("BENCHMARK.json").read_text())
    base = load_runs(Path(argv[0]))
    workloads = [w["name"] for w in spec["workloads"]]
    regressed = False
    for path in argv[1:]:
        new = load_runs(Path(path))
        print(f"== {path} ({len(new)} runs) vs {argv[0]} ({len(base)} runs)")
        print(f"{'workload':20} {'metric':16} {'base median [q1, q3]':>34} {'new median [q1, q3]':>34} {'change':>8}  verdict")
        for workload in workloads:
            for metric in spec["end_to_end"]:
                b, n = values(base, workload, metric["name"]), values(new, workload, metric["name"])
                if not b or not n:
                    continue
                result, change = verdict(b, n, metric["better"], metric["bound"])
                regressed |= result == "regressed"
                (bm, bq1, bq3), (nm, nq1, nq3) = summary(b), summary(n)
                unit = metric["unit"]
                print(
                    f"{workload:20} {metric['name']:16} {bm:12.4g} [{bq1:.4g}, {bq3:.4g}] {unit:>5}"
                    f" {nm:12.4g} [{nq1:.4g}, {nq3:.4g}] {unit:>5} {change * 100:+7.2f}%  {result}"
                )
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
