"""Fixed-seed smoke sample of the differential datapath fuzzer.

``tools/fuzz_datapath.py`` stays the high-volume standalone entry point
(CI runs it at 200 iterations); this test keeps a small deterministic
sample of the same properties inside the tier-1 suite so a datapath,
struck-word decode or swarm-validation regression is caught by
``pytest`` alone.

Each iteration draws its case from an independent ``default_rng([SEED,
i])`` stream and strikes its weight words with ``fault_seed=i``, so a
failure message's ``(iteration, seed)`` pair is enough to reproduce that
exact case in isolation.
"""

from __future__ import annotations

import pathlib
import sys

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "tools"))

from fuzz_datapath import check_case, random_case  # noqa: E402

SEED = 20260805
ITERATIONS = 25


def test_fuzz_smoke_three_way_agreement():
    failures = []
    for i in range(ITERATIONS):
        rng = np.random.default_rng([SEED, i])
        acts, weights, stride, pad = random_case(rng)
        error = check_case(acts, weights, stride, pad, fault_seed=i)
        if error:
            failures.append(
                f"iteration={i} seed={SEED} "
                f"(reproduce: random_case(np.random.default_rng([{SEED}, {i}])), fault_seed={i}): {error}"
            )
    assert not failures, "\n".join(failures)
