"""One seed to rule the harness: the global ``--seed`` plumbing.

Every stochastic driver in the harness historically hard-coded its own
seed (``fig17`` used 0, ``fig19`` used 1, profiling 0), which kept runs
reproducible but made it impossible to re-roll an experiment without
editing code. The CLI's global ``--seed`` flag now funnels through this
module:

- :func:`set_global_seed` — called once by the CLI when ``--seed`` is
  given; stays ``None`` otherwise;
- :func:`resolve_seed` — the precedence rule every driver applies:
  an explicit ``seed=`` argument wins, else the global seed, else the
  driver's historical default — so library behaviour (and every
  deterministic test) is unchanged unless someone actually asks;
- :func:`get_rng` — the resolved seed as a ``numpy`` Generator.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:
    import numpy as np

__all__ = ["set_global_seed", "global_seed", "resolve_seed", "get_rng"]

_GLOBAL_SEED: Optional[int] = None


def set_global_seed(seed: Optional[int]) -> None:
    """Install (or clear, with ``None``) the process-wide default seed."""
    global _GLOBAL_SEED
    _GLOBAL_SEED = seed


def global_seed() -> Optional[int]:
    return _GLOBAL_SEED


def resolve_seed(seed: Optional[int] = None, default: int = 0) -> int:
    """Explicit argument > global ``--seed`` > the driver's own default."""
    if seed is not None:
        return seed
    if _GLOBAL_SEED is not None:
        return _GLOBAL_SEED
    return default


def get_rng(seed: Optional[int] = None, default: int = 0) -> np.random.Generator:
    """A Generator seeded by :func:`resolve_seed`'s precedence rule."""
    import numpy as np  # deferred: the CLI sets the seed before any verb needs numpy

    return np.random.default_rng(resolve_seed(seed, default))
