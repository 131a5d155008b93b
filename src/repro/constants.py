"""Numpy-free constants behind the CLI's choices and defaults.

``repro --help``, ``repro list`` and usage errors (an unknown network,
an unknown ``--strategy``) must answer without importing numpy, so every
value the argument parser prints or validates against lives here once.
The modules that use them re-export the same objects:
``harness.workloads`` (``MEMORY_TABLE``), ``harness.faults``
(``DEFAULT_RATES``/``DEFAULT_WIDTHS``), ``faults.plan``
(``FAULT_MODELS``), ``faults.validate`` (``RECOVERY_POLICIES``) and
``harness.coord`` (the lease defaults), and ``FaultPlan`` and
``AccumulatorModel`` check the bounds below. Like :mod:`repro.errors`,
this module depends on nothing.
"""

from __future__ import annotations

from typing import Dict, Tuple

__all__ = [
    "MEMORY_TABLE",
    "DEFAULT_RATES",
    "DEFAULT_WIDTHS",
    "FAULT_MODELS",
    "FAULT_RATE_RANGE",
    "MIN_ACCUMULATOR_BITS",
    "RECOVERY_POLICIES",
    "DEFAULT_LEASE_TTL_S",
    "DEFAULT_HEARTBEAT_S",
    "STRATEGY_NAMES",
    "ACCURACY_MODES",
]

#: Table I on-chip activation memory per network: (16-bit, 8-bit) bytes.
#: The deeper extension networks reuse the VGG/ResNet-18 budget. Its keys
#: are the networks every network-taking verb accepts.
MEMORY_TABLE: Dict[str, Tuple[int, int]] = {
    "alexnet": (393 * 1024, 196 * 1024),
    "vgg16": (4800 * 1024, 2400 * 1024),
    "resnet18": (4800 * 1024, 2400 * 1024),
    "resnet101": (4800 * 1024, 2400 * 1024),
    "densenet121": (4800 * 1024, 2400 * 1024),
}

#: Default per-word strike probabilities swept by ``repro faults``.
DEFAULT_RATES = (0.0, 1e-4, 1e-3, 1e-2)
#: Default accumulator widths swept (paper's 24-bit in the middle).
DEFAULT_WIDTHS = (16, 20, 24, 32)

#: Supported fault models.
FAULT_MODELS = ("bitflip", "stuck0", "stuck1", "burst")

#: Closed range of a per-word strike probability (``FaultPlan.rate``).
FAULT_RATE_RANGE = (0.0, 1.0)
#: Narrowest signed accumulator (``AccumulatorModel.width_bits``).
MIN_ACCUMULATOR_BITS = 2

#: Recovery policies, in docs order.
RECOVERY_POLICIES = ("raise", "degrade", "skip")

#: Default seconds a lease may go unrenewed before other workers steal
#: the cell. When a per-cell ``--timeout`` is set, the effective default
#: scales to cover it (see ``effective_lease_ttl``).
DEFAULT_LEASE_TTL_S = 30.0
#: Default seconds between heartbeat renewals of a held lease.
DEFAULT_HEARTBEAT_S = 2.0

#: Names of the built-in ``repro explore --strategy`` search strategies;
#: ``harness.explore`` registers one strategy class under each.
STRATEGY_NAMES = ("grid", "halving", "random")

#: ``repro explore --accuracy`` modes; ``ExploreRequest`` refuses others.
ACCURACY_MODES = ("none", "proxy", "quant")
