"""Fault injection, chunk-integrity validation and graceful degradation.

The subsystem has four parts (see docs/FAULTS.md):

- :mod:`repro.faults.plan` — deterministic seeded fault injectors
  (:class:`FaultPlan`: bit-flip / stuck-at / burst) striking packed
  weight words, activation streams, swarm entries and memory transfers;
- :mod:`repro.faults.validate` — chunk-invariant audits with the three
  recovery policies (``raise`` / ``degrade`` / ``skip``);
- :mod:`repro.faults.accumulator` — configurable-width partial-sum
  accumulators (``saturate`` / ``wrap`` / ``infinite``) and the
  guaranteed-overflow-avoidance width bound;
- :mod:`repro.faults.datapath` — the end-to-end harness tying them into
  the OLAccel conv datapath against the golden reference.

The error taxonomy these raise lives in :mod:`repro.errors` (kept out of
this package so ``repro.arch`` can use it without an import cycle).
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".accumulator": ("ACC_MODES", "AccumulatorModel", "required_accumulator_bits"),
        ".datapath": ("FaultInjectionResult", "corrupt_packed_weights", "faulty_olaccel_conv2d"),
        ".plan": ("FAULT_MODELS", "FAULT_SURFACES", "FaultPlan"),
        ".validate": ("RECOVERY_POLICIES", "validate_packed", "validate_swarm"),
    },
)
