"""Deterministic fault injection (``python -m repro faults``).

This package makes the robustness of the secure data path measurable,
the way :mod:`repro.perf` made its speed measurable:

- :mod:`repro.faults.plan` -- :class:`FaultPlan`, a seed-pinned
  description of *which* operations fail and *how*. Every draw is a
  pure hash of (seed, kind, operation index, bucket, slot), so a
  campaign replays bit-identically on any platform.
- :mod:`repro.faults.memory` -- :class:`FaultyMemory`, a wrapper over
  :class:`~repro.oram.datastore.EncryptedTreeStore` that injects bit
  flips, stale-read replays, dropped writes and transient backend
  outages, and attributes each detection to its injected fault.
- :mod:`repro.faults.campaign` -- the fault type x rate sweep behind
  ``python -m repro faults run``, producing ``BENCH_faults.json``.
- :mod:`repro.faults.schema` -- the report format and its rendering,
  declared as a :class:`repro.report.ReportSpec` (validation without
  third-party libraries). Not imported here: every ``FaultPlan`` user
  (the serving stack, the fleet) imports this package, and none of
  them needs the campaign's report machinery.
"""

from repro._lazy import lazy_exports

__getattr__, __all__ = lazy_exports(__name__, {
    "repro.faults.memory": ("FaultyMemory",),
    "repro.faults.plan": ("FAULT_KINDS", "TAMPER_KINDS", "FaultPlan"),
})
