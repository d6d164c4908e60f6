"""Simulation harness: trace -> ORAM controller -> DRAM timing.

- :mod:`repro.sim.engine` -- the :class:`DramSink` that turns a
  controller's access narration into DRAM timing; ``simulate``, which
  replays one trace against one scheme; and :class:`Simulation`, the
  stepwise (and picklable) form behind checkpoint/resume.
- :mod:`repro.sim.checkpoint` -- atomic checkpoint save/load for
  crash-resumable runs.
- :mod:`repro.sim.results` -- result records and aggregation
  (geometric means, time breakdowns).
- :mod:`repro.sim.runner` -- ``run_sims``, the one fan-out of
  simulated jobs, and the scheme x benchmark sweep drivers used by the
  figure benchmarks.
"""

from repro._lazy import lazy_exports

__getattr__, __all__ = lazy_exports(__name__, {
    "repro.sim.checkpoint": ("load_checkpoint", "save_checkpoint"),
    "repro.sim.engine": ("DramSink", "SimConfig", "Simulation", "simulate"),
    "repro.sim.results": ("SimResult", "geomean"),
    "repro.sim.runner": ("run_sims", "run_suite"),
})
