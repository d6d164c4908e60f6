"""Simulation harness: trace -> ORAM controller -> DRAM timing.

- :mod:`repro.sim.engine` -- the :class:`DramSink` that turns a
  controller's access narration into DRAM timing; ``simulate``, which
  replays one trace against one scheme; and :class:`Simulation`, the
  stepwise (and picklable) form behind checkpoint/resume.
- :mod:`repro.sim.checkpoint` -- atomic checkpoint save/load for
  crash-resumable runs.
- :mod:`repro.sim.results` -- result records and aggregation
  (geometric means, time breakdowns).
- :mod:`repro.sim.runner` -- scheme x benchmark sweep drivers used by
  the figure benchmarks.
"""

from repro.sim.checkpoint import load_checkpoint, save_checkpoint
from repro.sim.engine import DramSink, SimConfig, Simulation, simulate
from repro.sim.results import SimResult, geomean
from repro.sim.runner import run_suite

__all__ = [
    "DramSink",
    "SimConfig",
    "Simulation",
    "simulate",
    "save_checkpoint",
    "load_checkpoint",
    "SimResult",
    "geomean",
    "run_suite",
]
