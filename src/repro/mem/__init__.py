"""USIMM-style DRAM timing substrate.

The paper evaluates with USIMM, a trace-driven cycle-accurate DRAM
simulator. This package provides the event-based equivalent (see
DESIGN.md section 4): per-bank open-row state with hit/miss timing from
DDR3-1600 parameters, per-channel data buses, and a first-ready
approximation of FR-FCFS. ORAM performance differences in the paper
come from access *counts* and row-buffer *locality* -- both are modelled
exactly; absolute cycle counts are not.

- :mod:`repro.mem.timing` -- DDR timing parameter sets.
- :mod:`repro.mem.address_map` -- physical address interleaving.
- :mod:`repro.mem.dram` -- the channel/bank timing model.
- :mod:`repro.mem.layout` -- ORAM tree -> physical address layout.
"""

from repro._lazy import lazy_exports

__getattr__, __all__ = lazy_exports(__name__, {
    "repro.mem.timing": ("DramTiming", "DDR3_1600"),
    "repro.mem.dram": ("DramModel", "DramStats"),
    "repro.mem.layout": ("TreeLayout",),
})
