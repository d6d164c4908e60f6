"""Workload substrate: synthetic SPEC CPU2017 / PARSEC memory traces.

The paper drives USIMM with Pin-collected traces of SPEC CPU2017 (and
PARSEC for the generalizability study). Those traces are proprietary;
per DESIGN.md section 4 we substitute generators parameterized by the
paper's own published per-benchmark read/write MPKI (its Table IV),
with zipf + stride locality over a private working set. The three
trace properties the ORAM schemes are sensitive to -- request rate,
read/write mix, and short-term reuse (stash hits) -- are reproduced;
everything else is randomized away by the ORAM itself.
"""

from repro.traces.trace import Trace, TraceRequest
from repro.traces.generator import SyntheticTraceGenerator
from repro.traces.spec import SPEC_CPU2017, spec_trace, spec_benchmarks
from repro.traces.parsec import PARSEC, parsec_trace, parsec_benchmarks
from repro.traces.io import load_trace, save_trace

__all__ = [
    "load_trace",
    "save_trace",
    "Trace",
    "TraceRequest",
    "SyntheticTraceGenerator",
    "SPEC_CPU2017",
    "spec_trace",
    "spec_benchmarks",
    "PARSEC",
    "parsec_trace",
    "parsec_benchmarks",
]
