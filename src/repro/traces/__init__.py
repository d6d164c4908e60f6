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

from repro._lazy import lazy_exports

__getattr__, __all__ = lazy_exports(__name__, {
    "repro.traces.trace": ("Trace", "TraceRequest"),
    "repro.traces.generator": ("SyntheticTraceGenerator",),
    "repro.traces.spec": ("SPEC_CPU2017", "spec_trace", "spec_benchmarks"),
    "repro.traces.parsec": ("PARSEC", "parsec_trace"),
    "repro.traces.io": ("load_trace", "save_trace"),
})
