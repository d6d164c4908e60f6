"""SPEC CPU2017 workload models.

The per-benchmark read/write MPKI values are the paper's own Table IV
(its Pin measurements over 40M-access traces); the synthetic generator
turns them into request streams. Benchmarks whose read and write MPKI
are both reported as 0/0.0x are floored at 0.01 MPKI so the request
rate stays defined (the paper's `lee` row is 0.01/0.01).
"""

from __future__ import annotations

import zlib
from typing import Dict, List, Tuple

from repro.traces.generator import SyntheticTraceGenerator
from repro.traces.trace import Trace

#: name -> (read MPKI, write MPKI); verbatim from the paper's Table IV.
SPEC_CPU2017: Dict[str, Tuple[float, float]] = {
    # integer
    "gcc": (0.1, 0.5),
    "mcf": (28.2, 0.2),
    "omn": (0.3, 0.06),
    "xal": (0.1, 0.2),
    "x264": (1.6, 2.1),
    "dee": (0.01, 14.7),
    "xz": (0.01, 15.5),
    "lee": (0.01, 0.01),
    # floating point
    "bwa": (0.01, 4.1),
    "lbm": (0.01, 15.3),
    "wrf": (0.1, 1.0),
    "cam": (0.01, 7.1),
    "ima": (0.2, 2.1),
    "fot": (0.03, 1.56),
    "rom": (0.01, 13.7),
    "nab": (0.1, 0.2),
    "cac": (0.01, 5.4),
}


def spec_benchmarks() -> List[str]:
    """Benchmark names in the paper's Table IV order."""
    return list(SPEC_CPU2017)


def spec_trace(
    name: str,
    n_oram_blocks: int,
    n_requests: int,
    seed: int = 0,
) -> Trace:
    """Synthesize the named SPEC benchmark's trace."""
    if name not in SPEC_CPU2017:
        raise KeyError(
            f"unknown SPEC benchmark {name!r}; choose from {spec_benchmarks()}"
        )
    read_mpki, write_mpki = SPEC_CPU2017[name]
    gen = SyntheticTraceGenerator(n_oram_blocks=n_oram_blocks, seed=seed)
    return gen.generate(
        name,
        n_requests,
        read_mpki=read_mpki,
        write_mpki=write_mpki,
        suite="SPEC CPU2017",
        seed=seed ^ zlib.crc32(name.encode()),
    )
