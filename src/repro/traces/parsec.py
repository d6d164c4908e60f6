"""PARSEC workload models (the paper's generalizability study, Fig. 15).

The paper does not tabulate PARSEC MPKIs, so the values below are
calibrated from the PARSEC characterization literature (Bienia's
thesis): canneal and streamcluster are the memory-bound outliers,
swaptions/blackscholes are compute-bound, the rest sit in between. The
paper's point -- that AB-ORAM's space saving is application-independent
and its slowdown stays at DR~3% / AB~4% -- only needs this qualitative
spread of request rates, not exact rates.
"""

from __future__ import annotations

import zlib
from typing import Dict, Tuple

from repro.traces.generator import SyntheticTraceGenerator
from repro.traces.trace import Trace

#: name -> (read MPKI, write MPKI), calibrated (see module docstring).
PARSEC: Dict[str, Tuple[float, float]] = {
    "blackscholes": (0.3, 0.1),
    "bodytrack": (0.6, 0.2),
    "canneal": (12.5, 1.8),
    "dedup": (2.3, 1.6),
    "facesim": (3.1, 1.9),
    "ferret": (2.8, 0.9),
    "fluidanimate": (2.4, 1.3),
    "freqmine": (1.4, 0.5),
    "raytrace": (1.2, 0.3),
    "streamcluster": (9.8, 0.7),
    "swaptions": (0.2, 0.05),
    "vips": (1.7, 1.1),
}


def parsec_trace(
    name: str,
    n_oram_blocks: int,
    n_requests: int,
    seed: int = 0,
) -> Trace:
    """Synthesize the named PARSEC benchmark's trace."""
    if name not in PARSEC:
        raise KeyError(
            f"unknown PARSEC benchmark {name!r}; choose from {list(PARSEC)}"
        )
    read_mpki, write_mpki = PARSEC[name]
    gen = SyntheticTraceGenerator(n_oram_blocks=n_oram_blocks, seed=seed)
    return gen.generate(
        name,
        n_requests,
        read_mpki=read_mpki,
        write_mpki=write_mpki,
        suite="PARSEC",
        seed=seed ^ zlib.crc32(name.encode()),
    )
