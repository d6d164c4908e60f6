"""AB-ORAM reproduction: adjustable buckets for space reduction in Ring ORAM.

A full-system reproduction of "AB-ORAM: Constructing Adjustable Buckets
for Space Reduction in Ring ORAM" (HPCA 2023): functional Ring ORAM and
Path ORAM controllers, the AB-ORAM dead-block-reclaim and non-uniform-S
schemes, a USIMM-style DRAM timing model, synthetic SPEC/PARSEC workload
generators, and a simulation harness regenerating every table and figure
of the paper's evaluation.

Entry points most users want::

    from repro import AbOram, schemes
    from repro.sim import simulate

    oram = AbOram.from_scheme("ab", levels=14)
    oram.write(0, b"hello")
    print(oram.read(0))
"""

from repro.core.ab_oram import AbOram, build_oram
from repro.core import schemes
from repro.oram.config import BucketGeometry, OramConfig
from repro.app.kvstore import ObliviousKV

__version__ = "1.0.0"

__all__ = [
    "AbOram",
    "build_oram",
    "schemes",
    "BucketGeometry",
    "OramConfig",
    "ObliviousKV",
    "__version__",
]
