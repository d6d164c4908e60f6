"""Synthetic memory-trace generation.

Produces block-granular LLC-miss streams with the locality structure
real workloads exhibit past the cache hierarchy:

- a private *working set* of ``WORKING_SET_FRACTION`` of the protected
  address space;
- *zipf-distributed* popularity with exponent ``ZIPF_ALPHA`` (hot
  blocks are re-touched; this is what produces ORAM stash hits);
- *stride runs*: with probability ``STRIDE_PROB`` the next request
  continues a sequential run of mean length ``STRIDE_RUN_MEAN``
  (streaming phases of compute kernels);
- a read/write mix taken from the benchmark's read/write MPKI split.

The generator is deterministic per (name, seed): two simulations of
different ORAM schemes replay byte-identical request streams, so their
timing difference is attributable to the scheme alone.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.traces.trace import Trace, TraceRequest

WORKING_SET_FRACTION = 0.5
ZIPF_ALPHA = 0.8
STRIDE_PROB = 0.35
STRIDE_RUN_MEAN = 8.0


class SyntheticTraceGenerator:
    """The workload-model trace factory."""

    def __init__(self, n_oram_blocks: int, seed: int = 0) -> None:
        if n_oram_blocks < 1:
            raise ValueError("n_oram_blocks must be >= 1")
        self.n_oram_blocks = n_oram_blocks
        self.working_set = max(1, int(n_oram_blocks * WORKING_SET_FRACTION))
        self.seed = seed

    def _zipf_cdf(self, n: int) -> np.ndarray:
        ranks = np.arange(1, n + 1, dtype=np.float64)
        weights = ranks ** (-ZIPF_ALPHA)
        cdf = np.cumsum(weights)
        return cdf / cdf[-1]

    def generate(
        self,
        name: str,
        n_requests: int,
        read_mpki: float,
        write_mpki: float,
        suite: str = "synthetic",
        seed: Optional[int] = None,
    ) -> Trace:
        """Materialize a trace of ``n_requests`` block requests."""
        if n_requests < 1:
            raise ValueError("n_requests must be >= 1")
        rng = np.random.default_rng(
            self.seed if seed is None else seed
        )
        # Rank -> block mapping scrambles the hot set across the space.
        perm = rng.permutation(self.n_oram_blocks)[: self.working_set]
        cdf = self._zipf_cdf(self.working_set)
        write_frac = write_mpki / (read_mpki + write_mpki)
        requests: List[TraceRequest] = []
        stride_left = 0
        cursor = 0
        while len(requests) < n_requests:
            if stride_left > 0:
                cursor = (cursor + 1) % self.working_set
                stride_left -= 1
            else:
                u = rng.random()
                cursor = int(np.searchsorted(cdf, u))
                if rng.random() < STRIDE_PROB:
                    stride_left = int(rng.geometric(1.0 / STRIDE_RUN_MEAN))
            block = int(perm[cursor])
            write = bool(rng.random() < write_frac)
            requests.append(TraceRequest(block=block, write=write))
        return Trace(
            name=name,
            requests=requests,
            read_mpki=read_mpki,
            write_mpki=write_mpki,
            suite=suite,
        )
