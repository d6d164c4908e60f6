"""Physical layout of the ORAM tree in memory.

The data tree is laid out bucket-after-bucket in level order; each
bucket's slots are contiguous, so reshuffles enjoy row-buffer locality
while remote allocation's redirected accesses land in *other* buckets'
rows -- the row-hit degradation the paper cites as DR's main overhead
("it may incur a slight increase in memory block accesses due to lower
row buffer hit in DRAM DIMMs").

Bucket metadata lives in a separate region after the data tree, one or
more 64B lines per bucket.

Because AB-ORAM geometries are non-uniform, per-bucket byte offsets are
a prefix sum over per-level bucket sizes (vectorized; trees with
millions of buckets take milliseconds).
"""

from __future__ import annotations

import numpy as np

from repro.oram.config import OramConfig


class TreeLayout:
    """Where every slot and every metadata record lives in memory.

    Slot ``(b, s)`` is the 64B line at byte ``first_byte[b] + s *
    block_bytes``; line ``k`` of bucket ``b``'s metadata record is at
    byte ``meta_base + b * meta_stride + k * block_bytes``. The timed
    sink and the sealed store read these tables.
    """

    def __init__(
        self,
        cfg: OramConfig,
        metadata_blocks: int = 1,
    ) -> None:
        self.cfg = cfg
        self.metadata_blocks = metadata_blocks
        bucket_bytes = np.empty(cfg.n_buckets, dtype=np.int64)
        for lv in range(cfg.levels):
            lo = (1 << lv) - 1
            hi = (1 << (lv + 1)) - 1
            bucket_bytes[lo:hi] = cfg.geometry[lv].z_total * cfg.block_bytes
        #: Each bucket's first byte address (its slot 0).
        self.first_byte = np.zeros(cfg.n_buckets, dtype=np.int64)
        np.cumsum(bucket_bytes[:-1], out=self.first_byte[1:])
        self.data_bytes = int(bucket_bytes.sum())
        self.meta_base = self.data_bytes
        self.meta_stride = metadata_blocks * cfg.block_bytes
        self.meta_bytes = cfg.n_buckets * self.meta_stride
