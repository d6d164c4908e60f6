"""Linear-scan ORAM: the trivial, information-theoretic baseline.

Before tree ORAMs, the textbook way to hide an access pattern was to
touch *everything*: each logical access reads and rewrites every block,
so the observable trace is identical for any access sequence -- perfect
obliviousness at O(N) cost per access.

The class earns its place in this library twice over:

1. **as an oracle**: it shares the block-device API of
   :class:`~repro.oram.ring.RingOram`, so differential tests replay
   one workload against both and require identical read results --
   catching any data-path bug in the far more intricate Ring ORAM;
2. **as the cost anchor**: Ring ORAM's O(log N) online accesses only
   mean something against the O(N) strawman, and the scan's per-access
   cost makes that gap concrete in benchmarks.
"""

from __future__ import annotations

from typing import Any, List, Optional

from repro.oram.stats import CountingSink, MemorySink, OpKind


class LinearScanOram:
    """Touch-everything ORAM over ``n_blocks`` logical blocks."""

    def __init__(
        self,
        n_blocks: int,
        sink: Optional[MemorySink] = None,
        block_bytes: int = 64,
        store_data: bool = True,
    ) -> None:
        if n_blocks < 1:
            raise ValueError("n_blocks must be >= 1")
        self.n_blocks = n_blocks
        self.block_bytes = block_bytes
        self.sink = sink if sink is not None else CountingSink(1)
        self._data: Optional[List[Any]] = (
            [None] * n_blocks if store_data else None
        )
        self.accesses = 0

    def access(self, block: int, write: bool = False, value: Any = None) -> Any:
        """One oblivious access: scan (read + rewrite) every block."""
        if not 0 <= block < self.n_blocks:
            raise ValueError(f"block {block} out of range [0, {self.n_blocks})")
        self.accesses += 1
        self.sink.begin_op(OpKind.READ_PATH)
        for i in range(self.n_blocks):
            # Every slot is read and rewritten so the memory cannot
            # tell which one mattered.
            item = ((0, i, 0, False, False),)
            self.sink.data_access_many(item, False)
            self.sink.data_access_many(item, True)
        if write and self._data is not None:
            self._data[block] = value
        result = self._data[block] if self._data is not None else None
        self.sink.end_op()
        return result

    def read(self, block: int) -> Any:
        return self.access(block, write=False)

    def write(self, block: int, value: Any) -> None:
        self.access(block, write=True, value=value)

    @property
    def accesses_per_request(self) -> int:
        """Memory touches per logical access (the O(N) in the flesh)."""
        return 2 * self.n_blocks
