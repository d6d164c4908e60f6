"""Physical address interleaving.

Maps a byte address onto (channel, bank, row, column) coordinates the
way USIMM's default address mapping does: cache lines are interleaved
across channels (so a path read spreads over all channels), columns of
one row are contiguous within a channel (so sequential lines in the
same bucket hit the open row), then banks, then rows.

Address bit layout, from least significant:

    [ line offset | channel | column | bank | row ]
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple


@dataclass(frozen=True)
class AddressMapping:
    """Channel/bank/row/column decomposition of byte addresses."""

    n_channels: int = 4
    n_banks: int = 16          # banks per channel (ranks folded in)
    row_bytes: int = 8192      # row-buffer size per bank
    line_bytes: int = 64

    def __post_init__(self) -> None:
        if self.n_channels < 1 or self.n_banks < 1:
            raise ValueError("need at least one channel and one bank")
        if self.row_bytes % self.line_bytes:
            raise ValueError("row_bytes must be a multiple of line_bytes")

    @property
    def lines_per_row(self) -> int:
        return self.row_bytes // self.line_bytes

    def decompose(self, byte_addr: int) -> Tuple[int, int, int, int]:
        """Return (channel, bank, row, column) of ``byte_addr``."""
        if byte_addr < 0:
            raise ValueError(f"negative address {byte_addr:#x}")
        line = byte_addr // self.line_bytes
        channel = line % self.n_channels
        rest = line // self.n_channels
        column = rest % self.lines_per_row
        rest //= self.lines_per_row
        bank = rest % self.n_banks
        row = rest // self.n_banks
        return channel, bank, row, column
