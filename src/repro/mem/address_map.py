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

from typing import Tuple

N_CHANNELS = 4
N_BANKS = 16          # banks per channel (ranks folded in)
ROW_BYTES = 8192      # row-buffer size per bank
LINE_BYTES = 64
LINES_PER_ROW = ROW_BYTES // LINE_BYTES


def decompose(byte_addr: int) -> Tuple[int, int, int, int]:
    """Return (channel, bank, row, column) of ``byte_addr``."""
    if byte_addr < 0:
        raise ValueError(f"negative address {byte_addr:#x}")
    line = byte_addr // LINE_BYTES
    channel = line % N_CHANNELS
    rest = line // N_CHANNELS
    column = rest % LINES_PER_ROW
    rest //= LINES_PER_ROW
    bank = rest % N_BANKS
    row = rest // N_BANKS
    return channel, bank, row, column
