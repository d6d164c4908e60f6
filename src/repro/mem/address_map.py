"""Physical address interleaving.

Maps a byte address onto (channel, bank, row, column) coordinates the
way USIMM's default address mapping does: cache lines are interleaved
across channels (so a path read spreads over all channels), columns of
one row are contiguous within a channel (so sequential lines in the
same bucket hit the open row), then banks, then rows.

Address bit layout, from least significant:

    [ line offset | channel | column | bank | row ]

Every field is a power of two, so the DRAM model decodes a cache-line
number with the shifts and masks below; :func:`decompose` is the
arithmetic reference they must equal.
"""

from __future__ import annotations

from typing import Tuple

N_CHANNELS = 4
N_BANKS = 16          # banks per channel (ranks folded in)
ROW_BYTES = 8192      # row-buffer size per bank
LINE_BYTES = 64
LINES_PER_ROW = ROW_BYTES // LINE_BYTES


def _bits(name: str, n: int) -> int:
    if n < 1 or n & (n - 1):
        raise ValueError(f"{name} must be a power of two, got {n}")
    return n.bit_length() - 1


#: Line-number decode: ``channel = line & CHANNEL_MASK``, ``bank =
#: (line >> BANK_SHIFT) & BANK_MASK``, ``row = line >> ROW_SHIFT``.
CHANNEL_MASK = N_CHANNELS - 1
BANK_SHIFT = _bits("N_CHANNELS", N_CHANNELS) + _bits(
    "LINES_PER_ROW", LINES_PER_ROW)
BANK_MASK = N_BANKS - 1
ROW_SHIFT = BANK_SHIFT + _bits("N_BANKS", N_BANKS)


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
