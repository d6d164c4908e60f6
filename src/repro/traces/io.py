"""Trace file I/O in a USIMM-compatible text format.

USIMM consumes traces of the form::

    <gap> <R|W> <hex byte address>

where ``gap`` is the number of non-memory instructions since the
previous request. This module writes our synthetic traces in that
format (so they can drive the original simulator) and reads external
traces back (so Pin-collected traces can drive this one). On read, the
per-request gaps are folded back into an aggregate MPKI, and byte
addresses are reduced to 64B block ids within the protected space.
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Union

from repro.traces.trace import Trace, TraceRequest

PathLike = Union[str, Path]

#: Bytes per trace address unit: one 64B block.
BLOCK_BYTES = 64


def save_trace(trace: Trace, path: PathLike) -> int:
    """Write ``trace`` in USIMM text format; returns lines written.

    The instruction gap is the trace's average (our generator models
    rate, not per-request jitter).
    """
    path = Path(path)
    gap = max(1, round(trace.instructions_per_access))
    lines = []
    for req in trace:
        op = "W" if req.write else "R"
        lines.append(f"{gap} {op} 0x{req.block * BLOCK_BYTES:x}")
    path.write_text("\n".join(lines) + "\n")
    return len(lines)


def load_trace(
    path: PathLike,
    name: str,
    n_oram_blocks: int,
) -> Trace:
    """Parse a USIMM-format trace file.

    Addresses are folded into ``[0, n_oram_blocks)`` (traces collected
    on arbitrary address spaces must land inside the protected range);
    MPKI is recovered from the mean instruction gap and the read/write
    mix from the opcode column.
    """
    path = Path(path)
    requests: List[TraceRequest] = []
    total_gap = 0
    reads = 0
    writes = 0
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) < 3:
            raise ValueError(f"{path}:{lineno}: expected '<gap> <R|W> <addr>'")
        try:
            gap = int(parts[0])
            addr = int(parts[2], 16)
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
        op = parts[1].upper()
        if op not in ("R", "W"):
            raise ValueError(f"{path}:{lineno}: bad op {parts[1]!r}")
        if gap < 0 or addr < 0:
            raise ValueError(f"{path}:{lineno}: negative gap or address")
        write = op == "W"
        block = (addr // BLOCK_BYTES) % n_oram_blocks
        requests.append(TraceRequest(block=block, write=write))
        total_gap += gap
        if write:
            writes += 1
        else:
            reads += 1
    if not requests:
        raise ValueError(f"{path}: no requests found")
    mean_gap = max(1.0, total_gap / len(requests))
    total_mpki = 1000.0 / mean_gap
    read_mpki = total_mpki * reads / len(requests)
    write_mpki = total_mpki * writes / len(requests)
    # MPKI components must stay positive for the Trace invariants; an
    # all-read or all-write trace keeps an epsilon on the other side.
    eps = total_mpki * 1e-9
    return Trace(
        name=name,
        requests=requests,
        read_mpki=max(read_mpki, eps),
        write_mpki=max(write_mpki, eps),
        suite="file",
    )
