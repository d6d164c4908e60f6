#!/usr/bin/env python
"""Measure the three ChaCha20 block functions and their break-even.

``repro.crypto.chacha`` runs the same block function three ways: the
RFC 8439 reference loop (``ChaCha20.block``, on no data path), the
wide-integer kernel (``keystream_wide``, cost grows with N) and the
numpy lane kernel (``keystream_lanes``, flat cost). ``xor_blocks``
picks between the two kernels by batch length alone, at
``LANE_MIN_BLOCKS``; this tool is the measurement behind that constant.

For each N it checks that all three produce the same bytes on every
lane (exit status 1 if not -- a timing of a wrong kernel is worthless),
times each (best of ``--repeats``; the minimum is the least-noisy
estimate on a shared host) and prints the table docs/perf.md quotes,
then the break-even: the smallest measured N from which the lane
kernel stays ahead of the wide one.

Usage: ``PYTHONPATH=src python tools/chacha_cutover.py [--repeats 7]
[--sizes 1 2 3 4 8 16 24 32 40 48 64 100]`` (or ``make chacha-cutover``).
Reported, not gated: timings depend on the host, the constant is
re-chosen by a person reading this table.
"""

from __future__ import annotations

import argparse
import struct
import sys
import time
from typing import Callable, List, Optional, Sequence

from repro.crypto.chacha import (
    BLOCK_BYTES, LANE_MIN_BLOCKS, ChaCha20, keystream_lanes, keystream_wide,
)

KEY = bytes(range(32))
DEFAULT_SIZES = (1, 2, 3, 4, 8, 16, 24, 32, 40, 48, 64, 100)


def _inputs(n: int):
    """``n`` lanes, each with its own nonce and counter."""
    nonces = [struct.pack("<QI", 0x1000 + 64 * i, i + 1) for i in range(n)]
    counters = [(i * 0x01000193 + 7) & 0xFFFFFFFF for i in range(n)]
    return nonces, counters


def _reference(key: bytes, nonces: Sequence[bytes],
               counters: Sequence[int]) -> bytes:
    return b"".join(
        ChaCha20(key, nonce).block(counter)
        for nonce, counter in zip(nonces, counters)
    )


def _best_us(fn: Callable[[], bytes], repeats: int, budget_s: float) -> float:
    """Best-of-``repeats`` mean microseconds per call; each repeat
    loops the call for about ``budget_s``."""
    start = time.perf_counter()
    fn()
    once = max(time.perf_counter() - start, 1e-7)
    loops = max(1, int(budget_s / once))
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(loops):
            fn()
        best = min(best, (time.perf_counter() - start) / loops)
    return best * 1e6


def break_even(sizes: Sequence[int], wide_us: Sequence[float],
               lanes_us: Sequence[float]) -> Optional[int]:
    """Smallest measured N from which lanes <= wide at every larger N."""
    found = None
    for n, wide, lanes in zip(sizes, wide_us, lanes_us):
        if lanes <= wide:
            if found is None:
                found = n
        else:
            found = None
    return found


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=7,
                        help="timed repeats per cell; the best is kept")
    parser.add_argument("--budget-ms", type=float, default=20.0,
                        help="approximate wall time of one repeat")
    parser.add_argument("--sizes", type=int, nargs="+",
                        default=list(DEFAULT_SIZES),
                        help="batch sizes N to measure")
    args = parser.parse_args(argv)
    sizes = sorted(set(args.sizes))
    if args.repeats < 1 or any(n < 1 for n in sizes):
        parser.error("--repeats and every size must be >= 1")

    budget_s = args.budget_ms / 1000.0
    rows: List[tuple] = []
    mismatches: List[str] = []
    for n in sizes:
        nonces, counters = _inputs(n)
        call = (KEY, nonces, counters)
        expect = _reference(*call)
        for name, fn in (("wide", keystream_wide), ("lanes", keystream_lanes)):
            got = fn(*call)
            for lane in range(n):
                at = slice(lane * BLOCK_BYTES, (lane + 1) * BLOCK_BYTES)
                if got[at] != expect[at]:
                    mismatches.append(f"N={n}: {name} lane {lane} differs "
                                      f"from the reference")
        rows.append((
            n,
            _best_us(lambda: _reference(*call), args.repeats, budget_s),
            _best_us(lambda: keystream_wide(*call), args.repeats, budget_s),
            _best_us(lambda: keystream_lanes(*call), args.repeats, budget_s),
        ))

    print(f"ChaCha20 block functions, us per call (best of {args.repeats}; "
          f"one call = N blocks)")
    print(f"{'N':>5} {'reference':>10} {'wide':>8} {'lanes':>8}  winner")
    for n, ref_us, wide_us, lanes_us in rows:
        winner = "wide" if wide_us < lanes_us else "lanes"
        print(f"{n:>5} {ref_us:>10.1f} {wide_us:>8.1f} {lanes_us:>8.1f}  "
              f"{winner}")
    measured = break_even(
        sizes, [r[2] for r in rows], [r[3] for r in rows]
    )
    print(
        "measured break-even: "
        + (f"lanes ahead from N={measured}" if measured is not None
           else f"wide ahead up to N={sizes[-1]}")
        + f"; LANE_MIN_BLOCKS = {LANE_MIN_BLOCKS}"
    )
    for line in mismatches:
        print(f"MISMATCH {line}", file=sys.stderr)
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
