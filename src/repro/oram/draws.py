"""The controller's protocol draws at list cost.

A :class:`Draws` owns the controller's ``np.random.default_rng(seed)``
and replays numpy's own bounded draw over raw PCG64 words, fetched a
block at a time with ``bit_generator.random_raw``, so a draw costs list
indexing and integer arithmetic instead of a numpy call:

- a bound ``n`` of 2 or more is Lemire's draw over ``next_uint32``:
  ``m = u * n``, drawn again while the low 32 bits of ``m`` are below
  ``2**32 % n``; the value is ``m >> 32``. A bound of 1 draws nothing;
- ``next_uint32`` takes a word's low half and buffers its upper half;
  once that is used numpy clears ``has_uint32`` but keeps the stale
  value in ``uinteger``.

:meth:`below` equals ``integers(0, bounds).tolist()`` and :meth:`one`
``int(integers(n))``, values and generator state alike; :meth:`skip`
moves the stream as ``below`` does (``tests/test_rng_identities.py``).
Reading :attr:`generator` syncs it first: its state is rebuilt from the
block's anchor with ``PCG64.advance`` plus the buffered half, where
numpy's own calls would have left it, and the next draw re-acquires it
(DESIGN.md section 14).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

_MASK = 0xFFFFFFFF
_TOP = 1 << 32
#: Raw 64-bit words fetched per block: ~60 readPath accesses' draws.
_BLOCK = 1024


class Draws:
    """Bounded uniform draws from one seeded numpy ``Generator``.

    ``_h`` holds 32-bit halves in ``next_uint32`` order from the anchor
    on: ``_h[0]`` is the anchor's ``uinteger``, then each word's low
    and upper half; ``_i`` is the next half and ``_base`` counts the
    halves dropped from the front.
    """

    def __init__(self, seed) -> None:
        self._gen = np.random.default_rng(seed)
        self._detach()

    def __getstate__(self):
        return {"gen": self.generator}

    def __setstate__(self, state) -> None:
        self._gen = state["gen"]
        self._detach()

    @property
    def generator(self) -> np.random.Generator:
        """The generator at the state numpy's own calls leave."""
        anchor = self._anchor
        if anchor is not None:
            q = self._base + self._i
            buffered = q % 2 == 0
            bits = self._gen.bit_generator
            bits.state = anchor
            bits.advance(q // 2)
            state = bits.state
            state["has_uint32"] = int(buffered)
            state["uinteger"] = self._h[self._i - (not buffered)]
            bits.state = state
            self._detach()
        return self._gen

    def below(self, bounds: Sequence[int]) -> List[int]:
        """One uniform draw in ``[0, n)`` for each bound ``n``, in order."""
        while True:
            h, i, out = self._h, self._i, []
            append = out.append
            try:
                for n in bounds:
                    if n < 2:
                        append(_trivial(n))
                        continue
                    m = h[i] * n
                    i += 1
                    if m & _MASK < n:
                        m, i = _lemire(h, i - 1, n)
                    append(m >> 32)
            except IndexError:
                self._more()
                continue
            self._i = i
            return out

    def skip(self, bounds: Sequence[int]) -> None:
        """Advance the stream as ``below(bounds)`` does, for draws whose
        values nobody reads."""
        while True:
            h, i = self._h, self._i
            try:
                for n in bounds:
                    if n < 2:
                        _trivial(n)
                    elif h[i] * n & _MASK < n:
                        _, i = _lemire(h, i, n)
                    else:
                        i += 1
            except IndexError:
                self._more()
                continue
            self._i = i
            return

    def one(self, n: int) -> int:
        """One uniform draw in ``[0, n)``."""
        if n < 2:
            return _trivial(n)
        while True:
            try:
                m, i = _lemire(self._h, self._i, n)
            except IndexError:
                self._more()
                continue
            self._i = i
            return m >> 32

    def _detach(self) -> None:
        self._anchor = None
        self._h: List[int] = []
        self._i = self._base = 0

    def _more(self) -> None:
        """Fetch the next block, keeping every half from the one before
        ``_i`` on (acquiring the generator's state first if detached)."""
        bits = self._gen.bit_generator
        if self._anchor is None:
            self._anchor = state = bits.state
            self._h = [state["uinteger"]]
            self._i = 1 - state["has_uint32"]
        keep = max(self._i - 1, 0)
        halves = bits.random_raw(_BLOCK).astype("<u8").view("<u4")
        self._h = self._h[keep:] + halves.tolist()
        self._base += keep
        self._i -= keep


def _trivial(n: int) -> int:
    """A bound below 2: 1 draws nothing, anything else is refused."""
    if n != 1:
        raise ValueError(f"bounds must lie in [1, 2**32], got {n}")
    return 0


def _lemire(h: List[int], i: int, n: int) -> Tuple[int, int]:
    """Lemire's draw below ``n`` (2 or more) from ``h[i]`` on: ``m``,
    whose upper bits are the value, and the next index. The loops above
    inline its first step and come here when its low bits fall below
    ``n``, as they always do for a bound above 2**32."""
    m = h[i] * n
    i += 1
    if m & _MASK < n:
        if n > _TOP:
            raise ValueError(f"bounds must lie in [1, 2**32], got {n}")
        floor = (_TOP - n) % n
        while m & _MASK < floor:
            m = h[i] * n
            i += 1
    return m, i
