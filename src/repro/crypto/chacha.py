"""ChaCha20 stream cipher (RFC 8439), from scratch.

The secure engine needs a fast(ish), well-specified stream cipher to
encrypt 64B blocks before they leave the processor. ChaCha20 is a good
fit: one cipher block is exactly 64 bytes, the construction is pure
ARX (add/rotate/xor) so a dependency-free implementation stays short,
and RFC 8439 ships official test vectors the test suite checks this
code against.

Three implementations of the same block function live here, pinned to
the RFC vectors and to each other by the tests:

- :meth:`ChaCha20.block` -- the reference: one block, the quarter
  round of RFC 8439 2.1 looped as in 2.3. On no data path; the two
  kernels below are checked against it;
- :func:`keystream_wide` -- the wide-integer kernel: each state row is
  one Python int holding every block's four words in 64-bit lanes, so
  its ~900 int operations cost little more for a handful of blocks
  than for one (a single slot, a readPath's opens, one reshuffle);
- :func:`keystream_lanes` -- the lane-parallel kernel: N independent
  ``(nonce, counter)`` blocks at once on numpy ``uint32`` rows. Its
  cost is a fixed few hundred numpy calls whatever N is, so it wins
  from :data:`LANE_MIN_BLOCKS` blocks up (evictPath, warm fill).

Only encryption/keystream generation is provided (stream ciphers are
symmetric: decryption is the same XOR).
"""

from __future__ import annotations

import struct
from functools import lru_cache
from typing import List, Sequence, Tuple

import numpy as np

_MASK = 0xFFFFFFFF
_CONSTANTS = (0x61707865, 0x3320646E, 0x79622D32, 0x6B206574)  # "expand 32-byte k"

KEY_BYTES = 32
NONCE_BYTES = 12
BLOCK_BYTES = 64

#: Batches of at least this many blocks go through the lane kernel,
#: shorter ones through the wide kernel. Measured by
#: ``tools/chacha_cutover.py`` (docs/perf.md): a lane-kernel call costs
#: ~215 us from N=1 to N=48, a wide-kernel call 35 us at N=1 growing
#: ~5 us per block, so the two break even at about 40.
LANE_MIN_BLOCKS = 40


def _check_key(key: bytes) -> None:
    if len(key) != KEY_BYTES:
        raise ValueError(f"key must be {KEY_BYTES} bytes, got {len(key)}")


def _check_nonce(nonce: bytes) -> None:
    if len(nonce) != NONCE_BYTES:
        raise ValueError(f"nonce must be {NONCE_BYTES} bytes, got {len(nonce)}")


def _check_counter(counter: int) -> None:
    if not 0 <= counter <= _MASK:
        raise ValueError(f"counter out of range: {counter}")


def _check_lanes(
    key: bytes, nonces: Sequence[bytes], counters: Sequence[int]
) -> int:
    """Validate one kernel call's arguments; returns the block count."""
    _check_key(key)
    n = len(nonces)
    if len(counters) != n:
        raise ValueError(f"{n} nonces but {len(counters)} counters")
    for nonce in nonces:
        _check_nonce(nonce)
    for counter in counters:
        _check_counter(counter)
    return n


def _rotl(v: int, n: int) -> int:
    return ((v << n) | (v >> (32 - n))) & _MASK


def _quarter_round(x: List[int], a: int, b: int, c: int, d: int) -> None:
    """RFC 8439 2.1 on words ``a, b, c, d`` of the state ``x``."""
    x[a] = (x[a] + x[b]) & _MASK
    x[d] = _rotl(x[d] ^ x[a], 16)
    x[c] = (x[c] + x[d]) & _MASK
    x[b] = _rotl(x[b] ^ x[c], 12)
    x[a] = (x[a] + x[b]) & _MASK
    x[d] = _rotl(x[d] ^ x[a], 8)
    x[c] = (x[c] + x[d]) & _MASK
    x[b] = _rotl(x[b] ^ x[c], 7)


class ChaCha20:
    """ChaCha20 keystream generator for one (key, nonce) pair."""

    KEY_BYTES = KEY_BYTES
    NONCE_BYTES = NONCE_BYTES
    BLOCK_BYTES = BLOCK_BYTES

    def __init__(self, key: bytes, nonce: bytes) -> None:
        _check_key(key)
        _check_nonce(nonce)
        self._key_words = struct.unpack("<8I", key)
        self._nonce_words = struct.unpack("<3I", nonce)

    def block(self, counter: int) -> bytes:
        """The 64-byte keystream block at ``counter`` (RFC 8439 2.3)."""
        _check_counter(counter)
        state = [*_CONSTANTS, *self._key_words, counter, *self._nonce_words]
        x = list(state)
        for _ in range(10):  # 20 rounds: 10 column+diagonal double rounds
            _quarter_round(x, 0, 4, 8, 12)
            _quarter_round(x, 1, 5, 9, 13)
            _quarter_round(x, 2, 6, 10, 14)
            _quarter_round(x, 3, 7, 11, 15)
            _quarter_round(x, 0, 5, 10, 15)
            _quarter_round(x, 1, 6, 11, 12)
            _quarter_round(x, 2, 7, 8, 13)
            _quarter_round(x, 3, 4, 9, 14)
        return struct.pack(
            "<16I", *[(w + s) & _MASK for w, s in zip(x, state)]
        )

    def keystream(self, length: int, counter: int = 0) -> bytes:
        """``length`` keystream bytes starting at block ``counter``."""
        if length < 0:
            raise ValueError("length must be non-negative")
        chunks = []
        produced = 0
        while produced < length:
            chunks.append(self.block(counter))
            counter += 1
            produced += self.BLOCK_BYTES
        return b"".join(chunks)[:length]

    def xor(self, data: bytes, counter: int = 0) -> bytes:
        """Encrypt/decrypt ``data`` (XOR with the keystream)."""
        return _xor_bytes(data, self.keystream(len(data), counter))


def _xor_bytes(data: bytes, keystream: bytes) -> bytes:
    """XOR two equal-length byte strings as one big integer."""
    return (
        int.from_bytes(data, "little") ^ int.from_bytes(keystream, "little")
    ).to_bytes(len(data), "little")


def chacha20_xor(key: bytes, nonce: bytes, data: bytes, counter: int = 0) -> bytes:
    """One-shot ChaCha20 encryption/decryption."""
    return ChaCha20(key, nonce).xor(data, counter)


# ------------------------------------------------------------ wide kernel

_LANE_PAD = bytes(4)  # the upper half of a 64-bit lane


def _uniform_row(words: bytes, n: int) -> int:
    """The state row holding the four 32-bit ``words`` in all ``n`` blocks.

    A row is one int of ``4 * n`` 64-bit lanes, column-major: word
    ``col`` of block ``i`` is the low half of lane ``col * n + i``.
    """
    return int.from_bytes(
        b"".join((words[i:i + 4] + _LANE_PAD) * n for i in (0, 4, 8, 12)),
        "little",
    )


@lru_cache(maxsize=LANE_MIN_BLOCKS)
def _wide_consts(n: int) -> Tuple[int, ...]:
    """What the wide kernel needs that depends on N alone: the mask of
    every lane's low half, the constants row, and the shift and low-bits
    mask that rotate a row left by one, two and three columns."""
    col = 64 * n
    return (
        _uniform_row(b"\xff" * 16, n),
        _uniform_row(struct.pack("<4I", *_CONSTANTS), n),
        col, 2 * col, 3 * col,
        (1 << col) - 1, (1 << 2 * col) - 1, (1 << 3 * col) - 1,
    )


def _wide_quarter_rounds(a: int, b: int, c: int, d: int, m: int):
    """Four quarter rounds in every block: one per column of the rows.

    Lane-wise ``mod 2**32`` arithmetic on whole rows: a lane's zero
    upper half takes the carry of an add and the spill of a shift
    (from this lane going up, from the next one coming down), and the
    mask clears it again.
    """
    a = (a + b) & m
    d ^= a
    d = ((d << 16) | (d >> 16)) & m
    c = (c + d) & m
    b ^= c
    b = ((b << 12) | (b >> 20)) & m
    a = (a + b) & m
    d ^= a
    d = ((d << 8) | (d >> 24)) & m
    c = (c + d) & m
    b ^= c
    b = ((b << 7) | (b >> 25)) & m
    return a, b, c, d


def keystream_wide(
    key: bytes, nonces: Sequence[bytes], counters: Sequence[int]
) -> bytes:
    """:func:`keystream_lanes` on Python ints: same arguments, same bytes.

    Each of the four state rows is one int (see :func:`_uniform_row`),
    so the 20 rounds are ~900 int operations whatever N is, and CPython
    does a 256-bit operation at nearly the price of a 32-bit one: about
    35 us for one block, 46 for four. The cost grows with the row width
    and passes the lane kernel's flat one at :data:`LANE_MIN_BLOCKS`.
    """
    n = _check_lanes(key, nonces, counters)
    if not n:
        return b""
    m, a0, s1, s2, s3, low1, low2, low3 = _wide_consts(n)
    b0 = _uniform_row(key[:16], n)
    c0 = _uniform_row(key[16:], n)
    words = struct.unpack(f"<{3 * n}I", b"".join(nonces))
    d0 = int.from_bytes(
        struct.pack(f"<{4 * n}Q", *counters,
                    *words[0::3], *words[1::3], *words[2::3]),
        "little",
    )
    a, b, c, d = a0, b0, c0, d0
    for _ in range(10):
        a, b, c, d = _wide_quarter_rounds(a, b, c, d, m)
        # Line the diagonals up as columns: row r left by r columns.
        b = (b >> s1) | ((b & low1) << s3)
        c = (c >> s2) | ((c & low2) << s2)
        d = (d >> s3) | ((d & low3) << s1)
        a, b, c, d = _wide_quarter_rounds(a, b, c, d, m)
        b = (b >> s3) | ((b & low3) << s1)
        c = (c >> s2) | ((c & low2) << s2)
        d = (d >> s1) | ((d & low1) << s3)
    # 16 * n lanes, word w of block i at w * n + i; out block by block.
    lanes = struct.unpack(f"<{16 * n}Q", b"".join(
        ((x + x0) & m).to_bytes(32 * n, "little")
        for x, x0 in ((a, a0), (b, b0), (c, c0), (d, d0))
    ))
    return struct.pack(
        f"<{16 * n}I", *[w for i in range(n) for w in lanes[i::n]]
    )


# ------------------------------------------------------------ lane kernel

_CONSTANT_ROW = np.array(_CONSTANTS, dtype=np.uint32)[:, None]
# Row rotations that line the diagonals of the 4x4 state up as columns
# (and back): row r of the state is rotated left by r positions.
_ROT1 = np.array([1, 2, 3, 0])
_ROT2 = np.array([2, 3, 0, 1])
_ROT3 = np.array([3, 0, 1, 2])
# Shift counts as uint32 arrays: a Python int operand costs every ufunc
# call a scalar conversion, about as much as the shift itself.
_S7, _S8, _S12, _S16, _S20, _S24, _S25 = (
    np.array(n, dtype=np.uint32) for n in (7, 8, 12, 16, 20, 24, 25)
)


def _quarter_rounds(a, b, c, d, t) -> None:
    """Four quarter rounds at once: one per column of rows a, b, c, d.

    Each row is ``(4, N)``; everything is in place (``t`` is scratch),
    and ``uint32`` arithmetic wraps, which is the ``mod 2**32`` of the
    specification.
    """
    shl = np.left_shift
    a += b
    d ^= a
    shl(d, _S16, out=t)
    d >>= _S16
    d |= t
    c += d
    b ^= c
    shl(b, _S12, out=t)
    b >>= _S20
    b |= t
    a += b
    d ^= a
    shl(d, _S8, out=t)
    d >>= _S24
    d |= t
    c += d
    b ^= c
    shl(b, _S7, out=t)
    b >>= _S25
    b |= t


def keystream_lanes(
    key: bytes, nonces: Sequence[bytes], counters: Sequence[int]
) -> bytes:
    """One keystream block per ``(nonce, counter)`` lane, concatenated.

    Lane ``i`` of the result (bytes ``64*i .. 64*i+63``) equals
    ``ChaCha20(key, nonces[i]).block(counters[i])``. The state is held
    as four ``(4, N)`` ``uint32`` rows, so a column round is one
    :func:`_quarter_rounds` call over all lanes and a diagonal round is
    the same call between two row rotations.
    """
    n = _check_lanes(key, nonces, counters)
    if not n:
        return b""
    init = np.empty((16, n), dtype=np.uint32)
    init[0:4] = _CONSTANT_ROW
    init[4:12] = np.frombuffer(key, dtype="<u4")[:, None]
    init[12] = counters
    init[13:16] = np.frombuffer(b"".join(nonces), dtype="<u4").reshape(n, 3).T
    x = init.copy()
    a, b, c, d = x[0:4], x[4:8], x[8:12], x[12:16]
    t = np.empty_like(a)
    for _ in range(10):
        _quarter_rounds(a, b, c, d, t)
        b, c, d = b[_ROT1], c[_ROT2], d[_ROT3]
        _quarter_rounds(a, b, c, d, t)
        b, c, d = b[_ROT3], c[_ROT2], d[_ROT1]
    x = np.concatenate((a, b, c, d))
    x += init
    return x.T.astype("<u4").tobytes()


def xor_blocks(
    key: bytes, nonces: Sequence[bytes], blocks: Sequence[bytes]
) -> List[bytes]:
    """Encrypt/decrypt one 64B block per nonce (each at counter 0).

    The batch form of ``ChaCha20(key, nonce).xor(block)``: batches
    under :data:`LANE_MIN_BLOCKS` share one wide-kernel call, longer
    ones one lane-kernel call. Both produce the same bytes.
    """
    n = len(blocks)
    if len(nonces) != n:
        raise ValueError(f"{len(nonces)} nonces but {n} blocks")
    for block in blocks:
        if len(block) != BLOCK_BYTES:
            raise ValueError(
                f"blocks must be {BLOCK_BYTES} bytes, got {len(block)}"
            )
    kernel = keystream_wide if n < LANE_MIN_BLOCKS else keystream_lanes
    out = _xor_bytes(b"".join(blocks), kernel(key, nonces, [0] * n))
    return [out[i:i + BLOCK_BYTES] for i in range(0, len(out), BLOCK_BYTES)]
