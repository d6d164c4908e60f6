"""ChaCha20 stream cipher (RFC 8439), from scratch.

The secure engine needs a fast(ish), well-specified stream cipher to
encrypt 64B blocks before they leave the processor. ChaCha20 is a good
fit: one cipher block is exactly 64 bytes, the construction is pure
ARX (add/rotate/xor) so a dependency-free implementation stays short,
and RFC 8439 ships official test vectors the test suite checks this
code against.

Two implementations of the same block function live here, pinned to
the RFC vectors and to each other by the tests:

- :meth:`ChaCha20.block` -- the scalar reference: one block, plain
  Python integers, the 20 rounds unrolled over local variables;
- :func:`keystream_lanes` -- the lane-parallel kernel: N independent
  ``(nonce, counter)`` blocks at once on numpy ``uint32`` rows. Its
  cost is a fixed few hundred numpy calls whatever N is, so it wins
  from :data:`LANE_MIN_BLOCKS` blocks up and loses below.

Only encryption/keystream generation is provided (stream ciphers are
symmetric: decryption is the same XOR).
"""

from __future__ import annotations

import struct
from typing import List, Sequence

import numpy as np

_MASK = 0xFFFFFFFF
_CONSTANTS = (0x61707865, 0x3320646E, 0x79622D32, 0x6B206574)  # "expand 32-byte k"

KEY_BYTES = 32
NONCE_BYTES = 12
BLOCK_BYTES = 64

#: Batches of at least this many blocks go through the lane kernel.
#: Measured (docs/perf.md): one kernel call costs ~220 us from N=1 to
#: N=100, a scalar block ~70 us, so the two break even between 3 and 4.
LANE_MIN_BLOCKS = 4


def _check_key(key: bytes) -> None:
    if len(key) != KEY_BYTES:
        raise ValueError(f"key must be {KEY_BYTES} bytes, got {len(key)}")


def _check_nonce(nonce: bytes) -> None:
    if len(nonce) != NONCE_BYTES:
        raise ValueError(f"nonce must be {NONCE_BYTES} bytes, got {len(nonce)}")


def _check_counter(counter: int) -> None:
    if not 0 <= counter <= _MASK:
        raise ValueError(f"counter out of range: {counter}")


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
        m = _MASK
        s0, s1, s2, s3 = _CONSTANTS
        s4, s5, s6, s7, s8, s9, s10, s11 = self._key_words
        s12 = counter
        s13, s14, s15 = self._nonce_words
        x0, x1, x2, x3, x4, x5, x6, x7 = s0, s1, s2, s3, s4, s5, s6, s7
        x8, x9, x10, x11, x12, x13, x14, x15 = (
            s8, s9, s10, s11, s12, s13, s14, s15
        )
        # 20 rounds: 10 column+diagonal double rounds, each quarter
        # round (a += b; d ^= a; d <<<= 16; c += d; b ^= c; b <<<= 12;
        # a += b; d ^= a; d <<<= 8; c += d; b ^= c; b <<<= 7) written
        # out over locals -- no list indexing, no helper calls.
        for _ in range(10):
            # column round
            x0 = (x0 + x4) & m
            x12 ^= x0
            x12 = ((x12 << 16) & m) | (x12 >> 16)
            x8 = (x8 + x12) & m
            x4 ^= x8
            x4 = ((x4 << 12) & m) | (x4 >> 20)
            x0 = (x0 + x4) & m
            x12 ^= x0
            x12 = ((x12 << 8) & m) | (x12 >> 24)
            x8 = (x8 + x12) & m
            x4 ^= x8
            x4 = ((x4 << 7) & m) | (x4 >> 25)
            x1 = (x1 + x5) & m
            x13 ^= x1
            x13 = ((x13 << 16) & m) | (x13 >> 16)
            x9 = (x9 + x13) & m
            x5 ^= x9
            x5 = ((x5 << 12) & m) | (x5 >> 20)
            x1 = (x1 + x5) & m
            x13 ^= x1
            x13 = ((x13 << 8) & m) | (x13 >> 24)
            x9 = (x9 + x13) & m
            x5 ^= x9
            x5 = ((x5 << 7) & m) | (x5 >> 25)
            x2 = (x2 + x6) & m
            x14 ^= x2
            x14 = ((x14 << 16) & m) | (x14 >> 16)
            x10 = (x10 + x14) & m
            x6 ^= x10
            x6 = ((x6 << 12) & m) | (x6 >> 20)
            x2 = (x2 + x6) & m
            x14 ^= x2
            x14 = ((x14 << 8) & m) | (x14 >> 24)
            x10 = (x10 + x14) & m
            x6 ^= x10
            x6 = ((x6 << 7) & m) | (x6 >> 25)
            x3 = (x3 + x7) & m
            x15 ^= x3
            x15 = ((x15 << 16) & m) | (x15 >> 16)
            x11 = (x11 + x15) & m
            x7 ^= x11
            x7 = ((x7 << 12) & m) | (x7 >> 20)
            x3 = (x3 + x7) & m
            x15 ^= x3
            x15 = ((x15 << 8) & m) | (x15 >> 24)
            x11 = (x11 + x15) & m
            x7 ^= x11
            x7 = ((x7 << 7) & m) | (x7 >> 25)
            # diagonal round
            x0 = (x0 + x5) & m
            x15 ^= x0
            x15 = ((x15 << 16) & m) | (x15 >> 16)
            x10 = (x10 + x15) & m
            x5 ^= x10
            x5 = ((x5 << 12) & m) | (x5 >> 20)
            x0 = (x0 + x5) & m
            x15 ^= x0
            x15 = ((x15 << 8) & m) | (x15 >> 24)
            x10 = (x10 + x15) & m
            x5 ^= x10
            x5 = ((x5 << 7) & m) | (x5 >> 25)
            x1 = (x1 + x6) & m
            x12 ^= x1
            x12 = ((x12 << 16) & m) | (x12 >> 16)
            x11 = (x11 + x12) & m
            x6 ^= x11
            x6 = ((x6 << 12) & m) | (x6 >> 20)
            x1 = (x1 + x6) & m
            x12 ^= x1
            x12 = ((x12 << 8) & m) | (x12 >> 24)
            x11 = (x11 + x12) & m
            x6 ^= x11
            x6 = ((x6 << 7) & m) | (x6 >> 25)
            x2 = (x2 + x7) & m
            x13 ^= x2
            x13 = ((x13 << 16) & m) | (x13 >> 16)
            x8 = (x8 + x13) & m
            x7 ^= x8
            x7 = ((x7 << 12) & m) | (x7 >> 20)
            x2 = (x2 + x7) & m
            x13 ^= x2
            x13 = ((x13 << 8) & m) | (x13 >> 24)
            x8 = (x8 + x13) & m
            x7 ^= x8
            x7 = ((x7 << 7) & m) | (x7 >> 25)
            x3 = (x3 + x4) & m
            x14 ^= x3
            x14 = ((x14 << 16) & m) | (x14 >> 16)
            x9 = (x9 + x14) & m
            x4 ^= x9
            x4 = ((x4 << 12) & m) | (x4 >> 20)
            x3 = (x3 + x4) & m
            x14 ^= x3
            x14 = ((x14 << 8) & m) | (x14 >> 24)
            x9 = (x9 + x14) & m
            x4 ^= x9
            x4 = ((x4 << 7) & m) | (x4 >> 25)
        return struct.pack(
            "<16I",
            (x0 + s0) & m, (x1 + s1) & m, (x2 + s2) & m, (x3 + s3) & m,
            (x4 + s4) & m, (x5 + s5) & m, (x6 + s6) & m, (x7 + s7) & m,
            (x8 + s8) & m, (x9 + s9) & m, (x10 + s10) & m, (x11 + s11) & m,
            (x12 + s12) & m, (x13 + s13) & m, (x14 + s14) & m,
            (x15 + s15) & m,
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
    _check_key(key)
    n = len(nonces)
    if len(counters) != n:
        raise ValueError(f"{n} nonces but {len(counters)} counters")
    for nonce in nonces:
        _check_nonce(nonce)
    for counter in counters:
        _check_counter(counter)
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

    The batch form of ``ChaCha20(key, nonce).xor(block)``: short
    batches loop the scalar block, longer ones share one lane-kernel
    call. Both produce the same bytes.
    """
    n = len(blocks)
    if len(nonces) != n:
        raise ValueError(f"{len(nonces)} nonces but {n} blocks")
    for block in blocks:
        if len(block) != BLOCK_BYTES:
            raise ValueError(
                f"blocks must be {BLOCK_BYTES} bytes, got {len(block)}"
            )
    if n < LANE_MIN_BLOCKS:
        return [
            ChaCha20(key, nonce).xor(block)
            for nonce, block in zip(nonces, blocks)
        ]
    out = _xor_bytes(b"".join(blocks), keystream_lanes(key, nonces, [0] * n))
    return [out[i:i + BLOCK_BYTES] for i in range(0, len(out), BLOCK_BYTES)]
