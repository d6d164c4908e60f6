"""An oblivious key-value store on top of AB-ORAM.

The store maps arbitrary byte keys to arbitrary-length byte values.
Values are chunked over fixed 64B ORAM blocks; a client-side directory
(key -> chain of block ids) and a free-list play the role the position
map plays for the ORAM itself -- trusted client state. Every chunk
touch is a full oblivious access, so the server-visible trace reveals
only *how many* blocks an operation touched, never which key or what
data.

Because chain length would otherwise leak value sizes, the store can
pad every chain to a multiple of ``pad_chunks`` blocks (reads and
writes then touch identical counts for same-bucket sizes); with
``pad_chunks=1`` padding is off and the trade-off is the user's.

Typical use::

    from repro.app.kvstore import ObliviousKV

    kv = ObliviousKV.create(scheme="ab", levels=10, seed=7)
    kv.put(b"alice", b"large secret value ..." * 10)
    assert kv.get(b"alice").startswith(b"large secret")
    kv.delete(b"alice")
"""

from __future__ import annotations

import struct
from typing import Dict, List, Optional, Tuple

from repro.core import schemes as schemes_mod
from repro.core.ab_oram import build_oram
from repro.oram.datastore import EncryptedTreeStore
from repro.oram.ring import RingOram

# Each chunk spends 4 bytes on a payload-length header.
_HEADER = struct.Struct("<I")


class KVFullError(RuntimeError):
    """The store ran out of free ORAM blocks."""


class ObliviousKV:
    """Byte-key / byte-value store over one ORAM instance."""

    def __init__(self, oram: RingOram, pad_chunks: int = 1) -> None:
        if pad_chunks < 1:
            raise ValueError("pad_chunks must be >= 1")
        self.oram = oram
        self.pad_chunks = pad_chunks
        self.chunk_payload = oram.cfg.block_bytes - _HEADER.size
        self._directory: Dict[bytes, List[int]] = {}
        self._free: List[int] = list(range(oram.cfg.n_real_blocks - 1, -1, -1))
        self.puts = 0
        self.gets = 0
        self.deletes = 0

    # ---------------------------------------------------------- constructors

    @classmethod
    def create(
        cls,
        scheme: str = "ab",
        levels: int = 10,
        seed: int = 0,
        master_key: bytes = b"oblivious-kv default key",
        pad_chunks: int = 1,
    ) -> "ObliviousKV":
        """Build a sealed store over a fresh ORAM of the named paper
        scheme: payloads go through the encrypted memory image (ChaCha20
        + MAC + Merkle tree). A store over a plaintext ORAM is
        ``ObliviousKV(build_oram(cfg, store_data=True))``, as the served
        stack builds it.
        """
        cfg = schemes_mod.by_name(scheme, levels)
        datastore = EncryptedTreeStore(cfg, master_key, seed=seed)
        oram = build_oram(cfg, seed=seed, datastore=datastore)
        return cls(oram, pad_chunks=pad_chunks)

    # -------------------------------------------------------------- helpers

    def _chunks_for(self, length: int) -> int:
        raw = max(1, -(-length // self.chunk_payload))
        # Round the chain up to the padding quantum to mask sizes.
        return -(-raw // self.pad_chunks) * self.pad_chunks

    def _write_block(self, block: int, payload: bytes) -> None:
        framed = _HEADER.pack(len(payload)) + payload
        self.oram.access(block, write=True, value=framed)

    def _read_block(self, block: int) -> bytes:
        raw = self.oram.access(block, write=False)
        if raw is None:
            return b""
        (length,) = _HEADER.unpack(bytes(raw[: _HEADER.size]))
        return bytes(raw[_HEADER.size: _HEADER.size + length])

    @staticmethod
    def _normalize(key) -> bytes:
        if isinstance(key, str):
            return key.encode()
        if isinstance(key, (bytes, bytearray)):
            return bytes(key)
        raise TypeError(f"keys must be str or bytes, got {type(key)}")

    # ------------------------------------------------------------ operations

    def put(self, key, value: bytes) -> None:
        """Store ``value`` under ``key`` (overwrites atomically)."""
        key = self._normalize(key)
        if not isinstance(value, (bytes, bytearray)):
            raise TypeError(f"values must be bytes, got {type(value)}")
        value = bytes(value)
        need = self._chunks_for(len(value))
        chain = self._directory.get(key, [])
        # Refused before chain or free list is touched: a put that
        # cannot fit leaves the store as it found it.
        if need - len(chain) > len(self._free):
            raise KVFullError(
                f"no free blocks ({len(self._directory)} keys stored)"
            )
        # Grow or shrink the chain to the required length.
        while len(chain) < need:
            chain.append(self._free.pop())
        while len(chain) > need:
            self._free.append(chain.pop())
        for i, block in enumerate(chain):
            piece = value[i * self.chunk_payload:(i + 1) * self.chunk_payload]
            self._write_block(block, piece)
        self._directory[key] = chain
        self.puts += 1

    def get(self, key) -> Optional[bytes]:
        """Fetch the value under ``key`` (None if absent)."""
        key = self._normalize(key)
        chain = self._directory.get(key)
        if chain is None:
            return None
        self.gets += 1
        return b"".join(self._read_block(block) for block in chain)

    def resident_value(self, key) -> "Tuple[bool, Optional[bytes]]":
        """Answer a read *without* an oblivious access, if possible.

        Returns ``(resident, value)``. ``resident=True`` means the
        answer is authoritative without touching the server: the key is
        absent (the client-side directory knows), or every chunk of its
        chain is on-chip right now (stash payload cache). ``(False,
        None)`` means serving this read requires real accesses -- a
        degraded-mode server must defer or fail it.
        """
        chain = self._directory.get(self._normalize(key))
        if chain is None:
            return True, None
        pieces: List[bytes] = []
        for block in chain:
            raw = self.oram.peek_payload(block)
            if raw is None:
                return False, None
            (length,) = _HEADER.unpack(bytes(raw[: _HEADER.size]))
            pieces.append(bytes(raw[_HEADER.size: _HEADER.size + length]))
        return True, b"".join(pieces)

    def preload(self, items) -> int:
        """Bulk-load ``(key, value)`` pairs without oblivious accesses.

        Serving benchmarks start from a populated store; populating a
        million-key store through one full ORAM access per chunk would
        dwarf the measured workload. Only the plaintext payload path
        supports this (the sealed path would need per-slot re-sealing);
        the tree placement itself already happened in ``warm_fill``.
        Returns the number of ORAM blocks consumed.
        """
        used = 0
        for key, value in items:
            key = self._normalize(key)
            if not isinstance(value, (bytes, bytearray)):
                raise TypeError(f"values must be bytes, got {type(value)}")
            value = bytes(value)
            if key in self._directory:
                raise ValueError(f"preload of existing key {key!r}")
            need = self._chunks_for(len(value))
            if need > len(self._free):
                raise KVFullError(
                    f"no free blocks ({len(self._directory)} keys stored)"
                )
            chain = [self._free.pop() for _ in range(need)]
            for i, block in enumerate(chain):
                piece = value[
                    i * self.chunk_payload:(i + 1) * self.chunk_payload
                ]
                self.oram.preload_value(
                    block, _HEADER.pack(len(piece)) + piece
                )
            self._directory[key] = chain
            used += need
        return used

    def delete(self, key) -> bool:
        """Remove ``key``; frees its blocks. Returns True if it existed."""
        key = self._normalize(key)
        chain = self._directory.pop(key, None)
        if chain is None:
            return False
        # Overwrite freed chunks so stale plaintext never lingers in
        # the stash payloads, then return them to the free list.
        for block in chain:
            self._write_block(block, b"")
            self._free.append(block)
        self.deletes += 1
        return True

    # ------------------------------------------------------------- capacity

    @property
    def free_blocks(self) -> int:
        return len(self._free)

    @property
    def used_blocks(self) -> int:
        return self.oram.cfg.n_real_blocks - len(self._free)

    def stats(self) -> Dict[str, object]:
        return {
            "keys": len(self._directory),
            "used_blocks": self.used_blocks,
            "free_blocks": self.free_blocks,
            "puts": self.puts,
            "gets": self.gets,
            "deletes": self.deletes,
            "oram_accesses": self.oram.online_accesses,
            "scheme": self.oram.cfg.name,
        }
