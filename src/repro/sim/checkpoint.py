"""Checkpoint/restore for the simulation engine.

A checkpoint is the whole :class:`~repro.sim.engine.Simulation` object,
pickled: controller state, stash, position map, every RNG, the DRAM
bank/bus clocks, the sealed memory image and the fault wrapper's
ledgers all live inside it, so a resumed run continues *bit-
identically* -- the final result equals the uninterrupted run's.

Writes are atomic (temp file + ``os.replace``) so a run killed while
checkpointing leaves the previous checkpoint intact. The file carries a
format version; loading anything else fails with a clear
:class:`ValueError` rather than an obscure unpickling error downstream.

Checkpoints are ordinary pickles: load them only from trusted paths
(the same trust level as the code itself).
"""

from __future__ import annotations

import os
import pickle
from pathlib import Path
from typing import Union

from repro.sim.engine import Simulation

PathLike = Union[str, Path]

#: Bumped whenever the pickled layout of anything inside a Simulation
#: moves, so an older file is refused here instead of failing later on
#: a missing attribute. 2: the sealed store's tags are a flat table
#: plus a sealed mask (was a dict). 3: a bucket's rented slots are
#: columns of its own ``BucketStore`` row and the allocator's host
#: table is dense (was a pooled side table). 4: the controller keeps,
#: per observer hook, the observers that override it (``_heard``).
#: 5: a DeadQ is a deque of entry tuples (was three numpy columns).
#: 6: the DRAM model holds no ``AddressMapping`` (the interleaving is
#: module constants), so an older file no longer unpickles. 7: the
#: DRAM model keeps each channel's next refresh time (was an epoch)
#: and the timed sink cache-line tables (was byte offsets). 8: sealed
#: payloads are XORed with a keyed-BLAKE2b pad (was ChaCha20); the
#: layout is unchanged, but an older image's MACs still verify, so it
#: would open to wrong bytes without an error. 9: tags are keyed
#: BLAKE2b (were HMAC-SHA256); an older sealed image would fail every
#: MAC after a resume. 10: the sealed store keeps its per-bucket
#: byte offsets and no ``TreeLayout``, the engine its two subkeys (no
#: authenticator object), a replay snapshot is a named tuple, and
#: ``DramStats`` has no ``total_service_ns``. 11: ``TreeLayout``'s
#: per-bucket table is the public ``first_byte`` (was ``_offsets``).
#: 12: the ``BucketStore`` tables are flat row-major containers
#: (``slots`` a list, ``status`` a bytearray, ``generation`` an
#: ``array('I')``, ``count`` / ``sustain`` lists; were 2-D and 1-D
#: numpy arrays), so an older store would fail its first flat index.
#: 13: the controllers and the position map draw through a ``Draws``
#: (``RingOram.draws``; ``rng`` is a property over it, was a bare
#: ``Generator``), so an older controller would fail its first draw.
#: 14: the allocator's host table is one flat ``hosts`` list (was
#: numpy ``host_bucket`` / ``host_slot``) and the Merkle digest list
#: ends in the leaves' empty children: an older file fails to resume.
#: 15: replay ammunition is the sealed store's replay image (was the
#: fault wrapper's ``_history`` dict): an older wrapper replays nothing.
#: 16: the timed sink holds back lines (``_held``) and the controller's
#: per-leaf cache keeps the sink's prepared metadata batch (was its
#: metadata items): an older sink fails its first issue.
CHECKPOINT_FORMAT = 16
_MAGIC = "repro-sim-checkpoint"


def save_checkpoint(simulation: Simulation, path: PathLike) -> None:
    """Atomically persist a simulation's complete state.

    The parent directory is created if missing.
    """
    payload = {
        "magic": _MAGIC,
        "format": CHECKPOINT_FORMAT,
        "position": simulation.position,
        "simulation": simulation,
    }
    path = str(path)
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        pickle.dump(payload, fh, protocol=pickle.HIGHEST_PROTOCOL)
    os.replace(tmp, path)


def load_checkpoint(path: PathLike) -> Simulation:
    """Load a checkpoint written by :func:`save_checkpoint`."""
    try:
        with open(path, "rb") as fh:
            payload = pickle.load(fh)
    except OSError as exc:
        raise ValueError(f"{path}: cannot read checkpoint: "
                         f"{exc.strerror or exc}") from exc
    except (pickle.UnpicklingError, EOFError, AttributeError,
            ImportError, IndexError) as exc:
        raise ValueError(f"{path}: not a simulation checkpoint: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("magic") != _MAGIC:
        raise ValueError(f"{path}: not a simulation checkpoint")
    fmt = payload.get("format")
    if fmt != CHECKPOINT_FORMAT:
        raise ValueError(
            f"{path}: unsupported checkpoint format {fmt!r} "
            f"(expected {CHECKPOINT_FORMAT})"
        )
    simulation = payload.get("simulation")
    if not isinstance(simulation, Simulation):
        raise ValueError(
            f"{path}: checkpoint payload is "
            f"{type(simulation).__name__}, expected Simulation"
        )
    return simulation
