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
CHECKPOINT_FORMAT = 5
_MAGIC = "repro-sim-checkpoint"


def save_checkpoint(simulation: Simulation, path: PathLike) -> None:
    """Atomically persist a simulation's complete state."""
    payload = {
        "magic": _MAGIC,
        "format": CHECKPOINT_FORMAT,
        "position": simulation.position,
        "simulation": simulation,
    }
    path = str(path)
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        pickle.dump(payload, fh, protocol=pickle.HIGHEST_PROTOCOL)
    os.replace(tmp, path)


def load_checkpoint(path: PathLike) -> Simulation:
    """Load a checkpoint written by :func:`save_checkpoint`."""
    try:
        with open(path, "rb") as fh:
            payload = pickle.load(fh)
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
