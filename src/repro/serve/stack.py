"""Assemble the served-KV stack: ORAM + DRAM timing + telemetry.

The stack under the store is :func:`repro.sim.engine.build_oram_stack`
-- the same recipe :class:`~repro.sim.engine.Simulation` uses (the
metadata-aware tree layout, the event-based DRAM model behind a
:class:`~repro.sim.engine.DramSink` that records per-operation DRAM-ns
spans into ``telemetry``). This module puts an
:class:`~repro.app.kvstore.ObliviousKV` on top instead of a trace
replayer and attaches the section VI-C
:class:`~repro.core.security.GuessingAttacker` so every serve run can
report that batching left per-access indistinguishability intact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional

from repro.app.kvstore import ObliviousKV
from repro.core import schemes as schemes_mod
from repro.core.security import GuessingAttacker
from repro.oram.recovery import RobustnessConfig
from repro.sim.engine import build_oram_stack


@dataclass
class ServedStack:
    """Everything one serving cell owns."""

    kv: ObliviousKV
    #: DramSink, or a PipelinedDramSink when built with depth > 1
    #: (both expose ``now`` and the per-op attribution counters).
    dram_sink: Any
    telemetry: Optional[Any] = None
    attacker: Optional[GuessingAttacker] = None
    #: Sealed data path + fault wrapper, present only on chaos stacks
    #: (``build_stack`` with a robustness policy / fault plan).
    datastore: Optional[Any] = None
    faulty: Optional[Any] = None

    @property
    def now_ns(self) -> float:
        return self.dram_sink.now

    def arm_faults(self) -> None:
        """Start injecting the fault plan (call after population)."""
        if self.faulty is not None:
            self.faulty.armed = True


def build_stack(
    scheme: str = "ab",
    levels: int = 10,
    seed: int = 0,
    pad_chunks: int = 1,
    telemetry: Optional[Any] = None,
    observer: bool = True,
    robustness: Optional[RobustnessConfig] = None,
    fault_plan: Optional[Any] = None,
    pipeline_depth: int = 1,
    dram_window: int = 32,
) -> ServedStack:
    """Build a timed, observable KV store over a fresh ORAM.

    The default payload path is the plaintext ``store_data`` dict:
    serving benchmarks measure scheduling and simulated memory time,
    and the sealed data path's crypto cost is host CPU the perf/faults
    harnesses already cover.

    Passing ``robustness`` (or a ``fault_plan``, which implies
    ``RobustnessConfig(integrity=True)``) builds the *chaos* variant
    instead, mirroring :class:`~repro.sim.engine.Simulation`: payloads
    route through an :class:`~repro.oram.datastore.EncryptedTreeStore`
    (ChaCha20 + MAC + Merkle) optionally wrapped in a
    :class:`~repro.faults.memory.FaultyMemory` injecting the plan's
    faults. The wrapper starts disarmed so the store can be populated
    cleanly; call :meth:`ServedStack.arm_faults` before the measured
    run. Sealed stacks cannot ``preload`` -- populate with real puts.

    ``pipeline_depth > 1`` serves on the transaction-pipelined
    controller (:mod:`repro.core.pipeline`): path reads of request k+1
    overlap the reshuffle drain of request k on a windowed DRAM model.
    Timing only -- responses are identical at every depth.
    """
    cfg = schemes_mod.by_name(scheme, levels)
    attacker = GuessingAttacker(cfg.levels, seed=seed + 1) if observer else None
    stack = build_oram_stack(
        cfg, seed=seed, key_domain=b"repro/serve|",
        pipeline_depth=pipeline_depth, dram_window=dram_window,
        telemetry=telemetry, robustness=robustness, fault_plan=fault_plan,
        observers=[attacker] if attacker is not None else [],
        store_data=True,
    )
    return ServedStack(
        kv=ObliviousKV(stack.oram, pad_chunks=pad_chunks),
        dram_sink=stack.dram_sink, telemetry=telemetry, attacker=attacker,
        datastore=stack.datastore, faulty=stack.faulty,
    )


def attacker_block(attacker: Optional[GuessingAttacker]) -> Optional[dict]:
    """The report's ``security`` block (None when no observer ran)."""
    if attacker is None or attacker.guesses == 0:
        return None
    return {
        "guesses": int(attacker.guesses),
        "success_rate": attacker.success_rate,
        "expected_rate": attacker.expected_rate,
        "advantage": attacker.advantage(),
    }


__all__: List[str] = [
    "ServedStack",
    "attacker_block",
    "build_stack",
]
