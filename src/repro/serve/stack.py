"""Assemble the served-KV stack: ORAM + DRAM timing + telemetry.

The stack under the store is :func:`repro.sim.engine.build_oram_stack`
-- the same recipe :class:`~repro.sim.engine.Simulation` uses (the
metadata-aware tree layout, the event-based DRAM model behind a
:class:`~repro.sim.engine.DramSink` that records per-operation DRAM-ns
spans into ``telemetry``). This module puts an
:class:`~repro.app.kvstore.ObliviousKV` on top instead of a trace
replayer and, on request (``observer=True``), the section VI-C
:class:`~repro.core.security.GuessingAttacker`, so a serve run that
reports a ``security`` block can show that batching left per-access
indistinguishability intact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional

from repro.app.kvstore import ObliviousKV
from repro.core import schemes as schemes_mod
from repro.core.security import GuessingAttacker
from repro.oram.recovery import RobustnessConfig
from repro.sim.engine import build_oram_stack

#: The scheme every served stack runs: the paper's AB-ORAM.
SCHEME = "ab"


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

    def arm_faults(self) -> None:
        """Start injecting the fault plan (call after population)."""
        if self.faulty is not None:
            self.faulty.armed = True


def build_stack(
    scheme: str = SCHEME,
    levels: int = 10,
    seed: int = 0,
    telemetry: Optional[Any] = None,
    observer: bool = False,
    robustness: Optional[RobustnessConfig] = None,
    fault_plan: Optional[Any] = None,
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
    (BLAKE2b keystream + MAC + Merkle) optionally wrapped in a
    :class:`~repro.faults.memory.FaultyMemory` injecting the plan's
    faults. The wrapper starts disarmed so the store can be populated
    cleanly; call :meth:`ServedStack.arm_faults` before the measured
    run. Sealed stacks cannot ``preload`` -- populate with real puts.
    The stack serves on the serial controller (depth 1).

    ``observer`` attaches the guessing attacker (``ServedStack
    .attacker``), whose ``security`` block only the callers that report
    one read; it observes and never steers, so every other counter is
    the same without it.
    """
    cfg = schemes_mod.by_name(scheme, levels)
    attacker = GuessingAttacker(cfg.levels, seed=seed + 1) if observer else None
    stack = build_oram_stack(
        cfg, seed=seed, key_domain=b"repro/serve|",
        telemetry=telemetry, robustness=robustness, fault_plan=fault_plan,
        observers=[attacker] if attacker is not None else [],
        store_data=True,
    )
    return ServedStack(
        kv=ObliviousKV(stack.oram),
        dram_sink=stack.dram_sink, telemetry=telemetry, attacker=attacker,
        datastore=stack.datastore, faulty=stack.faulty,
    )


def attacker_block(attacker: Optional[GuessingAttacker]) -> Optional[dict]:
    """The report's ``security`` block (None when no observer ran)."""
    if attacker is None or attacker.guesses == 0:
        return None
    return attacker.summary()


__all__: List[str] = [
    "ServedStack",
    "attacker_block",
    "build_stack",
]
