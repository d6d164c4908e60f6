"""Correctness oracle: what every run's outputs are checked against.

One dict reference model for every serving configuration (plain,
sealed, faults armed, sharded): requests on one key take effect in
arrival order, an operation that was not acknowledged ``ok`` has no
effect, and every acknowledged read must return exactly the bytes the
model holds (values are functions of ``(key, rid)``, so a stale or
crossed answer cannot collide with the right one).

The other checks are structural: the controller's own invariants, the
sealed store's Merkle tree against its on-chip root, tamper detection,
fleet-vs-serial identity, and the paper's closed-form space numbers.
Each check returns a list of findings; empty means pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple

#: Normalised tree bytes at the paper's L24 (Fig. 8a), three digits.
PAPER_SPACE_L24 = {"DR": "0.754", "NS": "0.812", "AB": "0.645"}

_MAX_FINDINGS = 5


@dataclass
class KvVerdict:
    """What the reference model says about one run's completions."""

    #: rids completed ``ok`` with exactly the model's answer.
    answered: Set[int] = field(default_factory=set)
    #: rids completed ``ok`` with a zero-filled payload: the recovery
    #: ladder's last rung (``payload_resets``) destroyed the bytes and
    #: the store says so only in its counters. Not a violation of the
    #: ladder as documented, but not an answer either.
    lost: Set[int] = field(default_factory=set)
    #: Distinct damage events behind ``lost`` (each needs >= 1 reset).
    loss_events: int = 0
    #: No completion, two completions, or bytes no ladder rung explains
    #: (stale, crossed, invented): the program is wrong.
    violations: int = 0
    findings: List[str] = field(default_factory=list)


def check_kv_answers(
    initial: Iterable[Tuple[bytes, bytes]],
    requests: Sequence[Any],
    completions: Sequence[Any],
    chunk_payload: int,
) -> KvVerdict:
    """Replay acknowledged operations per key; compare every answer.

    Requests on one key take effect in ``(arrival, rid)`` order; one not
    completed ``ok`` has no effect. A read whose bytes are the model's
    value with whole ``chunk_payload``-sized pieces blanked is counted
    ``lost`` (and the model adopts the damaged value, as the store
    did); any other disagreement is a violation.
    """
    model: Dict[bytes, bytes] = dict(initial)
    damaged: set = set()        # keys whose stored value is a blanked one
    verdict = KvVerdict()
    by_rid: Dict[int, Any] = {}
    for comp in completions:
        if comp.rid in by_rid:
            verdict.violations += 1
            verdict.findings.append(f"request {comp.rid} completed twice")
        by_rid[comp.rid] = comp
    per_key: Dict[bytes, List[Any]] = {}
    for req in requests:
        per_key.setdefault(req.key, []).append(req)
    for key, reqs in per_key.items():
        reqs.sort(key=lambda r: (r.arrival_ns, r.rid))
        for req in reqs:
            comp = by_rid.get(req.rid)
            if comp is None:
                verdict.violations += 1
                verdict.findings.append(
                    f"request {req.rid} ({req.op}) never completed"
                )
                continue
            if comp.status != "ok":
                continue        # refused cleanly: no effect on the store
            held = model.get(key)
            if req.op == "put":
                model[key] = req.value
                damaged.discard(key)
                wrong = not comp.ok
            elif req.op == "delete":
                model.pop(key, None)
                damaged.discard(key)
                wrong = comp.ok != (held is not None)
            else:
                wrong = comp.value != held or comp.ok != (held is not None)
                if wrong and _zero_filled(comp.value, held, chunk_payload):
                    verdict.loss_events += 1
                    model[key] = comp.value
                    damaged.add(key)
                    wrong = False
                if not wrong and key in damaged:
                    verdict.lost.add(req.rid)
                    continue
            if wrong:
                verdict.violations += 1
                verdict.findings.append(
                    f"request {req.rid} ({req.op} {key!r}): answered "
                    f"ok={comp.ok} value={_clip(comp.value)}, "
                    f"model holds {_clip(held)}"
                )
            else:
                verdict.answered.add(req.rid)
    del verdict.findings[_MAX_FINDINGS:]
    return verdict


def _zero_filled(got: Optional[bytes], held: Optional[bytes], chunk: int) -> bool:
    """``got`` is ``held`` with one or more whole chunks blanked."""
    if got is None or held is None:
        return False
    pieces = [held[i:i + chunk] for i in range(0, len(held), chunk)] or [b""]
    reachable = {b""}
    for piece in pieces:
        reachable = {r + p for r in reachable for p in (piece, b"")}
    return got in reachable and got != held


def _clip(value: Optional[bytes]) -> str:
    if value is None:
        return "None"
    return repr(value[:24]) + ("..." if len(value) > 24 else "")


def check_invariants(oram: Any) -> List[str]:
    """The controller's global protocol invariants (its own test hook)."""
    try:
        oram.check_invariants()
    except AssertionError as exc:
        return [f"check_invariants: {exc}"]
    return []


def check_merkle(datastore: Any, n_leaves: int) -> List[str]:
    """Every path of the sealed image verifies against the pinned root."""
    from repro.crypto.integrity import IntegrityError

    if datastore is None or datastore.integrity is None:
        return []
    for leaf in range(n_leaves):
        try:
            datastore.verify_path(leaf)
        except IntegrityError as exc:
            return [f"merkle: path {leaf} does not verify: {exc}"]
    return []


def check_detection(
    summary: Dict[str, Any], rates: Dict[str, float]
) -> List[str]:
    """Every injected tamper fault was detected -- and the plan fired.

    ``rates`` is the armed plan's per-operation rate of each fault kind
    the check covers. A run too short for the plan to fire (fewer than
    five injections expected) may inject nothing; a full-size one that
    injects nothing is not a chaos run.
    """
    injected = sum(summary["injected"][k] for k in rates)
    detected = sum(summary["detected"][k] for k in rates)
    # Roughly half the wrapper's operations (the opens) are eligible.
    expected = summary["ops"] * sum(rates.values()) / 2
    if injected == 0 and expected >= 5:
        return [f"faults: the armed plan injected nothing in "
                f"{summary['ops']} operations"]
    if detected != injected:
        return [f"faults: detected {detected} of {injected} injected"]
    return []


def check_fleet_identity(
    fleet_doc: Dict[str, Any], serial_cells: Dict[int, Dict[str, Any]]
) -> List[str]:
    """Pool-run shard blocks equal the in-process serial shards."""
    findings = []
    if "error" in fleet_doc:
        findings.append(f"fleet: {fleet_doc['error']}")
    shards = {s["shard"]: s for s in fleet_doc["shards"]}
    for shard, cell in sorted(serial_cells.items()):
        got = shards.get(shard)
        if got is None or "error" in got:
            findings.append(f"fleet: shard {shard} missing or errored")
            continue
        for key, want in cell.items():
            have = got["sim"].get(key) if key != "stored_keys" else got[key]
            if have != want:
                findings.append(
                    f"fleet: shard {shard} {key} {have!r} != serial {want!r}"
                )
    return findings[:_MAX_FINDINGS]


def check_paper_space() -> List[str]:
    """``analysis.space`` reproduces the paper's L24 space numbers."""
    from repro.analysis.space import normalized_space
    from repro.core import schemes

    norm = normalized_space(schemes.main_schemes(schemes.PAPER_LEVELS))
    return [
        f"space: {name} normalised {norm[name]:.3f}, paper {want}"
        for name, want in PAPER_SPACE_L24.items()
        if f"{norm[name]:.3f}" != want
    ]
