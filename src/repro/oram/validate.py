"""Configuration doctor: catch unsound ORAM configurations early.

A Ring ORAM configuration can be subtly broken in ways that only
surface as protocol errors deep into a run (a bucket with no readable
slot) or as silent performance cliffs (a stash threshold that forces a
dummy access per request). ``diagnose`` inspects an
:class:`~repro.oram.config.OramConfig` and returns a list of findings;
``simulate`` prints :func:`diagnose_robustness`'s findings before a
run.

Checks implemented (each encodes an invariant discussed in DESIGN.md
or the paper):

- every level sustains at least one read without an extension
  (section VI-B: "each bucket contains at least one dummy slot");
- Z' never shrinks below what the protected-block density requires;
- remote extensions only on DeadQ-tracked levels (and vice versa);
- stash threshold leaves headroom for a path worth of transit blocks;
- AB metadata still fits the per-bucket metadata block budget;
- DeadQ capacity is sane relative to the tracked levels' demand.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.oram.config import OramConfig
from repro.oram.metadata import ab_metadata_fields, metadata_bytes
from repro.oram.recovery import RobustnessConfig

#: Runs at least this long with integrity enabled should checkpoint:
#: a single late fault otherwise throws away the whole sweep.
LONG_RUN_REQUESTS = 10_000

ERROR = "ERROR"
WARNING = "WARNING"
INFO = "INFO"


@dataclass(frozen=True)
class Finding:
    severity: str
    code: str
    message: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"[{self.severity}] {self.code}: {self.message}"


def diagnose(cfg: OramConfig) -> List[Finding]:
    """Inspect ``cfg`` and return all findings (possibly empty)."""
    findings: List[Finding] = []

    # --- per-level protocol soundness
    for lv, g in enumerate(cfg.geometry):
        if g.sustain_unextended < 1:
            findings.append(Finding(
                ERROR, "sustain-zero",
                f"level {lv}: S + Y = {g.sustain_unextended}; a bucket "
                f"could be unreadable when no extension is granted",
            ))
        if g.remote_extension > 0 and lv not in cfg.deadq_levels:
            findings.append(Finding(
                ERROR, "extension-untracked",
                f"level {lv} requests an S extension but has no DeadQ",
            ))
        if g.overlap > 0 and g.overlap == g.z_real:
            findings.append(Finding(
                WARNING, "overlap-full",
                f"level {lv}: Y = Z' = {g.overlap}; every real block can "
                f"be greened into the stash within one round",
            ))

    for lv in cfg.deadq_levels:
        if cfg.geometry[lv].remote_extension == 0:
            findings.append(Finding(
                WARNING, "deadq-unused",
                f"level {lv} is DeadQ-tracked but never rents "
                f"(remote_extension = 0)",
            ))

    # --- capacity pressure
    density = cfg.n_real_blocks / cfg.total_slots
    if density > cfg.utilization * 1.25:
        findings.append(Finding(
            ERROR, "overfull",
            f"{cfg.n_real_blocks} protected blocks in {cfg.total_slots} "
            f"slots ({density:.0%}); stash divergence likely",
        ))
    z_real_capacity = sum(
        cfg.buckets_at(lv) * g.z_real for lv, g in enumerate(cfg.geometry)
    )
    if cfg.n_real_blocks > 0.8 * z_real_capacity:
        findings.append(Finding(
            ERROR, "zreal-overfull",
            f"protected blocks exceed 80% of Z' capacity "
            f"({cfg.n_real_blocks}/{z_real_capacity})",
        ))

    # --- stash sizing
    transit = cfg.levels * max(g.z_real for g in cfg.geometry)
    if cfg.background_evict_threshold + transit > cfg.stash_capacity:
        findings.append(Finding(
            WARNING, "stash-headroom",
            f"threshold {cfg.background_evict_threshold} + one path of "
            f"transit blocks ({transit}) exceeds capacity "
            f"{cfg.stash_capacity}; overflow possible during evictPath",
        ))

    # --- metadata budget
    if cfg.deadq_levels or any(g.remote_extension for g in cfg.geometry):
        ab_bytes = metadata_bytes(ab_metadata_fields(cfg))
        if ab_bytes > cfg.block_bytes:
            findings.append(Finding(
                WARNING, "metadata-overflow",
                f"AB metadata is {ab_bytes}B > one {cfg.block_bytes}B "
                f"block; metadata accesses double",
            ))

    # --- DeadQ sizing
    if cfg.deadq_levels:
        smallest_level = min(cfg.deadq_levels)
        buckets = cfg.buckets_at(smallest_level)
        if cfg.deadq_capacity < 2 * max(
            g.remote_extension for g in cfg.geometry
        ):
            findings.append(Finding(
                WARNING, "deadq-tiny",
                f"DeadQ capacity {cfg.deadq_capacity} cannot hold two "
                f"extensions' worth of entries",
            ))
        findings.append(Finding(
            INFO, "deadq-pressure",
            f"DeadQ holds {cfg.deadq_capacity} entries per level; the "
            f"smallest tracked level has {buckets} buckets "
            f"({cfg.deadq_capacity / buckets:.2f} entries/bucket)",
        ))

    return findings


def diagnose_robustness(
    robustness: Optional[RobustnessConfig],
    n_requests: Optional[int] = None,
    checkpoint_every: int = 0,
    faults_enabled: bool = False,
) -> List[Finding]:
    """Inspect a robustness policy in the context of one run.

    ``n_requests`` and ``checkpoint_every`` describe the run the policy
    will govern; ``faults_enabled`` says whether a fault plan with
    non-zero rates is attached.
    """
    findings: List[Finding] = []
    if robustness is None:
        if faults_enabled:
            findings.append(Finding(
                ERROR, "faults-unguarded",
                "a fault plan is attached but no robustness policy is "
                "configured; injected faults would crash the run",
            ))
        return findings

    if faults_enabled and robustness.retry_budget == 0:
        findings.append(Finding(
            WARNING, "retry-zero",
            "retry budget is 0 with faults enabled; every transient "
            "outage escalates straight to quarantine-and-rebuild",
        ))

    if faults_enabled and not robustness.integrity:
        findings.append(Finding(
            WARNING, "faults-without-integrity",
            "faults are enabled without the integrity tree; replayed "
            "slots will be accepted undetected",
        ))

    if (robustness.integrity and n_requests is not None
            and n_requests >= LONG_RUN_REQUESTS and checkpoint_every <= 0):
        findings.append(Finding(
            WARNING, "integrity-no-checkpoint",
            f"integrity verification on a {n_requests}-request run "
            f"without checkpointing; use --checkpoint-every so a late "
            f"fault cannot discard the whole run",
        ))

    return findings
