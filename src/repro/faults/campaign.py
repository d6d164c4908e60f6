"""The fault-injection campaign: sweep fault kind x rate, measure
detection and recovery.

One campaign is a fault-free *baseline* run plus one cell per (fault
kind, rate) pair, all replaying the identical trace against the
identical scheme with the identical seeds -- so a cell's ``exec_ns``
differs from the baseline's only through the recovery work the
injected faults caused (retries with backoff, quarantine rebuilds).

Every number in the report is deterministic: the trace, warm fill,
protocol RNG and fault draws are all seed-pinned and there are no
wall-clock measurements, so two runs of the same campaign emit
byte-identical JSON. That is what lets CI assert 100% detection for
tampering faults instead of eyeballing a flaky ratio.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Sequence

from repro.core import schemes as schemes_mod
from repro.faults.plan import FAULT_KINDS, TAMPER_KINDS, FaultPlan
from repro.faults.schema import FAULTS
from repro.parallel.executor import Cell, report_progress, run_cells
from repro.report import assemble
from repro.oram.recovery import RobustnessConfig
from repro.oram.validate import diagnose_robustness
from repro.sim.engine import SimConfig, Simulation
from repro.sim.results import SimResult
from repro.sim.runner import make_trace


@dataclass
class CampaignConfig:
    """One campaign invocation (the report's ``config`` block)."""

    scheme: str = "ring"
    suite: str = "spec"
    bench: str = "mcf"
    levels: int = 10
    n_requests: int = 600
    warmup_requests: int = 0
    seed: int = 0
    kinds: Sequence[str] = FAULT_KINDS
    rates: Sequence[float] = (0.002, 0.01)
    retry_budget: int = 3
    backoff_base_ns: float = 200.0
    quarantine: bool = True
    integrity: bool = True
    max_outage_ops: int = 2
    smoke: bool = False
    #: Process-pool width for the kind x rate cells. Not part of
    #: to_dict(): the report's config block describes the sweep's
    #: *content*, which worker count must never change.
    workers: int = 1
    progress: Any = field(default=None, repr=False)  # callable(str)

    def __post_init__(self) -> None:
        unknown = sorted(set(self.kinds).difference(FAULT_KINDS))
        if unknown:
            raise ValueError(
                f"unknown fault kinds {unknown}; choose from {FAULT_KINDS}"
            )
        for r in self.rates:
            if not 0.0 <= r <= 1.0:
                raise ValueError(f"fault rate must be in [0, 1], got {r}")
        if not self.rates:
            raise ValueError("need at least one fault rate")
        if not self.kinds:
            raise ValueError("need at least one fault kind")

    def to_dict(self) -> Dict[str, Any]:
        return {
            "scheme": self.scheme,
            "suite": self.suite,
            "bench": self.bench,
            "levels": self.levels,
            "n_requests": self.n_requests,
            "warmup_requests": self.warmup_requests,
            "seed": self.seed,
            "kinds": list(self.kinds),
            "rates": [float(r) for r in self.rates],
            "retry_budget": self.retry_budget,
            "backoff_base_ns": float(self.backoff_base_ns),
            "quarantine": self.quarantine,
            "integrity": self.integrity,
            "max_outage_ops": self.max_outage_ops,
            "smoke": self.smoke,
        }


def full_config(**overrides: Any) -> CampaignConfig:
    """The default sweep: every fault kind at two rates."""
    return replace(CampaignConfig(), **overrides)


def smoke_config(**overrides: Any) -> CampaignConfig:
    """A seconds-scale campaign for CI: one rate, a small tree."""
    base = CampaignConfig(
        levels=9,
        n_requests=250,
        rates=(0.01,),
        smoke=True,
    )
    return replace(base, **overrides)


def _robustness(cfg: CampaignConfig) -> RobustnessConfig:
    return RobustnessConfig(
        integrity=cfg.integrity,
        retry_budget=cfg.retry_budget,
        backoff_base_ns=cfg.backoff_base_ns,
        quarantine=cfg.quarantine,
    )


def _run_one(
    cfg: CampaignConfig, plan: Optional[FaultPlan]
) -> SimResult:
    scheme = schemes_mod.by_name(cfg.scheme, cfg.levels)
    trace = make_trace(
        cfg.suite, cfg.bench, scheme.n_real_blocks, cfg.n_requests,
        seed=cfg.seed,
    )
    sim = SimConfig(
        seed=cfg.seed,
        warmup_requests=cfg.warmup_requests,
        robustness=_robustness(cfg),
        fault_plan=plan,
    )
    return Simulation(scheme, trace, sim).run()


def _cell(
    kind: str,
    rate: float,
    result: SimResult,
    baseline_exec_ns: float,
) -> Dict[str, Any]:
    rb = result.robustness or {}
    f = rb.get("faults") or {}
    c = rb.get("counters") or {}
    injected = int(sum((f.get("injected") or {}).values()))
    detected = int(sum((f.get("detected") or {}).values()))
    undetected = int(sum((f.get("undetected") or {}).values()))
    observed = detected + undetected
    pending = int(c.get("quarantines", 0)) - int(c.get("rebuilds", 0))
    recovered = int(c.get("recovered", 0)) + int(c.get("transient_recovered", 0))
    unrecovered = int(c.get("unrecovered", 0)) + max(0, pending)
    return {
        "fault": kind,
        "rate": float(rate),
        "injected": injected,
        "detected": detected,
        "undetected": undetected,
        "masked": int(f.get("masked_drops", 0)),
        "latent": int(f.get("latent_drops", 0)),
        # Observed = detected + undetected; masked drops (overwritten
        # before any read) and latent ones (never read again) are not
        # detection opportunities and sit outside the denominator.
        "detection_rate": (detected / observed) if observed else 1.0,
        "recovered": recovered,
        "unrecovered": unrecovered,
        "recovery_rate": (
            recovered / (recovered + unrecovered)
            if (recovered + unrecovered) else 1.0
        ),
        "retries": int(c.get("retries", 0)),
        "rebuilds": int(c.get("rebuilds", 0)),
        "quarantines": int(c.get("quarantines", 0)),
        "payload_resets": int(c.get("payload_resets", 0)),
        "stash_served": int(c.get("stash_served_reads", 0)),
        "exec_ns": float(result.exec_ns),
        "overhead_x": (
            float(result.exec_ns) / baseline_exec_ns
            if baseline_exec_ns > 0 else 0.0
        ),
        "stash_peak": int(result.stash_peak),
    }


def _campaign_cell_task(payload: Any) -> Dict[str, Any]:
    """One (kind, rate) cell, runnable in-process or in a spawn worker.

    Returns the finished report cell; the baseline's exec_ns rides in
    the payload so workers never need shared state.
    """
    cfg, kind, rate, baseline_exec_ns = payload
    report_progress(f"injecting {kind} at rate {rate:g} ...")
    plan = FaultPlan(
        seed=cfg.seed,
        rates={kind: float(rate)},
        max_outage_ops=cfg.max_outage_ops,
    )
    result = _run_one(cfg, plan)
    return _cell(kind, rate, result, baseline_exec_ns)


def run_campaign(cfg: Optional[CampaignConfig] = None) -> Dict[str, Any]:
    """Run the sweep of ``cfg`` and return the report document.

    The fault-free baseline always runs first (serially -- every cell
    normalizes against it); ``cfg.workers > 1`` then fans the kind x
    rate cells over a spawn pool. The report contains no wall-clock
    fields, so serial and parallel runs emit byte-identical JSON. A
    cell whose worker raises -- or dies outright -- becomes an
    ``{"fault", "rate", "error"}`` entry instead of aborting the sweep.
    """
    cfg = cfg or full_config()
    doctor = diagnose_robustness(
        _robustness(cfg), n_requests=cfg.n_requests, faults_enabled=True
    )
    if cfg.progress is not None:
        cfg.progress("running fault-free baseline ...")
    base = _run_one(cfg, plan=None)
    base_rb = base.robustness or {}
    base_ds = base_rb.get("datastore") or {}
    baseline = {
        "exec_ns": float(base.exec_ns),
        "stash_peak": int(base.stash_peak),
        "seals": int(base_ds.get("seals", 0)),
        "opens": int(base_ds.get("opens", 0)),
    }
    # What ships to workers must be progress-free (callbacks do not
    # pickle; report_progress routes through the pool's queue).
    worker_cfg = replace(cfg, progress=None, workers=1)
    identities = [
        {"fault": kind, "rate": float(rate)}
        for kind in cfg.kinds for rate in cfg.rates
    ]
    outputs = run_cells(
        _campaign_cell_task,
        [
            Cell(FAULTS.cell_key(ident),
                 (worker_cfg, ident["fault"], ident["rate"], baseline["exec_ns"]))
            for ident in identities
        ],
        workers=cfg.workers,
        progress=cfg.progress,
    )
    return assemble(
        FAULTS, cfg.to_dict(), identities, outputs,
        doctor=[str(fd) for fd in doctor], baseline=baseline,
    )


def detection_check(doc: Dict[str, Any]) -> List[str]:
    """CI gate: every tampering fault must have been detected.

    Quantifies over the cells whose faults tamper with sealed state
    (:data:`~repro.faults.plan.TAMPER_KINDS`); with the integrity tree
    on, each injected one must be detected. Returns findings (empty =
    pass).
    """
    problems: List[str] = []
    for cell in doc["cells"]:
        if cell["fault"] not in TAMPER_KINDS:
            continue
        if "error" in cell:
            # An errored tampering cell means detection went
            # unverified; that is a gap, not a pass.
            problems.append(f"{FAULTS.cell_key(cell)}: cell errored")
        elif cell["undetected"] or cell["detected"] != cell["injected"]:
            problems.append(
                f"{FAULTS.cell_key(cell)}: "
                f"injected={cell['injected']} "
                f"detected={cell['detected']} "
                f"undetected={cell['undetected']}"
            )
    return problems
