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
from repro.parallel.executor import Cell, CellResult
from repro.report import assemble
from repro.oram.recovery import BACKOFF_BASE_NS, RobustnessConfig
from repro.oram.validate import diagnose_robustness
from repro.sim.engine import SimConfig
from repro.sim.results import SimResult
from repro.sim.runner import make_trace, run_sims


#: Every campaign replays one SPEC benchmark on classic Ring ORAM,
#: measured from the first request; an outage lasts up to two operations.
SCHEME, SUITE, BENCH = "ring", "spec", "mcf"
WARMUP_REQUESTS = 0
MAX_OUTAGE_OPS = 2


@dataclass
class CampaignConfig:
    """One campaign invocation (the report's ``config`` block).

    Every campaign sweeps all of :data:`~repro.faults.plan.FAULT_KINDS`
    under the default recovery ladder (:class:`RobustnessConfig`'s retry
    budget, then quarantine-and-rebuild).
    """

    levels: int = 10
    n_requests: int = 600
    seed: int = 0
    rates: Sequence[float] = (0.002, 0.01)
    integrity: bool = True
    smoke: bool = False
    #: Process-pool width for the baseline and the kind x rate cells.
    #: Not part of to_dict(): the report's config block describes the
    #: sweep's *content*, which worker count must never change.
    workers: int = 1
    progress: Any = field(default=None, repr=False)  # callable(str)

    def __post_init__(self) -> None:
        for r in self.rates:
            if not 0.0 <= r <= 1.0:
                raise ValueError(f"fault rate must be in [0, 1], got {r}")
        if not self.rates:
            raise ValueError("need at least one fault rate")

    def to_dict(self) -> Dict[str, Any]:
        return {
            "scheme": SCHEME,
            "suite": SUITE,
            "bench": BENCH,
            "levels": self.levels,
            "n_requests": self.n_requests,
            "warmup_requests": WARMUP_REQUESTS,
            "seed": self.seed,
            "kinds": list(FAULT_KINDS),
            "rates": [float(r) for r in self.rates],
            "retry_budget": RobustnessConfig().retry_budget,
            "backoff_base_ns": BACKOFF_BASE_NS,
            "quarantine": True,
            "integrity": self.integrity,
            "max_outage_ops": MAX_OUTAGE_OPS,
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


def run_campaign(cfg: Optional[CampaignConfig] = None) -> Dict[str, Any]:
    """Run the sweep of ``cfg`` and return the report document.

    The fault-free baseline and every kind x rate cell are jobs of one
    :func:`run_sims` fan-out over the one trace (``cfg.workers > 1``
    uses a process pool); every cell is normalized against the baseline
    after it. The report contains no wall-clock fields, so serial and
    parallel runs emit byte-identical JSON. A failed baseline raises; a
    cell whose worker raises -- or dies outright -- becomes an
    ``{"fault", "rate", "error"}`` entry instead of aborting the sweep.
    """
    cfg = cfg or full_config()
    robustness = RobustnessConfig(integrity=cfg.integrity)
    doctor = diagnose_robustness(
        robustness, n_requests=cfg.n_requests, faults_enabled=True
    )
    scheme = schemes_mod.by_name(SCHEME, cfg.levels)
    trace = make_trace(SUITE, BENCH, scheme.n_real_blocks, cfg.n_requests,
                       seed=cfg.seed)
    identities = [
        {"fault": kind, "rate": float(rate)}
        for kind in FAULT_KINDS for rate in cfg.rates
    ]
    plans = [None] + [
        FaultPlan(
            seed=cfg.seed,
            rates={ident["fault"]: ident["rate"]},
            max_outage_ops=MAX_OUTAGE_OPS,
        )
        for ident in identities
    ]
    keys = ["baseline"] + [FAULTS.cell_key(ident) for ident in identities]
    base_res, *outputs = run_sims(
        [
            Cell(key, (scheme, trace, SimConfig(
                seed=cfg.seed,
                warmup_requests=WARMUP_REQUESTS,
                robustness=robustness,
                fault_plan=plan,
            )))
            for key, plan in zip(keys, plans)
        ],
        workers=cfg.workers,
        progress=cfg.progress,
    )
    if not base_res.ok:
        raise RuntimeError(f"fault-free baseline failed:\n{base_res.error}")
    base: SimResult = base_res.value
    base_ds = (base.robustness or {}).get("datastore") or {}
    baseline = {
        "exec_ns": float(base.exec_ns),
        "stash_peak": int(base.stash_peak),
        "seals": int(base_ds.get("seals", 0)),
        "opens": int(base_ds.get("opens", 0)),
    }
    cells = [
        CellResult(res.key, True, _cell(
            ident["fault"], ident["rate"], res.value, baseline["exec_ns"],
        )) if res.ok else res
        for ident, res in zip(identities, outputs)
    ]
    return assemble(
        FAULTS, cfg.to_dict(), identities, cells,
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
