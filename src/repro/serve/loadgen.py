"""Open-loop load generation: arrivals, key popularity, op mixes.

Everything is derived from one ``numpy`` generator pinned on the
workload seed, so a workload is a pure function of its config -- the
same config always produces byte-identical request sequences, which is
what lets ``BENCH_serve.json`` commit deterministic fields.

**Arrivals** are open loop (they never wait for service):

- ``poisson`` -- i.i.d. exponential gaps at ``rate_rps`` (simulated
  requests per second, i.e. a mean gap of ``1e9 / rate_rps`` ns);
- ``bursty`` -- a two-state modulated Poisson process: exponential-length
  burst and idle phases (means ``BURST_NS`` and ``IDLE_NS``), arriving
  at ``rate_rps * burst_factor`` inside bursts and ``rate_rps *
  IDLE_FACTOR`` outside. Bursts model flash crowds; they are what
  drives deep queues and fat batches.

**Key popularity** is a bounded zipf over a key *universe* of
``n_keys`` ranks (vectorized inverse-CDF sampling, so universes of
millions of keys cost one cumsum). The store can hold at most
``stored_keys`` values (ORAM capacity bounds it), so ranks fold onto
the stored set by ``rank % stored_keys``: the hot head maps
one-to-one, the cold tail folds uniformly, and the skew the scheduler
cares about survives intact.

**Values** are deterministic functions of (key, rid): sizes vary
around ``value_bytes`` so chains span one or more chunks, and the
bytes embed both key and rid so tests can verify every client received
exactly the value per-key FIFO semantics dictate.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Any, Dict, List

import numpy as np

from repro.serve.request import DELETE, GET, PUT, Request

ARRIVALS = ("poisson", "bursty")
#: The bursty process's idle-phase rate (a share of ``rate_rps``) and
#: its mean burst / idle phase lengths (simulated ns).
IDLE_FACTOR = 0.25
BURST_NS = 50_000.0
IDLE_NS = 200_000.0


@dataclass(frozen=True)
class WorkloadConfig:
    """One generated workload (a report ``config.workloads[]`` entry)."""

    name: str
    n_requests: int = 1000
    #: Key-universe size for the zipf popularity ranking; may be far
    #: larger than what the store holds (ranks fold onto stored keys).
    n_keys: int = 100_000
    #: Keys actually materialized in the store before serving.
    stored_keys: int = 800
    arrival: str = "poisson"
    #: Mean offered load, simulated requests per second.
    rate_rps: float = 1_200_000.0
    burst_factor: float = 5.0
    zipf_s: float = 0.99
    read_fraction: float = 0.85
    delete_fraction: float = 0.0
    value_bytes: int = 80
    seed: int = 0
    #: Cells where the batch policy is expected to *strictly* beat
    #: FIFO on accesses (used by the CI dedup gate).
    expect_dedup: bool = True

    def __post_init__(self) -> None:
        if self.arrival not in ARRIVALS:
            raise ValueError(
                f"unknown arrival {self.arrival!r} (expected {ARRIVALS})"
            )
        if self.n_requests < 1:
            raise ValueError("n_requests must be >= 1")
        if not 0 < self.stored_keys <= self.n_keys:
            raise ValueError("need 0 < stored_keys <= n_keys")
        if self.rate_rps <= 0:
            raise ValueError("rate_rps must be positive")
        if not 0.0 <= self.read_fraction <= 1.0:
            raise ValueError("read_fraction must be in [0, 1]")
        if not 0.0 <= self.delete_fraction <= 1.0 - self.read_fraction:
            raise ValueError(
                "delete_fraction must fit in the non-read remainder"
            )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "n_requests": self.n_requests,
            "n_keys": self.n_keys,
            "stored_keys": self.stored_keys,
            "arrival": self.arrival,
            "rate_rps": self.rate_rps,
            "burst_factor": self.burst_factor,
            "idle_factor": IDLE_FACTOR,
            "burst_ns": BURST_NS,
            "idle_ns": IDLE_NS,
            "zipf_s": self.zipf_s,
            "read_fraction": self.read_fraction,
            "delete_fraction": self.delete_fraction,
            "value_bytes": self.value_bytes,
            "seed": self.seed,
            "expect_dedup": self.expect_dedup,
        }


# ------------------------------------------------------------------ pieces

def key_name(key_id: int) -> bytes:
    """Stable byte name of one stored key."""
    return b"k%08d" % key_id


def value_for(key: bytes, rid: int, mean_bytes: int = 80) -> bytes:
    """Deterministic value of one put: size and bytes fixed by inputs.

    Sizes spread over ``[mean - mean//2, mean + mean//2]`` driven by a
    CRC of the key and the request id, so chains cover one or more
    chunks and re-puts exercise chain grow/shrink.
    """
    span = max(1, mean_bytes)
    lo = max(1, span - span // 2)
    width = span // 2 * 2 + 1
    size = lo + (zlib.crc32(key) + 131 * rid) % width
    stamp = b"%s|%d|" % (key, rid)
    if len(stamp) >= size:
        return stamp[:size]
    reps = -(-(size - len(stamp)) // 16)
    return (stamp + b"0123456789abcdef" * reps)[:size]


def _arrival_times(cfg: WorkloadConfig, rng: np.random.Generator) -> np.ndarray:
    n = cfg.n_requests
    mean_gap = 1e9 / cfg.rate_rps
    if cfg.arrival == "poisson":
        return np.cumsum(rng.exponential(mean_gap, size=n))
    # Bursty: walk exponential burst/idle phases, drawing Poisson
    # arrivals at the phase's rate until n requests are placed.
    out = np.empty(n, dtype=np.float64)
    filled = 0
    t = 0.0
    in_burst = True
    while filled < n:
        phase_len = float(rng.exponential(
            BURST_NS if in_burst else IDLE_NS
        ))
        factor = cfg.burst_factor if in_burst else IDLE_FACTOR
        gap = mean_gap / factor if factor > 0 else None
        if gap is not None:
            # Expected arrivals this phase, padded; unused draws are
            # discarded (the generator stays deterministic because the
            # draw count is itself a deterministic function of draws).
            expect = max(8, int(phase_len / gap * 2))
            gaps = rng.exponential(gap, size=expect)
            times = np.cumsum(gaps)
            times = times[times < phase_len]
            take = min(len(times), n - filled)
            out[filled:filled + take] = t + times[:take]
            filled += take
        t += phase_len
        in_burst = not in_burst
    return out


def _zipf_ranks(
    n_keys: int, s: float, n: int, rng: np.random.Generator
) -> np.ndarray:
    """Bounded zipf(s) ranks in [0, n_keys) via inverse-CDF sampling."""
    if s <= 0:
        return rng.integers(0, n_keys, size=n)
    # One n_keys buffer, built in place (the same ops, so the same
    # bits, as ``cumsum(1 / arange(1, n_keys + 1) ** s)`` normalised).
    cdf = np.arange(1, n_keys + 1, dtype=np.float64)
    np.power(cdf, s, out=cdf)
    np.divide(1.0, cdf, out=cdf)
    np.cumsum(cdf, out=cdf)
    cdf /= cdf[-1]
    u = rng.random(n)
    return np.searchsorted(cdf, u, side="left")


# ----------------------------------------------------------------- driver

def initial_items(cfg: WorkloadConfig) -> List[tuple]:
    """The (key, value) pairs preloaded into the store before serving."""
    return [
        (key_name(i), value_for(key_name(i), -1, cfg.value_bytes))
        for i in range(cfg.stored_keys)
    ]


def generate_requests(cfg: WorkloadConfig) -> List[Request]:
    """Generate the workload's full request sequence, arrival-ordered."""
    rng = np.random.default_rng(
        np.random.SeedSequence([0x5EE7, cfg.seed, cfg.n_requests])
    )
    n = cfg.n_requests
    arrivals = _arrival_times(cfg, rng)
    ranks = _zipf_ranks(cfg.n_keys, cfg.zipf_s, n, rng)
    key_ids = ranks % cfg.stored_keys
    op_draw = rng.random(n)
    requests: List[Request] = []
    write_cut = cfg.read_fraction + (
        1.0 - cfg.read_fraction - cfg.delete_fraction
    )
    for rid in range(n):
        key = key_name(int(key_ids[rid]))
        u = op_draw[rid]
        if u < cfg.read_fraction:
            op, value = GET, None
        elif u < write_cut:
            op, value = PUT, value_for(key, rid, cfg.value_bytes)
        else:
            op, value = DELETE, None
        requests.append(Request(
            rid=rid, op=op, key=key, value=value,
            arrival_ns=float(arrivals[rid]),
        ))
    return requests
