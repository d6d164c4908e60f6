"""DDR timing parameter sets.

All values are in nanoseconds so the model is frequency-agnostic; the
provided presets are derived from the JEDEC DDR3-1600 speed bin the
paper's configuration implies (800 MHz DRAM clock, Table III).

A memory access decomposes into:

- *row activation* (``t_rcd``) after a *precharge* (``t_rp``) when the
  bank's open row differs from the target (row-buffer miss);
- column access (``t_cas`` for reads, ``t_cwd`` for writes);
- the data burst on the channel bus (``burst_ns``: BL8 on a 64-bit bus
  at 1600 MT/s = 4 bus cycles = 5 ns per 64B line).

``t_wr`` (write recovery) keeps a bank busy after a write burst before
the next precharge may start.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class DramTiming:
    """Nanosecond-granularity DRAM timing set.

    Beyond the per-bank latencies, two channel-level constraints shape
    ORAM traffic decisively:

    - ``t_rrd``: minimum spacing between row activations on one channel
      (the tRRD/tFAW four-activate-window limit, folded into a single
      effective rate). Path-wide operations activate one row per
      bucket, so their cost scales with the number of buckets touched
      -- largely independent of bucket *size*;
    - ``t_wtr`` / ``t_rtw``: bus turnaround penalties when a channel
      switches between reads and writes (reshuffles pay these twice);
    - ``t_refi`` / ``t_rfc``: periodic refresh -- every ``t_refi`` a
      channel's banks stall for ``t_rfc`` and their row buffers close,
      which caps row-hit streaks for low-intensity workloads.
    """

    t_ck: float      # bus clock period
    t_cas: float     # CL: column access strobe latency (reads)
    t_cwd: float     # CWL: write delivery latency
    t_rcd: float     # RAS-to-CAS (activate) delay
    t_rp: float      # precharge delay
    t_wr: float      # write recovery
    burst_ns: float  # bus occupancy of one 64B transfer
    t_rrd: float     # effective activate-to-activate spacing per channel
    t_wtr: float     # write-to-read turnaround
    t_rtw: float     # read-to-write turnaround
    t_refi: float = 7800.0  # refresh interval (0 disables refresh)
    t_rfc: float = 350.0    # refresh cycle time (banks stall, rows close)

    def __post_init__(self) -> None:
        for name in (
            "t_ck", "t_cas", "t_cwd", "t_rcd", "t_rp", "t_wr", "burst_ns",
            "t_rrd", "t_wtr", "t_rtw", "t_refi", "t_rfc",
        ):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if self.t_ck <= 0 or self.burst_ns <= 0:
            raise ValueError("t_ck and burst_ns must be positive")


#: DDR3-1600 (11-11-11), 64-bit channel: one 64B line = BL8 = 4 bus clocks.
#: tRRD folds the tFAW window (4 activates / 30ns) into 7.5ns/activate.
DDR3_1600 = DramTiming(
    t_ck=1.25,
    t_cas=13.75,
    t_cwd=10.0,
    t_rcd=13.75,
    t_rp=13.75,
    t_wr=15.0,
    burst_ns=5.0,
    t_rrd=7.5,
    t_wtr=7.5,
    t_rtw=2.5,
)

#: A slower, higher-latency profile (useful for sensitivity tests).
DDR3_1066 = DramTiming(
    t_ck=1.875,
    t_cas=15.0,
    t_cwd=11.25,
    t_rcd=15.0,
    t_rp=15.0,
    t_wr=15.0,
    burst_ns=7.5,
    t_rrd=10.0,
    t_wtr=9.4,
    t_rtw=3.75,
    t_refi=7800.0,
    t_rfc=350.0,
)

#: An idealized profile with no activation/turnaround constraints --
#: isolates pure byte-count effects (used by ablation benchmarks).
IDEAL_BUS = DramTiming(
    t_ck=1.25,
    t_cas=13.75,
    t_cwd=10.0,
    t_rcd=13.75,
    t_rp=13.75,
    t_wr=0.0,
    burst_ns=5.0,
    t_rrd=0.0,
    t_wtr=0.0,
    t_rtw=0.0,
    t_refi=0.0,
    t_rfc=0.0,
)
