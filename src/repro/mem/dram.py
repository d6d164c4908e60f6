"""Event-based DRAM channel/bank timing model.

One :class:`DramModel` holds per-bank open-row state and availability
times plus a per-channel data-bus availability time. ``access_lines``
computes when each 64B request, named by its cache-line number,
completes:

1. the request waits for its bank (earlier requests to the same bank)
   and, on a row-buffer miss, pays precharge + activate;
2. the data burst waits for the channel bus;
3. write recovery keeps the bank busy after a write burst.

This is the first-ready part of FR-FCFS: requests are processed in
arrival order but independent banks and channels proceed concurrently,
which is where Ring ORAM's channel-parallel path reads and the
row-buffer friendliness of bucket reshuffles come from -- the effects
the paper's USIMM runs measure.
"""

from __future__ import annotations

from bisect import bisect_right, insort
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.mem.address_map import (
    BANK_MASK, BANK_SHIFT, CHANNEL_MASK, N_BANKS, N_CHANNELS, ROW_SHIFT,
)
from repro.mem.timing import DDR3_1600, DramTiming


@dataclass
class DramStats:
    """Aggregate counters of one model instance."""

    reads: int = 0
    writes: int = 0
    row_hits: int = 0
    row_misses: int = 0
    refreshes: int = 0
    #: Controller-imposed waiting (recovery retry backoff) charged to
    #: this memory system -- time the bus spent idle by decree, kept
    #: separate from service time so fault campaigns can attribute it.
    stalled_ns: float = 0.0
    #: Outstanding-request queue counters, populated only when the model
    #: runs with a bounded ``window`` (the pipelined controller). Depth
    #: is sampled at every admission: how many earlier requests on the
    #: channel were still in flight when this one arrived.
    queue_depth_peak: int = 0
    queue_depth_sum: int = 0
    queue_samples: int = 0
    #: Requests scheduled on the bus *before* an already-placed later
    #: burst (windowed mode only): overlapping pipeline stages
    #: interleave into bus time earlier stages left idle.
    backfills: int = 0

    @property
    def queue_depth_mean(self) -> float:
        return (self.queue_depth_sum / self.queue_samples
                if self.queue_samples else 0.0)

    @property
    def accesses(self) -> int:
        return self.reads + self.writes

    @property
    def bytes_transferred(self) -> int:
        return self.accesses * 64

    @property
    def row_hit_rate(self) -> float:
        return self.row_hits / self.accesses if self.accesses else 0.0


class DramModel:
    """Timing model for one memory system (all channels)."""

    def __init__(
        self,
        timing: DramTiming = DDR3_1600,
        window: Optional[int] = None,
    ) -> None:
        if window is not None and window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.timing = timing
        n_banks_total = N_CHANNELS * N_BANKS
        # Per-bank/per-channel state lives in plain Python lists: the
        # request loop reads and writes one scalar per request, and list
        # indexing avoids the numpy-scalar boxing that dominated the
        # profile.
        self._open_row = [-1] * n_banks_total
        self._bank_ready = [0.0] * n_banks_total
        self._bus_free = [0.0] * N_CHANNELS
        self._last_activate = [-1e18] * N_CHANNELS
        self._last_was_write = [False] * N_CHANNELS
        # When each channel's next refresh falls due (t_refi 0: never).
        self._next_refresh = [timing.t_refi or float("inf")] * N_CHANNELS
        self.stats = DramStats()
        # Plain list, not ndarray: one scalar += per access makes numpy
        # boxing measurable at millions of requests.
        self.channel_busy_ns = [0.0] * N_CHANNELS
        # Per-bank occupancy (burst + write recovery), same plain-list
        # rationale. Banks fold ranks in (see repro.mem.address_map), so this
        # is the rank/bank busy breakdown telemetry exports.
        self.bank_busy_ns = [0.0] * n_banks_total
        # Outstanding-request window: with ``window`` set, at most that
        # many requests per channel may be in flight -- a request that
        # would exceed it waits for the oldest outstanding completion.
        # Only the pipelined controller sets it; ``None`` keeps every
        # timestamp bit-identical to the historical model.
        self._window = window
        self._win_q: Optional[List[List[float]]] = (
            [[] for _ in range(N_CHANNELS)]
            if window is not None else None
        )
        # Bus busy-interval ledger (windowed mode only): per channel, a
        # bounded sorted list of disjoint ``[start, end, is_write]``
        # intervals the data bus is committed to. A request is placed
        # at the earliest free slot at or after its latency-chain ready
        # time -- NOT behind a monotone frontier -- which is what lets
        # overlapping pipeline stages interleave on the bus instead of
        # strictly serializing in issue order. Direction turnaround
        # (tWTR / tRTW) is enforced as required spacing against
        # opposite-direction neighbours; same-direction bursts pack
        # back-to-back exactly like the unwindowed frontier does.
        self._busy: Optional[List[List[List[float]]]] = (
            [[] for _ in range(N_CHANNELS)]
            if window is not None else None
        )
        # Placement never reaches before the floor; it rises as old
        # intervals age out of the bounded ledger.
        self._busy_floor = [0.0] * N_CHANNELS
        self._bus_pad = max(timing.t_wtr, timing.t_rtw)
        self._busy_cap = 64
        # Per-bank busy intervals (windowed mode only), same idea as
        # the bus ledger: a request occupies its bank for the latency
        # chain + burst + write recovery, placed at the earliest free
        # slot rather than behind a monotone frontier, so an early
        # path read is not queued behind a reshuffle write-back that
        # is *scheduled* later even though the bank sits idle between.
        # Row-buffer state (``_open_row``) is still tracked in program
        # order -- hit/miss classification matches the serial model;
        # only the time placement interleaves.
        self._bank_iv: Optional[List[List[List[float]]]] = (
            [[] for _ in range(n_banks_total)]
            if window is not None else None
        )
        self._bank_floor = [0.0] * n_banks_total
        self._bank_cap = 16
        # Timing constants hoisted out of the hot loop (dataclass
        # attribute fetches add up per request).
        self._t_refi = timing.t_refi
        self._t_rp = timing.t_rp
        self._t_rrd = timing.t_rrd
        self._t_rcd = timing.t_rcd
        self._t_cas = timing.t_cas
        self._t_cwd = timing.t_cwd
        self._t_wtr = timing.t_wtr
        self._t_rtw = timing.t_rtw
        self._t_wr = timing.t_wr
        self._burst_ns = timing.burst_ns

    def _apply_refresh(self, channel: int, arrival_ns: float) -> None:
        """Account the refreshes due on ``channel`` by ``arrival_ns``.

        Every elapsed tREFI window closes the channel's row buffers;
        the most recent one also stalls its banks for tRFC, in the
        frontier's ``_bank_ready`` and as one interval in each windowed
        bank ledger (a request arriving earlier still fits ahead of it).
        """
        t_refi = self._t_refi
        epoch = int(arrival_ns // t_refi)
        due = (epoch + 1) * t_refi
        if due <= self._next_refresh[channel]:
            # Float floor fell short of the due epoch: nothing new.
            return
        self._next_refresh[channel] = due
        lo = channel * N_BANKS
        hi = lo + N_BANKS
        self._open_row[lo:hi] = [-1] * N_BANKS
        stall_end = epoch * t_refi + self.timing.t_rfc
        ready = self._bank_ready
        for i in range(lo, hi):
            if ready[i] < stall_end:
                ready[i] = stall_end
            if self._bank_iv is not None:
                self._bank_reserve(i, epoch * t_refi, stall_end)
        self.stats.refreshes += 1

    def _bank_reserve(self, bank_idx: int, start: float, end: float) -> None:
        """Hold ``[start, end)`` on a bank's ledger (a refresh stall),
        merged with every interval it overlaps or touches."""
        busy = self._bank_iv[bank_idx]
        i = sum(1 for iv in busy if iv[1] < start)
        j = len(busy) - sum(1 for iv in busy if iv[0] > end)
        mid = busy[i:j] + [[start, end]]
        busy[i:j] = [[min(iv[0] for iv in mid), max(iv[1] for iv in mid)]]
        if len(busy) > self._bank_cap:
            floor = self._bank_floor
            floor[bank_idx] = max(floor[bank_idx], busy.pop(0)[1])

    def _window_admit(self, channel: int, arrival_ns: float) -> float:
        """Window admission: sample queue depth, delay when it is full.

        Per-channel completions are monotone (the bus frontier only
        moves forward), so the outstanding list stays sorted and the
        in-flight count at ``arrival_ns`` is one bisect away.
        """
        q = self._win_q[channel]
        if not q:
            self.stats.queue_samples += 1
            return arrival_ns
        st = self.stats
        depth = len(q) - bisect_right(q, arrival_ns)
        st.queue_depth_sum += depth
        st.queue_samples += 1
        if depth > st.queue_depth_peak:
            st.queue_depth_peak = depth
        if len(q) >= self._window:
            oldest = q[0]
            if oldest > arrival_ns:
                arrival_ns = oldest
        return arrival_ns

    def _window_track(self, channel: int, completion: float) -> None:
        """Record one completion in the channel's outstanding window."""
        q = self._win_q[channel]
        if q and completion < q[-1]:
            # Backfilled requests complete out of issue order; keep the
            # ledger sorted so admission's bisect stays valid.
            insort(q, completion)
        else:
            q.append(completion)
        if len(q) > self._window:
            del q[0]

    def _bus_place(
        self, channel: int, ready: float, span: float, write: bool
    ) -> float:
        """Reserve ``span`` ns of bus time at the earliest free slot.

        Returns the burst start: the earliest time >= ``ready`` such
        that ``[start, start + span)`` overlaps no committed interval,
        keeps direction-turnaround spacing from opposite-direction
        neighbours (tWTR after a write, tRTW after a read -- the same
        charges the unwindowed frontier applies on a flip) and lies
        past the channel floor. The interval is inserted (coalescing
        with touching same-direction neighbours) so later placements
        see it; when the ledger exceeds its bound the oldest interval
        retires into the floor.
        """
        busy = self._busy[channel]
        t_wtr = self._t_wtr
        t_rtw = self._t_rtw
        t = self._busy_floor[channel]
        if ready > t:
            t = ready
        idx = len(busy)
        for i, iv in enumerate(busy):
            w = iv[2]
            if w == write:
                lead = 0.0
                trail = 0.0
            elif w:
                # Neighbour writes: we read. us->iv needs tRTW,
                # iv->us needs tWTR.
                lead = t_rtw
                trail = t_wtr
            else:
                lead = t_wtr
                trail = t_rtw
            if t + span + lead <= iv[0]:
                idx = i
                break
            after = iv[1] + trail
            if after > t:
                t = after
        if idx < len(busy):
            # Placed ahead of an already-committed later burst: the
            # out-of-order interleave the pipelined controller exists
            # to exploit.
            self.stats.backfills += 1
        end = t + span
        prev_touch = (
            idx > 0 and busy[idx - 1][2] == write and busy[idx - 1][1] >= t
        )
        next_touch = (
            idx < len(busy) and busy[idx][2] == write and busy[idx][0] <= end
        )
        if prev_touch and next_touch:
            busy[idx - 1][1] = busy[idx][1]
            del busy[idx]
        elif prev_touch:
            busy[idx - 1][1] = end
        elif next_touch:
            busy[idx][0] = t
        else:
            busy.insert(idx, [t, end, write])
        if len(busy) > self._busy_cap:
            oldest = busy.pop(0)
            guard = oldest[1] + self._bus_pad
            if guard > self._busy_floor[channel]:
                self._busy_floor[channel] = guard
        return t

    def _bank_place(self, bank_idx: int, earliest: float, span: float) -> float:
        """Reserve ``span`` ns of bank time at the earliest free slot.

        Same bounded-ledger scheme as :meth:`_bus_place` but per bank
        and without direction spacing -- a bank hold already includes
        its own recovery time.
        """
        busy = self._bank_iv[bank_idx]
        t = self._bank_floor[bank_idx]
        if earliest > t:
            t = earliest
        idx = len(busy)
        for i, iv in enumerate(busy):
            if t + span <= iv[0]:
                idx = i
                break
            if iv[1] > t:
                t = iv[1]
        end = t + span
        prev_touch = idx > 0 and busy[idx - 1][1] >= t
        next_touch = idx < len(busy) and busy[idx][0] <= end
        if prev_touch and next_touch:
            busy[idx - 1][1] = busy[idx][1]
            del busy[idx]
        elif prev_touch:
            busy[idx - 1][1] = end
        elif next_touch:
            busy[idx][0] = t
        else:
            busy.insert(idx, [t, end])
        if len(busy) > self._bank_cap:
            oldest = busy.pop(0)
            if oldest[1] > self._bank_floor[bank_idx]:
                self._bank_floor[bank_idx] = oldest[1]
        return t

    def access_lines(
        self, lines: Sequence[int], write: bool, arrival_ns: float
    ) -> float:
        """Service several same-direction requests arriving together.

        The one DDR request body, over cache-line numbers: each request
        waits for its bank, pays precharge + activate on a row miss,
        then takes the channel bus (module docstring). Requests are
        processed in order; returns the latest completion time. The
        frontier (``window=None``) and the windowed placement are two
        loops, chosen once per call. All mutable channel/bank state is
        bound to locals once per call (the lists are mutated in place,
        so :meth:`_apply_refresh` stays coherent).
        """
        ch_mask = CHANNEL_MASK
        n_banks = N_BANKS
        bank_shift = BANK_SHIFT
        bank_mask = BANK_MASK
        row_shift = ROW_SHIFT
        t_rp = self._t_rp
        t_rrd = self._t_rrd
        t_hit = self._t_cwd if write else self._t_cas
        t_col = self._t_rcd + t_hit
        t_wr = self._t_wr if write else 0.0
        burst_ns = self._burst_ns
        open_row = self._open_row
        bank_ready = self._bank_ready
        bus_free_l = self._bus_free
        last_activate = self._last_activate
        next_refresh = self._next_refresh
        busy = self.channel_busy_ns
        bank_busy = self.bank_busy_ns
        hits = 0
        latest = 0.0
        if self._busy is None:
            t_turn = self._t_wtr if not write else self._t_rtw
            last_was_write = self._last_was_write
            for line in lines:
                channel = line & ch_mask
                if arrival_ns >= next_refresh[channel]:
                    self._apply_refresh(channel, arrival_ns)
                bank_idx = channel * n_banks + ((line >> bank_shift) & bank_mask)
                row = line >> row_shift
                brdy = bank_ready[bank_idx]
                if open_row[bank_idx] == row:
                    hits += 1
                    ready = (arrival_ns if arrival_ns > brdy else brdy) + t_hit
                else:
                    # Precharge, then an activate constrained by the
                    # channel's activation rate (tRRD / tFAW window).
                    open_row[bank_idx] = row
                    precharged = (
                        arrival_ns if arrival_ns > brdy else brdy) + t_rp
                    rated = last_activate[channel] + t_rrd
                    activate = precharged if precharged > rated else rated
                    last_activate[channel] = activate
                    ready = activate + t_col
                bus_free = bus_free_l[channel]
                if last_was_write[channel] != write:
                    # Direction turnaround: tWTR after a write on the
                    # channel, tRTW after a read.
                    bus_free += t_turn
                    last_was_write[channel] = write
                burst_start = ready if ready > bus_free else bus_free
                completion = burst_start + burst_ns
                bus_free_l[channel] = completion
                bank_ready[bank_idx] = completion + t_wr
                span = completion - burst_start
                busy[channel] += span
                bank_busy[bank_idx] += span + t_wr
                if completion > latest:
                    latest = completion
        else:
            # Out-of-order placement: the request holds its bank for
            # the latency chain + burst + recovery at the earliest free
            # slot, then its burst takes the earliest bus slot at or
            # after the chain -- neither queues behind a monotone
            # frontier, so overlapped pipeline stages interleave.
            # Refresh is accounted at the nominal arrival time; ``arr``
            # is the (possibly window-delayed) effective arrival, which
            # never re-triggers refresh bookkeeping.
            admit = self._window_admit
            track = self._window_track
            bank_place = self._bank_place
            bus_place = self._bus_place
            hold_hit = t_hit + burst_ns + t_wr
            hold_miss = t_rp + t_col + burst_ns + t_wr
            for line in lines:
                channel = line & ch_mask
                if arrival_ns >= next_refresh[channel]:
                    self._apply_refresh(channel, arrival_ns)
                arr = admit(channel, arrival_ns)
                bank_idx = channel * n_banks + ((line >> bank_shift) & bank_mask)
                row = line >> row_shift
                if open_row[bank_idx] == row:
                    hits += 1
                    ready = bank_place(bank_idx, arr, hold_hit) + t_hit
                else:
                    open_row[bank_idx] = row
                    precharged = bank_place(bank_idx, arr, hold_miss) + t_rp
                    rated = last_activate[channel] + t_rrd
                    activate = precharged if precharged > rated else rated
                    last_activate[channel] = activate
                    ready = activate + t_col
                burst_start = bus_place(channel, ready, burst_ns, write)
                completion = burst_start + burst_ns
                recovered = completion + t_wr
                if recovered > bank_ready[bank_idx]:
                    bank_ready[bank_idx] = recovered
                busy[channel] += burst_ns
                bank_busy[bank_idx] += burst_ns + t_wr
                if completion > bus_free_l[channel]:
                    bus_free_l[channel] = completion
                track(channel, completion)
                if completion > latest:
                    latest = completion
        n = len(lines)
        st = self.stats
        if write:
            st.writes += n
        else:
            st.reads += n
        st.row_hits += hits
        st.row_misses += n - hits
        return latest

    def reset_measurement(self) -> None:
        """Zero the counters and busy tallies (end of warm-up); bank,
        bus and row-buffer state are preserved."""
        self.stats = DramStats()
        self.channel_busy_ns[:] = [0.0] * len(self.channel_busy_ns)
        self.bank_busy_ns[:] = [0.0] * len(self.bank_busy_ns)
