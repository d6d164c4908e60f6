"""Tests for the DRAM substrate (repro.mem)."""

import pytest

from repro.core import schemes
from repro.mem import address_map as am
from repro.mem.dram import DramModel
from repro.mem.layout import TreeLayout
from repro.mem.timing import DDR3_1066, DDR3_1600, IDEAL_BUS, DramTiming


def _two_open_rows(first_write, second_write):
    """Two requests arriving together for two banks of one channel whose
    rows are already open, so only the shared bus orders them; returns
    the gap between their completions."""
    dram = DramModel()
    other_bank = am.LINES_PER_ROW * am.N_CHANNELS
    dram.access_lines([0], False, 0.0)
    dram.access_lines([other_bank], False, 0.0)
    first = dram.access_lines([0], first_write, 1000.0)
    return dram.access_lines([other_bank], second_write, 1000.0) - first


class TestTiming:
    """The timing set as the model applies it (DDR3-1600 preset)."""

    def test_column_latency_read_vs_write(self):
        t = DDR3_1600
        assert (t.t_cas, t.t_cwd) == (13.75, 10.0)
        # Idle model, closed row: precharge + activate + column + burst.
        assert DramModel().access_lines([0], False, 0.0) == (
            t.t_rp + t.t_rcd + t.t_cas + t.burst_ns)
        assert DramModel().access_lines([0], True, 0.0) == (
            t.t_rp + t.t_rcd + t.t_cwd + t.burst_ns)

    def test_recovery_only_for_writes(self):
        """Back-to-back row hits on one bank: a write holds the bank
        for tWR past its burst, a read for nothing."""
        t = DDR3_1600
        assert t.t_wr == 15.0
        reads, writes = DramModel(), DramModel()
        r1, r2 = (reads.access_lines([0], False, 0.0) for _ in range(2))
        w1, w2 = (writes.access_lines([0], True, 0.0) for _ in range(2))
        assert r2 - r1 == t.t_cas + t.burst_ns
        assert w2 - w1 == t.t_wr + t.t_cwd + t.burst_ns

    def test_turnaround_same_direction_free(self):
        assert _two_open_rows(False, False) == DDR3_1600.burst_ns
        assert _two_open_rows(True, True) == DDR3_1600.burst_ns

    def test_turnaround_switching(self):
        t = DDR3_1600
        assert _two_open_rows(True, False) == t.t_wtr + t.burst_ns
        assert _two_open_rows(False, True) == t.t_rtw + t.burst_ns

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            DramTiming(t_ck=1, t_cas=-1, t_cwd=1, t_rcd=1, t_rp=1, t_wr=1,
                       burst_ns=1, t_rrd=0, t_wtr=0, t_rtw=0)

    def test_presets_exist(self):
        for preset in (DDR3_1600, DDR3_1066, IDEAL_BUS):
            assert preset.burst_ns > 0

    @pytest.mark.parametrize(
        "preset", [DDR3_1600, DDR3_1066, IDEAL_BUS],
        ids=["ddr3_1600", "ddr3_1066", "ideal_bus"])
    def test_hoisted_model_constants_match_timing_source(self, preset):
        """The hot-path copies in DramModel track mem/timing exactly.

        ``DramModel.__init__`` hoists every timing field into
        ``_``-prefixed attributes so the
        per-access loops skip dataclass attribute lookups. The
        dataclasses in ``repro.mem.timing`` stay the single source of
        truth; this asserts each hoisted copy agrees with its source
        field, so a new timing parameter (or a renamed one) cannot
        silently fork the two definitions.
        """
        model = DramModel(timing=preset)
        for field in ("t_refi", "t_rp", "t_rrd", "t_rcd", "t_cas",
                      "t_cwd", "t_wtr", "t_rtw", "t_wr", "burst_ns"):
            assert getattr(model, f"_{field}") == getattr(preset, field), field


class TestAddressMapping:
    def test_channel_interleaving_at_line_granularity(self):
        channels = [am.decompose(64 * i)[0] for i in range(8)]
        assert channels == [0, 1, 2, 3, 0, 1, 2, 3]

    def test_same_line_same_coordinates(self):
        assert am.decompose(100) == am.decompose(64)

    def test_rows_change_after_row_span(self):
        span = am.ROW_BYTES * am.N_CHANNELS * am.N_BANKS
        _, _, row0, _ = am.decompose(0)
        _, _, row1, _ = am.decompose(span)
        assert row1 == row0 + 1

    def test_consecutive_lines_in_channel_share_row(self):
        c0, b0, r0, col0 = am.decompose(0)
        # The next line on channel 0.
        c1, b1, r1, col1 = am.decompose(am.LINE_BYTES * am.N_CHANNELS)
        assert (c0, b0, r0) == (c1, b1, r1)
        assert col1 == col0 + 1

    def test_negative_address_rejected(self):
        with pytest.raises(ValueError):
            am.decompose(-64)


class TestDramModel:
    def test_row_miss_then_hit(self):
        dram = DramModel()
        t1 = dram.access_lines([0], False, 0.0)
        t2 = dram.access_lines([4], False, t1)  # same channel 0, next column
        assert dram.stats.row_misses == 1
        assert dram.stats.row_hits == 1
        # The hit is served faster than the miss.
        assert (t2 - t1) < t1

    def test_different_channels_overlap(self):
        dram = DramModel()
        t1 = dram.access_lines([0], False, 0.0)
        t2 = dram.access_lines([1], False, 0.0)  # channel 1
        assert t2 == pytest.approx(t1)

    def test_same_bank_serializes(self):
        dram = DramModel()
        # Two lines in the same bank but different rows -> conflict.
        a = 0
        b = am.N_CHANNELS * am.LINES_PER_ROW * am.N_BANKS  # same bank, next row
        t1 = dram.access_lines([a], False, 0.0)
        t2 = dram.access_lines([b], False, 0.0)
        assert t2 > t1

    def test_completion_monotonic_per_channel(self):
        dram = DramModel()
        times = [dram.access_lines([4 * i], False, 0.0) for i in range(10)]
        assert times == sorted(times)

    def test_write_read_turnaround_penalty(self):
        fast = DramModel()
        fast.access_lines([0], True, 0.0)
        t_after_write = fast.access_lines([4], False, 0.0)
        clean = DramModel()
        clean.access_lines([0], False, 0.0)
        t_after_read = clean.access_lines([4], False, 0.0)
        assert t_after_write > t_after_read

    def test_activation_throttle(self):
        """Row misses on one channel cannot activate faster than tRRD."""
        dram = DramModel()
        # Hit different banks to avoid bank serialization; all misses.
        lines = [am.LINES_PER_ROW * am.N_CHANNELS * b for b in range(8)]
        busy_span = max(dram.access_lines([ln], False, 0.0) for ln in lines)
        assert busy_span >= DDR3_1600.t_rrd * (len(lines) - 1)

    def test_stats_bytes(self):
        dram = DramModel()
        for i in range(5):
            dram.access_lines([i], False, 0.0)
        assert dram.stats.bytes_transferred == 5 * 64

    def test_burst_batch(self):
        dram = DramModel()
        done = dram.access_lines([0, 1, 2], False, 10.0)
        assert done > 10.0
        assert dram.stats.reads == 3

    def test_refresh_closes_rows(self):
        dram = DramModel()
        t = dram.timing
        dram.access_lines([0], False, 0.0)             # opens a row
        # Same line long after a refresh window: must be a miss again.
        dram.access_lines([0], False, t.t_refi * 2 + 1.0)
        assert dram.stats.row_misses == 2
        assert dram.stats.refreshes >= 1

    @pytest.mark.parametrize("window", [None, 8], ids=["frontier", "window8"])
    def test_refresh_stalls_banks(self, window):
        # Both placements: the windowed ledger places from its floor,
        # so a refresh that only held the frontier's bank-ready times
        # would let a windowed read finish inside tRFC.
        dram = DramModel(window=window)
        t = dram.timing
        arrival = t.t_refi + 0.5  # just after the refresh fires
        done = dram.access_lines([0], False, arrival)
        assert done >= t.t_refi + t.t_rfc

    def test_refresh_leaves_earlier_windowed_slots_free(self):
        """Under a window, later calls may carry earlier arrivals. The
        refresh holds the banks for [tREFI, tREFI + tRFC) only, so a
        read that arrives well before tREFI, issued after a request
        that fired the refresh, still completes before tREFI. (It is a
        row hit on a row the firing call reopened: a miss would queue
        behind that call's activates, the activation-rate chain.)"""
        dram = DramModel(window=8)
        t = dram.timing
        bank1 = 1 << am.BANK_SHIFT  # channel 0, bank 1, row 0
        dram.access_lines([0, bank1], False, t.t_refi + 0.5)
        assert dram.stats.refreshes == 1
        done = dram.access_lines([bank1], False, 100.0)
        assert dram.stats.row_hits == 1
        assert done < t.t_refi

    def test_no_refresh_when_disabled(self):
        dram = DramModel(IDEAL_BUS)
        dram.access_lines([0], False, 0.0)
        dram.access_lines([0], False, 1e9)
        assert dram.stats.refreshes == 0
        assert dram.stats.row_hits == 1

    def test_ideal_bus_is_faster(self):
        """The ablation profile must strictly lower total latency."""
        real, ideal = DramModel(DDR3_1600), DramModel(IDEAL_BUS)
        t_real = max(real.access_lines([i], i % 2 == 0, 0.0) for i in range(64))
        t_ideal = max(ideal.access_lines([i], i % 2 == 0, 0.0) for i in range(64))
        assert t_ideal <= t_real


class TestTreeLayout:
    @pytest.fixture
    def cfg(self):
        return schemes.ab_scheme(8)

    def test_buckets_sized_by_level(self, cfg):
        lay = TreeLayout(cfg)
        # Root bucket Z=8 -> next bucket starts 8 lines later.
        assert lay.first_byte[1] - lay.first_byte[0] == 8 * 64

    def test_nonuniform_spans(self, cfg):
        lay = TreeLayout(cfg)
        leaf_first = (1 << (cfg.levels - 1)) - 1
        span = lay.first_byte[leaf_first + 1] - lay.first_byte[leaf_first]
        assert span == cfg.geometry[-1].z_total * 64

    def test_data_bytes_matches_config(self, cfg):
        lay = TreeLayout(cfg)
        assert lay.data_bytes == cfg.tree_bytes

    def test_metadata_after_data(self, cfg):
        lay = TreeLayout(cfg, metadata_blocks=1)
        assert lay.meta_base == lay.data_bytes
        assert lay.meta_stride == 64

    def test_metadata_blocks_stride(self, cfg):
        lay = TreeLayout(cfg, metadata_blocks=2)
        assert lay.meta_stride == 128

    def test_total_bytes(self, cfg):
        lay = TreeLayout(cfg, metadata_blocks=1)
        assert lay.meta_bytes == cfg.n_buckets * 64

    def test_no_overlapping_buckets(self, cfg):
        from repro.oram.tree import level_of
        lay = TreeLayout(cfg)
        prev_end = 0
        for b in range(min(cfg.n_buckets, 64)):
            start = lay.first_byte[b]
            assert start == prev_end
            prev_end = start + cfg.geometry[level_of(b)].z_total * 64


class TestEntryPointsAgree:
    """``access_lines`` is the byte-address loop it replaced
    (``conftest.ReferenceDramModel``), whether a group arrives as one
    call or as one call per request.

    Seeded random streams of same-direction groups arriving together
    are driven through each way on fresh models; completion
    times, every ``DramStats`` field and the busy tallies must equal
    the reference's with ``==``. Arrivals sit on a 1/4-ns grid (as the
    DDR timings do), so the float busy tallies are exact sums.
    """

    @staticmethod
    def _stream(seed, n_groups=400):
        import random

        rng = random.Random(seed)
        row_stride = am.ROW_BYTES * am.N_CHANNELS * am.N_BANKS
        groups = []
        now = 0.0
        write = False
        for _ in range(n_groups):
            # Mostly small steps (queues build up), sometimes a jump
            # across one or more refresh epochs.
            now += (rng.randrange(0, 400) * 0.25 if rng.random() < 0.9
                    else rng.randrange(1, 4) * DDR3_1600.t_refi)
            if rng.random() < 0.4:
                write = not write
            base = rng.randrange(0, 1 << 14) * 64
            shape = rng.random()
            if shape < 0.3:      # the same line, repeatedly
                addrs = [base] * rng.randrange(1, 9)
            elif shape < 0.6:    # one bank, alternating rows
                addrs = [base + (i % 2) * row_stride
                         for i in range(rng.randrange(2, 9))]
            else:                # scattered over channels and banks
                addrs = [rng.randrange(0, 1 << 14) * 64
                         for _ in range(rng.randrange(1, 12))]
            groups.append((addrs, write, now))
        return groups

    @staticmethod
    def _drive(groups, window, how):
        from dataclasses import asdict

        from tests.conftest import ReferenceDramModel

        dram = (ReferenceDramModel if how == "reference" else DramModel)(
            window=window)
        done = []
        for addrs, write, arrival in groups:
            lines = [a // am.LINE_BYTES for a in addrs]
            if how == "reference":
                done.append(dram.access_batch(addrs, write, arrival))
            elif how == "access":
                done.append(max(dram.access_lines([line], write, arrival)
                                for line in lines))
            else:
                done.append(dram.access_lines(lines, write, arrival))
        return (done, asdict(dram.stats), dram.channel_busy_ns,
                dram.bank_busy_ns)

    @pytest.mark.parametrize("window", [None, 8], ids=["frontier", "window8"])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_lines_are_the_reference_loop(self, seed, window):
        groups = self._stream(seed)
        reference = self._drive(groups, window, "reference")
        assert self._drive(groups, window, "lines") == reference
        stats = reference[1]
        assert stats["refreshes"] > 0
        assert stats["row_hits"] > 0 and stats["row_misses"] > 0
        assert stats["reads"] > 0 and stats["writes"] > 0
        if window is not None:
            assert stats["backfills"] > 0 and stats["queue_depth_peak"] > 0

    @pytest.mark.parametrize("window", [None, 8], ids=["frontier", "window8"])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_access_is_the_batch_of_one(self, seed, window):
        groups = self._stream(seed)
        assert (self._drive(groups, window, "access")
                == self._drive(groups, window, "reference"))
