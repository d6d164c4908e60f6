"""Tests for the DRAM substrate (repro.mem)."""

import pytest

from repro.core import schemes
from repro.mem.address_map import AddressMapping
from repro.mem.dram import DramModel
from repro.mem.layout import TreeLayout
from repro.mem.timing import DDR3_1066, DDR3_1600, IDEAL_BUS, DramTiming


def _two_open_rows(first_write, second_write):
    """Two requests arriving together for two banks of one channel whose
    rows are already open, so only the shared bus orders them; returns
    the gap between their completions."""
    dram = DramModel()
    m = dram.mapping
    other_bank = m.row_bytes * m.n_channels
    dram.access(0, False, 0.0)
    dram.access(other_bank, False, 0.0)
    first = dram.access(0, first_write, 1000.0)
    return dram.access(other_bank, second_write, 1000.0) - first


class TestTiming:
    """The timing set as the model applies it (DDR3-1600 preset)."""

    def test_column_latency_read_vs_write(self):
        t = DDR3_1600
        assert (t.t_cas, t.t_cwd) == (13.75, 10.0)
        # Idle model, closed row: precharge + activate + column + burst.
        assert DramModel().access(0, False, 0.0) == (
            t.t_rp + t.t_rcd + t.t_cas + t.burst_ns)
        assert DramModel().access(0, True, 0.0) == (
            t.t_rp + t.t_rcd + t.t_cwd + t.burst_ns)

    def test_recovery_only_for_writes(self):
        """Back-to-back row hits on one bank: a write holds the bank
        for tWR past its burst, a read for nothing."""
        t = DDR3_1600
        assert t.t_wr == 15.0
        reads, writes = DramModel(), DramModel()
        r1, r2 = (reads.access(0, False, 0.0) for _ in range(2))
        w1, w2 = (writes.access(0, True, 0.0) for _ in range(2))
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

        ``DramModel.__init__`` hoists every timing field (and the
        address-mapping geometry) into ``_``-prefixed attributes so the
        per-access loops skip dataclass attribute lookups. The
        dataclasses in ``repro.mem.timing`` stay the single source of
        truth; this asserts each hoisted copy agrees with its source
        field, so a new timing parameter (or a renamed one) cannot
        silently fork the two definitions.
        """
        mapping = AddressMapping()
        model = DramModel(timing=preset, mapping=mapping)
        for field in ("t_refi", "t_rp", "t_rrd", "t_rcd", "t_cas",
                      "t_cwd", "t_wtr", "t_rtw", "t_wr", "burst_ns"):
            assert getattr(model, f"_{field}") == getattr(preset, field), field
        for field in ("line_bytes", "n_channels", "lines_per_row",
                      "n_banks"):
            assert getattr(model, f"_{field}") == getattr(mapping, field), field


class TestAddressMapping:
    def test_channel_interleaving_at_line_granularity(self):
        m = AddressMapping(n_channels=4)
        channels = [m.channel_of(64 * i) for i in range(8)]
        assert channels == [0, 1, 2, 3, 0, 1, 2, 3]

    def test_same_line_same_coordinates(self):
        m = AddressMapping()
        assert m.decompose(100) == m.decompose(64)

    def test_rows_change_after_row_span(self):
        m = AddressMapping(n_channels=1, n_banks=1, row_bytes=256)
        _, _, row0, _ = m.decompose(0)
        _, _, row1, _ = m.decompose(256)
        assert row1 == row0 + 1

    def test_consecutive_lines_in_channel_share_row(self):
        m = AddressMapping(n_channels=2, row_bytes=1024)
        c0, b0, r0, col0 = m.decompose(0)
        c1, b1, r1, col1 = m.decompose(128)  # next line on channel 0
        assert (c0, b0, r0) == (c1, b1, r1)
        assert col1 == col0 + 1

    def test_negative_address_rejected(self):
        with pytest.raises(ValueError):
            AddressMapping().decompose(-64)

    def test_row_bytes_multiple_of_line(self):
        with pytest.raises(ValueError):
            AddressMapping(row_bytes=100)


class TestDramModel:
    def test_row_miss_then_hit(self):
        dram = DramModel()
        t1 = dram.access(0, False, 0.0)
        t2 = dram.access(64 * 4, False, t1)  # same channel 0, next column
        assert dram.stats.row_misses == 1
        assert dram.stats.row_hits == 1
        # The hit is served faster than the miss.
        assert (t2 - t1) < t1

    def test_different_channels_overlap(self):
        dram = DramModel()
        t1 = dram.access(0, False, 0.0)
        t2 = dram.access(64, False, 0.0)  # channel 1
        assert t2 == pytest.approx(t1)

    def test_same_bank_serializes(self):
        dram = DramModel()
        m = dram.mapping
        # Two lines in the same bank but different rows -> conflict.
        m.n_channels * m.row_bytes * 0  # same row actually
        a = 0
        b = m.n_channels * m.row_bytes * m.n_banks  # same bank, next row
        t1 = dram.access(a, False, 0.0)
        t2 = dram.access(b, False, 0.0)
        assert t2 > t1

    def test_completion_monotonic_per_channel(self):
        dram = DramModel()
        times = [dram.access(64 * 4 * i, False, 0.0) for i in range(10)]
        assert times == sorted(times)

    def test_write_read_turnaround_penalty(self):
        fast = DramModel()
        fast.access(0, True, 0.0)
        t_after_write = fast.access(64 * 4, False, 0.0)
        clean = DramModel()
        clean.access(0, False, 0.0)
        t_after_read = clean.access(64 * 4, False, 0.0)
        assert t_after_write > t_after_read

    def test_activation_throttle(self):
        """Row misses on one channel cannot activate faster than tRRD."""
        dram = DramModel()
        m = dram.mapping
        m.n_channels * m.row_bytes * m.n_banks  # new row, same-ish
        # Hit different banks to avoid bank serialization; all misses.
        addrs = [m.row_bytes * m.n_channels * b for b in range(8)]
        busy_span = max(dram.access(a, False, 0.0) for a in addrs)
        assert busy_span >= DDR3_1600.t_rrd * (len(addrs) - 1)

    def test_stats_bytes(self):
        dram = DramModel()
        for i in range(5):
            dram.access(64 * i, False, 0.0)
        assert dram.stats.bytes_transferred == 5 * 64

    def test_burst_batch(self):
        dram = DramModel()
        done = dram.access_batch([0, 64, 128], False, 10.0)
        assert done > 10.0
        assert dram.stats.reads == 3

    def test_bandwidth(self):
        dram = DramModel()
        dram.access(0, False, 0.0)
        assert dram.bandwidth_gbps(64.0) == pytest.approx(1.0)
        assert dram.bandwidth_gbps(0.0) == 0.0

    def test_refresh_closes_rows(self):
        dram = DramModel()
        t = dram.timing
        dram.access(0, False, 0.0)             # opens a row
        # Same line long after a refresh window: must be a miss again.
        dram.access(0, False, t.t_refi * 2 + 1.0)
        assert dram.stats.row_misses == 2
        assert dram.stats.refreshes >= 1

    def test_refresh_stalls_banks(self):
        dram = DramModel()
        t = dram.timing
        arrival = t.t_refi + 0.5  # just after the refresh fires
        done = dram.access(0, False, arrival)
        assert done >= t.t_refi + t.t_rfc

    def test_no_refresh_when_disabled(self):
        dram = DramModel(IDEAL_BUS)
        dram.access(0, False, 0.0)
        dram.access(0, False, 1e9)
        assert dram.stats.refreshes == 0
        assert dram.stats.row_hits == 1

    def test_ideal_bus_is_faster(self):
        """The ablation profile must strictly lower total latency."""
        real, ideal = DramModel(DDR3_1600), DramModel(IDEAL_BUS)
        addrs = [i * 64 for i in range(64)]
        t_real = max(real.access(a, i % 2 == 0, 0.0) for i, a in enumerate(addrs))
        t_ideal = max(ideal.access(a, i % 2 == 0, 0.0) for i, a in enumerate(addrs))
        assert t_ideal <= t_real


class TestTreeLayout:
    @pytest.fixture
    def cfg(self):
        return schemes.ab_scheme(8)

    def test_slots_contiguous_within_bucket(self, cfg):
        lay = TreeLayout(cfg)
        assert lay.data_addr(0, 1) - lay.data_addr(0, 0) == 64

    def test_buckets_sized_by_level(self, cfg):
        lay = TreeLayout(cfg)
        # Root bucket Z=8 -> next bucket starts 8 lines later.
        assert lay.data_addr(1, 0) - lay.data_addr(0, 0) == 8 * 64

    def test_nonuniform_spans(self, cfg):
        lay = TreeLayout(cfg)
        leaf_first = (1 << (cfg.levels - 1)) - 1
        span = lay.data_addr(leaf_first + 1, 0) - lay.data_addr(leaf_first, 0)
        assert span == cfg.geometry[-1].z_total * 64

    def test_data_bytes_matches_config(self, cfg):
        lay = TreeLayout(cfg)
        assert lay.data_bytes == cfg.tree_bytes

    def test_metadata_after_data(self, cfg):
        lay = TreeLayout(cfg, metadata_blocks=1)
        assert lay.meta_addr(0) == lay.data_bytes
        assert lay.meta_addr(1) - lay.meta_addr(0) == 64

    def test_metadata_blocks_stride(self, cfg):
        lay = TreeLayout(cfg, metadata_blocks=2)
        assert lay.meta_addr(1) - lay.meta_addr(0) == 128
        assert lay.meta_addr(0, block=1) - lay.meta_addr(0) == 64

    def test_total_bytes(self, cfg):
        lay = TreeLayout(cfg, metadata_blocks=1)
        assert lay.total_bytes == lay.data_bytes + cfg.n_buckets * 64

    def test_base_addr_offset(self, cfg):
        lay = TreeLayout(cfg, base_addr=1 << 20)
        assert lay.data_addr(0, 0) == 1 << 20

    def test_bucket_out_of_range(self, cfg):
        lay = TreeLayout(cfg)
        with pytest.raises(ValueError):
            lay.data_addr(cfg.n_buckets, 0)
        with pytest.raises(ValueError):
            lay.meta_addr(-1)

    def test_no_overlapping_buckets(self, cfg):
        from repro.oram.tree import level_of
        lay = TreeLayout(cfg)
        prev_end = 0
        for b in range(min(cfg.n_buckets, 64)):
            start = lay.data_addr(b, 0)
            assert start == prev_end
            prev_end = start + cfg.geometry[level_of(b)].z_total * 64


class TestEntryPointsAgree:
    """``access``, ``access_batch`` and ``access_repeat`` are one model.

    Seeded random streams of same-direction groups arriving together
    are driven through each entry point on fresh models; completion
    times, every ``DramStats`` field and the busy tallies must agree
    with ``==``. Arrivals sit on a 1/4-ns grid (as the DDR timings do):
    there float sums are exact, so regrouping ``total_service_ns`` per
    batch instead of per request cannot move the last bit.
    """

    @staticmethod
    def _stream(seed, n_groups=400):
        import random

        rng = random.Random(seed)
        m = AddressMapping()
        row_stride = m.row_bytes * m.n_channels * m.n_banks
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
    def _drive(groups, window, how, drained=False):
        from dataclasses import asdict

        dram = DramModel(window=window)
        done = []
        for addrs, write, arrival in groups:
            if drained:
                # Nothing in flight: arrive after every completion.
                arrival = max([arrival] + done)
            if how == "access":
                done.append(max(dram.access(a, write, arrival)
                                for a in addrs))
            elif how == "repeat" and len(set(addrs)) == 1:
                done.append(dram.access_repeat(addrs[0], len(addrs),
                                               write, arrival))
            else:
                done.append(dram.access_batch(addrs, write, arrival))
        return (done, asdict(dram.stats), dram.channel_busy_ns,
                dram.bank_busy_ns)

    @pytest.mark.parametrize("window", [None, 8], ids=["frontier", "window8"])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_access_is_the_batch_of_one(self, seed, window):
        groups = self._stream(seed)
        batch = self._drive(groups, window, "batch")
        assert self._drive(groups, window, "access") == batch
        stats = batch[1]
        assert stats["refreshes"] > 0
        assert stats["row_hits"] > 0 and stats["row_misses"] > 0
        assert stats["reads"] > 0 and stats["writes"] > 0
        if window is not None:
            assert stats["backfills"] > 0 and stats["queue_depth_peak"] > 0

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_repeat_is_the_closed_form_of_the_loop(self, seed):
        groups = self._stream(seed)
        assert (self._drive(groups, None, "repeat")
                == self._drive(groups, None, "batch"))

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_windowed_repeat_matches_the_loop_on_a_drained_bus(self, seed):
        # Under a window the closed form reserves the whole chain as
        # one bank and one bus interval, where the loop leaves the
        # column-latency gaps between its bursts open to backfill --
        # deliberately different once operations overlap. With nothing
        # left to interleave (each group arrives at or after the bus
        # frontier) the two must agree to the last bit.
        groups = self._stream(seed)
        assert (self._drive(groups, 8, "repeat", drained=True)
                == self._drive(groups, 8, "batch", drained=True))

    def test_repeat_of_nothing_is_free(self):
        dram = DramModel()
        assert dram.access_repeat(0, 0, False, 5.0) == 0.0
        assert dram.stats.accesses == 0
