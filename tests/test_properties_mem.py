"""Property-based tests for the memory substrate (layout + DRAM)."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import schemes
from repro.mem import address_map as am
from repro.mem.dram import DramModel
from repro.mem.layout import TreeLayout
from repro.mem.timing import DDR3_1600


class TestLayoutProperties:
    @settings(max_examples=30, deadline=None)
    @given(levels=st.integers(3, 10), data=st.data())
    def test_slot_addresses_unique_and_aligned(self, levels, data):
        cfg = schemes.ab_scheme(levels)
        lay = TreeLayout(cfg)
        seen = set()
        for _ in range(50):
            b = data.draw(st.integers(0, cfg.n_buckets - 1))
            lv = (b + 1).bit_length() - 1
            s = data.draw(st.integers(0, cfg.geometry[lv].z_total - 1))
            addr = lay.data_addr(b, s)
            assert addr % cfg.block_bytes == 0
            assert 0 <= addr < lay.data_bytes
            key = (b, s)
            if key not in seen:
                # Same (bucket, slot) -> same address; distinct -> distinct.
                assert lay.data_addr(b, s) == addr
            seen.add(key)

    @settings(max_examples=20, deadline=None)
    @given(levels=st.integers(3, 10))
    def test_data_and_metadata_regions_disjoint(self, levels):
        cfg = schemes.dr_scheme(levels)
        lay = TreeLayout(cfg, metadata_blocks=2)
        last_data = lay.data_addr(cfg.n_buckets - 1,
                                  cfg.geometry[-1].z_total - 1)
        assert last_data + cfg.block_bytes <= lay.meta_addr(0)
        assert (lay.meta_addr(cfg.n_buckets - 1, 1)
                < lay.data_bytes + lay.meta_bytes)

    @settings(max_examples=20, deadline=None)
    @given(levels=st.integers(3, 10))
    def test_whole_tree_is_tiled(self, levels):
        """Bucket spans tile [0, data_bytes) with no gaps or overlaps."""
        cfg = schemes.ns_scheme(levels)
        lay = TreeLayout(cfg)
        cursor = 0
        for b in range(cfg.n_buckets):
            assert lay.data_addr(b, 0) == cursor
            lv = (b + 1).bit_length() - 1
            cursor += cfg.geometry[lv].z_total * cfg.block_bytes
        assert cursor == lay.data_bytes


class TestAddressMappingProperties:
    @settings(max_examples=60, deadline=None)
    @given(addr=st.integers(0, 2**40))
    def test_decompose_is_injective_per_line(self, addr):
        """(channel, bank, row, col) uniquely identifies the line."""
        c, b, r, col = am.decompose(addr)
        line = (((r * am.N_BANKS + b) * am.LINES_PER_ROW + col)
                * am.N_CHANNELS + c)
        assert line == (addr // am.LINE_BYTES)

    @settings(max_examples=60, deadline=None)
    @given(line=st.integers(0, 2**40))
    def test_shift_decode_equals_decompose(self, line):
        """The DRAM model's line decode (shifts and masks) is
        ``decompose`` of the line's first byte."""
        c, b, r, _ = am.decompose(line * am.LINE_BYTES)
        assert line & am.CHANNEL_MASK == c
        assert (line >> am.BANK_SHIFT) & am.BANK_MASK == b
        assert line >> am.ROW_SHIFT == r

    @settings(max_examples=60, deadline=None)
    @given(addr=st.integers(0, 2**40))
    def test_coordinates_in_range(self, addr):
        c, b, r, col = am.decompose(addr)
        assert 0 <= c < am.N_CHANNELS
        assert 0 <= b < am.N_BANKS
        assert 0 <= col < am.LINES_PER_ROW
        assert r >= 0

    @settings(max_examples=60, deadline=None)
    @given(addr=st.integers(0, 2**40))
    def test_dram_model_opens_the_row_decompose_names(self, addr):
        """The DRAM model inlines the decomposition; it must agree."""
        dram = DramModel()
        dram.access(addr, False, 0.0)
        c, b, r, _ = am.decompose(addr)
        assert dram._open_row[c * am.N_BANKS + b] == r


class TestDramProperties:
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(reqs=st.lists(
        st.tuples(st.integers(0, 2**20), st.booleans(),
                  st.floats(0, 1e6, allow_nan=False)),
        min_size=1, max_size=40,
    ))
    def test_completion_after_arrival(self, reqs):
        dram = DramModel()
        now = 0.0
        for addr, write, gap in reqs:
            now += gap
            done = dram.access(addr * 64, write, now)
            # Completion is strictly after arrival, by at least the burst.
            assert done >= now + DDR3_1600.burst_ns

    @settings(max_examples=25, deadline=None)
    @given(reqs=st.lists(st.integers(0, 2**16), min_size=2, max_size=40))
    def test_channel_bus_never_double_booked(self, reqs):
        """Completions on one channel are spaced by >= one burst."""
        dram = DramModel()
        # Every address on channel 0.
        times = sorted(dram.access(a * am.LINE_BYTES * am.N_CHANNELS,
                                   False, 0.0) for a in reqs)
        for t1, t2 in zip(times, times[1:]):
            assert t2 - t1 >= DDR3_1600.burst_ns - 1e-9

    @settings(max_examples=25, deadline=None)
    @given(reqs=st.lists(st.integers(0, 2**16), min_size=1, max_size=30))
    def test_stats_conserved(self, reqs):
        dram = DramModel()
        for a in reqs:
            dram.access(a * 64, False, 0.0)
        st_ = dram.stats
        assert st_.reads == len(reqs)
        assert st_.row_hits + st_.row_misses == len(reqs)
        assert st_.bytes_transferred == 64 * len(reqs)
