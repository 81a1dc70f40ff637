"""Shadow memory: probe results against a per-byte model, per-byte
metadata, pair pages and their expansion, page sparsity, page straddles
and memory per byte touched."""

import random
import tracemalloc

from redload.engine import AnalysisConfig, analyze_events
from redload.sampling import SamplingConfig
from redload.shadow import FULL, PAGE_SIZE, ShadowTable
from redload.trace import LOAD_SIZES, SourceMap

from helpers import load_event


class ByteModel:
    """One dict entry per loaded byte: address -> (value, ctx, ts)."""

    def __init__(self):
        self.cells = {}

    def probe_update(self, addr, size, value, ctx, ts):
        span = [self.cells.get(a) for a in range(addr, addr + size)]
        old = None
        if all(c is not None for c in span):
            old = bytes(c[0] for c in span)
        prior = span[0][1:] if span[0] is not None else (None, None)
        for i in range(size):
            self.cells[addr + i] = (value[i], ctx, ts)
        return (old,) + prior


def test_fresh_table_reads_absent():
    s = ShadowTable()
    assert s.probe_update(0x1000, 4, bytes(4), ctx=1, ts=1) == (None, None,
                                                                  None)


def test_write_then_read_back():
    s = ShadowTable()
    s.probe_update(0x1000, 4, bytes([1, 0, 0, 0]), ctx=7, ts=3)
    assert s.probe_update(0x1000, 4, bytes(4), ctx=8, ts=4) == (
        bytes([1, 0, 0, 0]), 7, 3)


def test_two_short_writes_leave_mixed_metadata():
    s = ShadowTable()
    s.probe_update(0x1000, 2, b"\xaa\xbb", ctx=1, ts=1)
    s.probe_update(0x1002, 2, b"\xcc\xdd", ctx=2, ts=5)
    # One-byte probes read each byte's own metadata and leave the others.
    got = [s.probe_update(0x1000 + i, 1, b"\x00", ctx=9, ts=10 + i)
           for i in range(4)]
    assert got == [(b"\xaa", 1, 1), (b"\xbb", 1, 1),
                   (b"\xcc", 2, 5), (b"\xdd", 2, 5)]


def test_probe_update_matches_byte_model():
    # Spans start near page edges of several granularities, so some cross
    # a page boundary and some land on pages loaded only in part.
    edges = [k << bits for bits in (8, 10, 12, 16) for k in (1, 3)]
    edges.append(PAGE_SIZE * 5)
    sizes = sorted(LOAD_SIZES)
    for seed in range(30):
        rng = random.Random(seed)
        s = ShadowTable()
        model = ByteModel()
        for i in range(3000):
            addr = rng.choice(edges) + rng.randrange(-40, 40)
            size = rng.choice(sizes)
            value = bytes(rng.randrange(3) for _ in range(size))
            want = model.probe_update(addr, size, value, i, i + 1)
            got = s.probe_update(addr, size, value, i, i + 1)
            assert got == want, (seed, i, addr, size)


def test_probe_update_matches_byte_model_on_full_pages_and_zero_stamps():
    # Page 1 is loaded in full first, so later probes there take the
    # full-page path; spans around its edges cross into pages 0 and 2,
    # which are loaded only in part. Context handles and timestamps of 0
    # and of 2**64 - 1 are state like any other.
    stamps = (0, 0, 1, 2**64 - 1)
    sizes = sorted(LOAD_SIZES)
    for seed in range(30):
        rng = random.Random(seed)
        s = ShadowTable()
        model = ByteModel()
        probes = [(PAGE_SIZE + off, 8) for off in range(0, PAGE_SIZE, 8)]
        for _ in range(400):
            size = rng.choice(sizes)
            edge = rng.choice((PAGE_SIZE, 2 * PAGE_SIZE))
            probes.append((edge + rng.randrange(-size, size), size))
        for i, (addr, size) in enumerate(probes):
            value = bytes(rng.randrange(3) for _ in range(size))
            ctx, ts = rng.choice(stamps), rng.choice(stamps)
            want = model.probe_update(addr, size, value, ctx, ts)
            got = s.probe_update(addr, size, value, ctx, ts)
            assert got == want, (seed, i, addr, size)
        assert s.pages[1][2] == FULL     # the loaded-byte mask


def test_pair_page_transitions_match_byte_model():
    # Pages 4 and 5 through each layout change, every probe checked
    # against the byte model and each page's stamps counted: a page keeps
    # one (ctx, ts) pair for every loaded byte until a load leaves one of
    # them outside its span, and then holds 2 * PAGE_SIZE stamps.
    top = 2**64 - 1
    pair, full = 2, 2 * PAGE_SIZE
    base = 4 * PAGE_SIZE
    steps = [
        # addr, size, ctx, ts, stamps of page 4 and of page 5 afterwards
        (base + 8, 8, 0, 0, pair, None),        # one load: a pair
        (base + 8, 8, top, top, pair, None),    # the same span: a pair
        (base + 4, 16, 3, 1, pair, None),       # covers [8, 16): a pair
        (base + 4, 32, 4, top, pair, None),     # covers [4, 20): a pair
        (base + 12, 4, 5, 3, full, None),       # leaves [4, 12): expands
        (base + 12, 1, 6, 0, full, None),
        (base - 4, 8, top, 7, full, None),      # tail on the expanded page
        (base + PAGE_SIZE - 4, 8, 8, 0, full, pair),   # tail makes page 5
        (base + PAGE_SIZE - 2, 8, 0, 9, full, pair),   # tail covers [0, 4)
        (base + PAGE_SIZE - 6, 8, 10, 10, full, full),  # tail leaves [2, 6)
    ]
    s = ShadowTable()
    model = ByteModel()
    for i, (addr, size, ctx, ts, four, five) in enumerate(steps):
        value = bytes((i + k) % 3 for k in range(size))
        want = model.probe_update(addr, size, value, ctx, ts)
        assert s.probe_update(addr, size, value, ctx, ts) == want, i
        assert len(s.pages[4][1]) == four, i
        assert five is None or len(s.pages[5][1]) == five, i
    assert len(s.pages[3][1]) == pair     # one crossing load's head
    # Every byte around the three pages reads as the model has it.
    for addr in range(base - PAGE_SIZE, base + 2 * PAGE_SIZE):
        want = model.probe_update(addr, 1, b"\x01", top, addr)
        assert s.probe_update(addr, 1, b"\x01", top, addr) == want, addr


def test_probe_update_across_page_boundary():
    s = ShadowTable()
    addr = PAGE_SIZE - 3
    s.probe_update(addr, 8, bytes(range(8)), ctx=4, ts=2)
    assert s.page_count() == 2
    old, pctx, pts = s.probe_update(addr, 8, bytes(8), ctx=5, ts=9)
    assert old == bytes(range(8))
    assert (pctx, pts) == (4, 2)
    # Every byte on both sides now carries the second load.
    got = [s.probe_update(addr + i, 1, b"\x01", ctx=6, ts=10)
           for i in range(8)]
    assert got == [(b"\x00", 5, 9)] * 8


def test_straddle_with_only_the_first_page_loaded():
    s = ShadowTable()
    addr = 4 * PAGE_SIZE - 4
    s.probe_update(addr, 4, b"\x01\x02\x03\x04", ctx=1, ts=1)
    old, pctx, pts = s.probe_update(addr, 8, bytes(range(8)), ctx=2, ts=2)
    assert old is None
    assert (pctx, pts) == (1, 1)
    assert s.probe_update(addr, 8, bytes(8), ctx=3, ts=3) == (
        bytes(range(8)), 2, 2)


def test_straddle_with_only_the_second_page_loaded():
    s = ShadowTable()
    addr = 4 * PAGE_SIZE - 4
    s.probe_update(4 * PAGE_SIZE, 4, b"\x01\x02\x03\x04", ctx=1, ts=1)
    assert s.probe_update(addr, 8, bytes(range(8)), ctx=2, ts=2) == (
        None, None, None)
    assert s.probe_update(addr, 8, bytes(8), ctx=3, ts=3) == (
        bytes(range(8)), 2, 2)


def test_partial_presence_returns_no_old_bytes():
    s = ShadowTable()
    s.probe_update(0x1000, 2, b"\x01\x02", ctx=1, ts=1)
    old, pctx, pts = s.probe_update(0x1000, 4, bytes(4), ctx=2, ts=2)
    assert old is None
    # Start byte was present, so the prior pair is still reported.
    assert (pctx, pts) == (1, 1)
    old, pctx, pts = s.probe_update(0x2000, 4, bytes(4), ctx=3, ts=3)
    assert old is None and pctx is None and pts is None
    # Start byte absent, later bytes present: no old bytes, no prior.
    s.probe_update(0x3002, 2, b"\x01\x02", ctx=4, ts=4)
    assert s.probe_update(0x3000, 4, bytes(4), ctx=5, ts=5) == (None, None,
                                                                  None)


def test_page_sparsity():
    s = ShadowTable()
    s.probe_update(0x0, 4, bytes(4), ctx=1, ts=1)
    s.probe_update(10 * PAGE_SIZE + 5, 4, bytes(4), ctx=1, ts=2)
    s.probe_update(11 * PAGE_SIZE - 8, 8, bytes(8), ctx=1, ts=3)
    assert s.page_count() == 2


def _traced_memory_per_scattered_load(loads=2000):
    """Peak traced memory of analyzing `loads` 8-byte loads 64 KiB apart,
    every one monitored, per load."""
    sm = SourceMap()
    sm.add_site(1, "main", "a.c", 1)
    events = [load_event(0, i, i << 16, bytes(8), site_id=1)
              for i in range(loads)]
    config = AnalysisConfig(sampling=SamplingConfig.disabled())
    tracemalloc.start()
    try:
        analyze_events(iter(events), sm, config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / loads


def test_scattered_loads_cost_memory_per_byte_touched():
    # The shadow memory scattered loads need must grow with the bytes
    # they touch, not with the address range they span: at most 16 KiB of
    # traced memory per load.
    per_load = _traced_memory_per_scattered_load()
    assert per_load < 16 * 1024, f"{per_load:.0f} bytes per load"


def test_scattered_loads_keep_one_stamp_pair_per_page():
    # A page written by one 8-byte load keeps one (ctx, ts) pair, not
    # PAGE_SIZE stamps: at most 512 bytes of traced memory per load, about
    # a third of what per-byte stamps take.
    per_load = _traced_memory_per_scattered_load()
    assert per_load < 512, f"{per_load:.0f} bytes per load"
