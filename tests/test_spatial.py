"""Object registry and spatial detector behavior."""

import random
import time
import tracemalloc

import pytest

from redload import engine
from redload.cct import ContextTree
from redload.engine import AnalysisConfig, analyze_events
from redload.errors import MalformedTraceError
from redload.sampling import SamplingConfig
from redload.scope import ScopeBudget
from redload.spatial import (ObjectRegistry, SpatialDetector,
                             object_fractions)
from redload.temporal import PairCounters
from redload.trace import (ALLOC, F64, FREE, THREAD_START, SourceMap,
                           TraceEvent)

from helpers import Build, f64, load_event, u32
from oracles import assert_profiles_equal, expected_analysis


def test_alloc_lookup_free():
    reg = ObjectRegistry()
    oid = reg.on_alloc(0x1000, 64, (("function", 1),))
    assert reg.lookup(0x1020).object_id == oid
    assert reg.lookup(0x0FFF) is None
    assert reg.lookup(0x1040) is None
    reg.on_free(0x1000)
    assert reg.lookup(0x1020) is None
    assert len(reg.archive) == 1


def test_static_image_lookup():
    reg = ObjectRegistry()
    reg.on_static_image([("A", 0x2000, 16)])
    desc = reg.lookup(0x2004)
    assert desc.report_key == ("static", "A")


def test_overlapping_alloc_rejected():
    reg = ObjectRegistry()
    reg.on_alloc(0x1000, 64, ())
    with pytest.raises(MalformedTraceError):
        reg.on_alloc(0x1020, 16, ())
    with pytest.raises(MalformedTraceError):
        reg.on_alloc(0x0FF0, 0x20, ())
    reg.on_alloc(0x1040, 16, ())    # adjacent is fine
    # A zero-size object still owns its base.
    reg.on_alloc(0x2000, 0, ())
    for size in (0, 8):
        with pytest.raises(MalformedTraceError):
            reg.on_alloc(0x2000, size, ())
    # The first overlaps both its neighbours and names the previous one.
    for base, size, other in ((0x1030, 0x20, 0x1000), (0x1FF0, 0x20, 0x2000)):
        with pytest.raises(MalformedTraceError) as err:
            reg.on_alloc(base, size, ())
        assert str(err.value) == (f"allocation [{base:#x}, {base + size:#x})"
                                  f" overlaps live object at {other:#x}")
    reg.on_alloc(0x1FF8, 8, ())     # ends at the zero-size object's base


def test_unmatched_free_rejected():
    reg = ObjectRegistry()
    reg.on_static_image([("A", 0x2000, 16)])
    with pytest.raises(MalformedTraceError):
        reg.on_free(0x3000)
    with pytest.raises(MalformedTraceError):
        reg.on_free(0x2000)     # static objects are not freeable


def test_range_reuse_after_free_is_new_object():
    reg = ObjectRegistry()
    first = reg.on_alloc(0x1000, 64, ())
    reg.on_free(0x1000)
    second = reg.on_alloc(0x1000, 64, ())
    assert first != second


def make_spatial():
    tree = ContextTree()
    tree.on_call(1)
    reg = ObjectRegistry()
    det = SpatialDetector(reg, ScopeBudget(tree), epsilon=0.01)
    return tree, reg, det


def feed(tree, det, addr, value, fp=0, site=5):
    ctx, ts = tree.current_load_context(site)
    ev = load_event(0, ts, addr, value, fp_class=fp, site_id=site)
    return det.process_load(ev, ctx, ts)


def test_listing_sequence_1_1_1_15():
    tree, reg, det = make_spatial()
    reg.on_static_image([("A", 0x2000, 16)])
    verdicts = [feed(tree, det, 0x2000 + 4 * i, u32(v))
                for i, v in enumerate((1, 1, 1, 15))]
    assert [redundant for redundant, _ in verdicts] == \
        [False, True, True, False]
    row = det.object_rows[("static", "A")]
    assert row.redundant_instances == 2 and row.total_instances == 4
    assert row.redundant_bytes_precise == 8 and row.total_bytes_precise == 16
    (precise, ok), _ = object_fractions(det.object_rows)[("static", "A")]
    assert ok and precise == 0.5


def test_loads_outside_objects_are_ignored():
    tree, reg, det = make_spatial()
    assert feed(tree, det, 0x9000, u32(1)) == (False, None)
    assert det.object_rows == {}


def test_lookup_decided_by_start_address():
    tree, reg, det = make_spatial()
    reg.on_static_image([("A", 0x2000, 16)])
    # Span starts on the object's last byte and runs past its end.
    assert feed(tree, det, 0x200F, bytes(4))[1] is not None
    assert feed(tree, det, 0x2010, bytes(4))[1] is None


def test_size_mismatch_is_not_redundant_but_updates():
    tree, reg, det = make_spatial()
    reg.on_static_image([("A", 0x2000, 16)])
    feed(tree, det, 0x2000, u32(1))
    assert not feed(tree, det, 0x2004, b"\x01\x00")[0]
    # Compares against the updated 2-byte value.
    assert feed(tree, det, 0x2006, b"\x01\x00")[0]


def test_approx_spatial_redundancy():
    tree, reg, det = make_spatial()
    reg.on_static_image([("V", 0x3000, 64)])
    feed(tree, det, 0x3000, f64(100.0), fp=F64)
    assert feed(tree, det, 0x3010, f64(100.5), fp=F64)[0]
    row = det.object_rows[("static", "V")]
    assert row.redundant_bytes_approx == 8
    assert row.fp_exact_instances == 0


def test_same_alloc_context_objects_share_report_row():
    tree, reg, det = make_spatial()
    ctx_path = (("function", 1),)
    reg.on_alloc(0x1000, 16, ctx_path)
    reg.on_alloc(0x2000, 16, ctx_path)
    feed(tree, det, 0x1000, u32(3))
    feed(tree, det, 0x2000, u32(3))
    # Distinct live objects, one report row, but priors are per object:
    # the second object's first load is not redundant.
    assert len(det.object_rows) == 1
    row = det.object_rows[("dynamic", ctx_path)]
    assert row.total_instances == 2 and row.redundant_instances == 0
    feed(tree, det, 0x1004, u32(3))
    assert row.redundant_instances == 1


def test_new_object_at_a_freed_base_has_no_prior():
    # No load falls between the free and the new allocation, so the
    # object of the latest hit was the freed one: the new object's first
    # load must not be compared with the freed object's last value.
    for second_path in ((("function", 1),), (("function", 2),)):
        tree, reg, det = make_spatial()
        a = reg.on_alloc(0x1000, 64, (("function", 1),))
        feed(tree, det, 0x1010, u32(7))
        assert feed(tree, det, 0x1010, u32(7)) == (True, a)
        reg.on_free(0x1000)
        b = reg.on_alloc(0x1000, 64, second_path)
        assert feed(tree, det, 0x1010, u32(7)) == (False, b)
        assert feed(tree, det, 0x1010, u32(7)) == (True, b)
        rows = det.object_rows
        assert sum(r.redundant_instances for r in rows.values()) == 2
        assert len(rows) == (1 if second_path == (("function", 1),) else 2)


def _alternating_trace():
    """Two threads share objects A and B and load them in turn, each load
    of A and B interleaved, with values that repeat per object but never
    from one object to the next."""
    main = Build(0)
    main.sm.add_site(1, "main", "a.c", 1)
    main.sm.add_site(2, "main", "a.c", 2)
    main.sm.add_site(3, "main", "a.c", 3)
    other = Build(1, main.sm)
    main.static_image([("A", 0x2000, 32), ("B", 0x3000, 32)])
    for b in (main, other):
        b.thread_start()
        b.call(1)
    for i in range(24):
        b = (main, other)[i // 3 % 2]
        a_value = u32(i // 6)            # repeats in runs per thread
        b_value = u32(100 + i % 2)
        b.load(0x2000 + 4 * (i % 8), a_value, site=2)
        b.load(0x3000 + 4 * (i % 8), b_value, site=3)
    other.alloc(0x5000, 16)
    for i in range(6):
        other.load(0x5000 + 4 * (i % 4), u32(i % 2), site=3)
        other.load(0x2000, u32(9), site=2)
    events = sorted(main.events + other.events, key=lambda e: e.ins_index)
    return events, main.sm


def test_alternating_objects_match_the_oracle():
    events, sm = _alternating_trace()
    sink = []
    config = AnalysisConfig(sampling=SamplingConfig.disabled())
    profile = analyze_events(events, sm, config, verdict_sink=sink.append)
    expected = expected_analysis(events, sm)
    # The oracle numbers objects from 0 in allocation order, the registry
    # from 1.
    got = [(tid, None if oid is None else oid - 1, redundant)
           for tid, _, (redundant, oid) in sink]
    assert got == expected.spatial_verdicts
    assert any(redundant for _, _, redundant in got)
    assert_profiles_equal(expected.profile, profile)


def test_pair_rows_record_redundancy_instances_only():
    tree, reg, det = make_spatial()
    reg.on_static_image([("A", 0x2000, 16)])
    for i, v in enumerate((1, 1, 1, 15)):
        feed(tree, det, 0x2000 + 4 * i, u32(v))
    ((key, row),) = det.pair_rows.items()
    assert row.total_instances == row.redundant_instances == 2


def test_object_fraction_zero_denominator():
    (p, p_ok), (a, a_ok) = object_fractions({"A": PairCounters()})["A"]
    assert not p_ok and not a_ok and p == 0.0 and a == 0.0


def test_disjointness_after_churn():
    reg = ObjectRegistry()
    reg.on_static_image([("A", 0x0, 16)])
    for i in range(50):
        base = 0x1000 + (i % 5) * 0x100
        reg.on_alloc(base, 0x80, ())
        assert reg.lookup(base + 1).base == base
        reg.on_free(base)
    # All bases distinct and live ranges disjoint at every step above.
    assert len(reg.archive) == 50


def scan_lookup(reg, addr):
    """The answer without the memo or the bisect: a scan of live objects."""
    hits = [d for d in reg.by_base.values()
            if d.base <= addr < d.end]
    assert len(hits) <= 1
    return hits[0] if hits else None


def test_lookup_memo_retires_on_free_and_reuse():
    tree, reg, det = make_spatial()
    ctx_path = (("function", 1),)
    a = reg.on_alloc(0x1000, 64, ctx_path)
    assert feed(tree, det, 0x1010, u32(7))[1] == a
    reg.on_free(0x1000)
    # The memo named A when A was freed; the free retires it.
    assert reg.lookup(0x1010) is None
    assert feed(tree, det, 0x1010, u32(7))[1] is None
    b = reg.on_alloc(0x1000, 64, ctx_path)
    assert b != a
    # B is a new object with its own prior: the same value is no repeat.
    assert feed(tree, det, 0x1010, u32(7)) == (False, b)
    assert feed(tree, det, 0x1014, u32(7))[0]
    row = det.object_rows[("dynamic", ctx_path)]
    assert row.total_instances == 3 and row.redundant_instances == 1


def test_lookup_memo_agrees_with_scan():
    reg = ObjectRegistry()
    reg.on_static_image([("A", 0x2000, 16), ("B", 0x2010, 16),
                         ("C", 0x3000, 8)])
    alternating = [0x2000, 0x3004, 0x2008, 0x3007, 0x200F, 0x3000] * 3
    past_end = [0x2000, 0x200F, 0x2010, 0x201F, 0x2020, 0x2FFF, 0x3007,
                0x3008, 0x3008, 0x1FFF, 0x2004]
    for addr in alternating + past_end:
        assert reg.lookup(addr) is scan_lookup(reg, addr), hex(addr)
    # A free or an allocation between lookups leaves them exact.
    reg.on_alloc(0x4000, 32, ())
    for step in range(40):
        addr = 0x4000 + 7 * step % 48
        assert reg.lookup(addr) is scan_lookup(reg, addr), hex(addr)
        if step == 20:
            reg.on_free(0x4000)
        if step == 30:
            reg.on_alloc(0x4010, 8, ())


def _churn(cycles):
    """One thread that allocates 64 bytes at one base, loads 8 of them
    twice and frees them, `cycles` times; the events are made as they are
    consumed, so only the analysis holds memory."""
    yield TraceEvent(THREAD_START, 0, 0)
    for k in range(cycles):
        ins = 4 * k
        yield TraceEvent(ALLOC, 0, ins + 1, base=0x1000, alloc_size=64)
        yield load_event(0, ins + 2, 0x1000, bytes(8), site_id=1)
        yield load_event(0, ins + 3, 0x1000, bytes(8), site_id=1)
        yield TraceEvent(FREE, 0, ins + 4, base=0x1000)


def test_retained_memory_follows_live_objects_not_allocations(monkeypatch):
    # The analysis state at the end of the event loop, measured when
    # canonicalize gets it, stays the same size under alloc/free churn:
    # no freed object leaves a descriptor or a detector entry behind.
    sm = SourceMap()
    sm.add_site(1, "main", "churn.c", 1)
    config = AnalysisConfig(sampling=SamplingConfig.disabled())
    canonicalize = engine.canonicalize
    retained, freed = [], []

    def measured(worker, source_map):
        retained.append(tracemalloc.get_traced_memory()[0])
        freed.append(len(worker.spatial.registry.archive))
        return canonicalize(worker, source_map)

    monkeypatch.setattr(engine, "canonicalize", measured)
    profiles = []
    for cycles in (10_000, 40_000):
        tracemalloc.start()
        try:
            profiles.append(analyze_events(_churn(cycles), sm, config))
        finally:
            tracemalloc.stop()
        assert freed[-1] == cycles
        assert_profiles_equal(expected_analysis(_churn(cycles), sm).profile,
                              profiles[-1])
    small, large = retained
    assert large - small < 1 << 20, (small, large)
    assert len(profiles[1].temporal_pairs) == 2


@pytest.mark.parametrize("threads", [1, 2])
def test_thread_state_of_a_freed_object_goes_with_it(threads):
    # A new object at a freed base, from the same allocation context, has
    # the old object's report row but none of its per-thread state: in
    # every thread that loaded the old one, its first load is no repeat.
    sm = SourceMap()
    sm.add_site(1, "main", "a.c", 1)
    builds = [Build(tid, sm) for tid in range(threads)]
    events = []
    for b in builds:
        events += [b.thread_start(), b.call(1)]
    main = builds[0]
    events.append(main.alloc(0x1000, 64))
    for b in builds:
        events += [b.load(0x1010, u32(7), 1), b.load(0x1010, u32(7), 1)]
    events += [main.free(0x1000), main.alloc(0x1000, 64)]
    for b in builds:
        events += [b.load(0x1010, u32(7), 1), b.load(0x1010, u32(7), 1)]
    sink = []
    config = AnalysisConfig(sampling=SamplingConfig.disabled())
    profile = analyze_events(events, sm, config, verdict_sink=sink.append)
    assert [(tid, sv) for tid, _, sv in sink] == [
        (tid, (redundant, oid)) for oid in (1, 2) for tid in range(threads)
        for redundant in (False, True)]
    expected = expected_analysis(events, sm)
    assert [(tid, oid - 1, redundant) for tid, _, (redundant, oid)
            in sink] == expected.spatial_verdicts
    assert_profiles_equal(expected.profile, profile)
    (row,) = profile.objects.values()
    assert row.total_instances == 4 * threads
    assert row.redundant_instances == 2 * threads


def _scattered_frees(n, seed=5):
    """One thread allocates n 64-byte objects at rising bases, loads each
    once and frees them all in a random order; the events are made as
    they are consumed."""
    order = list(range(n))
    random.Random(seed).shuffle(order)
    yield TraceEvent(THREAD_START, 0, 0)
    for i in range(n):
        yield TraceEvent(ALLOC, 0, 1 + i, base=0x10000 + 64 * i,
                         alloc_size=64)
    for i in range(n):
        yield load_event(0, 1 + n + i, 0x10000 + 64 * i, bytes(8),
                         site_id=1)
    for k, i in enumerate(order):
        yield TraceEvent(FREE, 0, 1 + 2 * n + k, base=0x10000 + 64 * i)


def test_registry_frees_scale_with_live_objects():
    # A free finds its base by bisection: per-event time stays near flat
    # from 10k to 80k live objects (a linear search per free is ~6x).
    sm = SourceMap()
    sm.add_site(1, "main", "scatter.c", 1)
    config = AnalysisConfig(sampling=SamplingConfig.disabled())
    per_event = {}
    for n in (10_000, 80_000):
        runs = []
        for _ in range(3):
            start = time.process_time()
            profile = analyze_events(_scattered_frees(n), sm, config)
            runs.append(time.process_time() - start)
        assert profile.totals.total_nonfp_bytes == 8 * n
        per_event[n] = min(runs) / (1 + 3 * n)
    assert per_event[80_000] <= 3 * per_event[10_000], per_event


def _random_frees_trace(n, seed):
    """Three threads share n 64-byte objects: each thread loads them with
    values that often repeat, they are freed in a random order, and a
    freed base is often allocated again from the same context and loaded,
    or loaded while it holds no object."""
    rng = random.Random(seed)
    sm = SourceMap()
    sm.add_site(1, "main", "f.c", 1)
    builds = [Build(tid, sm) for tid in range(3)]
    events = []
    for b in builds:
        events += [b.thread_start(), b.call(1)]
    bases = [0x10000 + 64 * i for i in range(n)]

    def loads(base):
        for _ in range(rng.randint(1, 4)):
            addr = base + 4 * rng.randrange(16)
            events.append(rng.choice(builds).load(addr, u32(rng.randrange(2)),
                                                  1))

    for base in bases:
        events.append(rng.choice(builds).alloc(base, 64))
        loads(base)
    for base in rng.sample(bases, n):
        events.append(rng.choice(builds).free(base))
        if rng.random() < 0.5:
            events.append(rng.choice(builds).alloc(base, 64))
        loads(base)
    return events, sm


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_random_free_order_matches_the_oracle(seed):
    events, sm = _random_frees_trace(150, seed)
    sink = []
    config = AnalysisConfig(sampling=SamplingConfig.disabled())
    profile = analyze_events(events, sm, config, verdict_sink=sink.append)
    expected = expected_analysis(events, sm)
    got = [(tid, None if oid is None else oid - 1, redundant)
           for tid, _, (redundant, oid) in sink]
    assert got == expected.spatial_verdicts
    assert any(redundant for _, _, redundant in got)
    assert any(oid is None for _, oid, _ in got)
    assert_profiles_equal(expected.profile, profile)
