"""Temporal detector: verdicts, class partition, fractions."""

import math
import struct
import sys

import pytest

from redload.cct import ContextTree
from redload.scope import ScopeBudget
from redload.shadow import ShadowTable
from redload.temporal import (DEFAULT_EPSILON, PairCounters, ProgramTotals,
                              TemporalDetector, fp_span_equal, pair_fraction,
                              program_fraction)
from redload.trace import F32, F64, NONFP

from helpers import f64, load_event, u32


def approx_equal(a, b, epsilon=DEFAULT_EPSILON):
    """The spec of one element's comparison, which `fp_span_equal` applies
    element-wise: true when bit-identical, or both finite and within a
    relative epsilon of the larger magnitude. NaN and infinities only ever
    match their exact bit patterns."""
    if math.isnan(a) or math.isnan(b):
        return struct.pack("<d", a) == struct.pack("<d", b)
    if a == b:
        return True
    if math.isinf(a) or math.isinf(b):
        return False
    return abs(a - b) <= epsilon * max(abs(a), abs(b))


def make_detector(epsilon=0.01):
    tree = ContextTree()
    tree.on_call(1)
    shadow = ShadowTable()
    budget = ScopeBudget(tree)
    det = TemporalDetector(shadow, budget, epsilon)
    return tree, det


def feed(tree, det, addr, value, fp=NONFP, site=5):
    ctx, ts = tree.current_load_context(site)
    ev = load_event(0, ts, addr, value, fp_class=fp, site_id=site)
    return det.process_load(ev, ctx, ts)


def test_first_load_not_redundant_counts_bytes():
    tree, det = make_detector()
    redundant, _, prior_ctx, prior_ts = feed(tree, det, 0x1000, u32(9))
    assert not redundant and prior_ctx is None and prior_ts is None
    assert det.totals.total_nonfp_bytes == 4
    assert det.totals.redundant_nonfp_bytes == 0


def test_same_value_same_site_is_precise_redundant():
    tree, det = make_detector()
    feed(tree, det, 0x1000, u32(1))
    redundant, approx_class, _, _ = feed(tree, det, 0x1000, u32(1))
    assert redundant and not approx_class
    ((key, row),) = [kv for kv in det.rows.items() if kv[0][0] is not None]
    assert key[0] == key[1]
    assert row.redundant_bytes_precise == 4
    assert row.redundant_instances == 1 and row.total_instances == 1


def test_fp_within_one_percent_is_approx_redundant():
    tree, det = make_detector()
    feed(tree, det, 0x2000, f64(100.0), fp=F64)
    redundant, approx_class, _, _ = feed(tree, det, 0x2000, f64(100.5),
                                         fp=F64)
    assert redundant and approx_class
    assert det.totals.redundant_fp_bytes == 8
    # 100.5 is not bit-identical, so the exact-FP diagnostic stays put.
    assert all(r.fp_exact_instances == 0 for r in det.rows.values())


def test_fp_beyond_epsilon_not_redundant():
    tree, det = make_detector()
    feed(tree, det, 0x2000, f64(100.0), fp=F64)
    assert not feed(tree, det, 0x2000, f64(102.0), fp=F64)[0]
    assert det.totals.redundant_fp_bytes == 0


def test_fp_bit_identical_counts_exact_diagnostic():
    tree, det = make_detector()
    feed(tree, det, 0x2000, f64(100.0), fp=F64)
    feed(tree, det, 0x2000, f64(100.0), fp=F64)
    assert sum(r.fp_exact_instances for r in det.rows.values()) == 1


def test_simd_f64_all_elements_must_match():
    tree, det = make_detector()
    two = f64(100.0) + f64(50.0)
    feed(tree, det, 0x3000, two, fp=F64)
    assert feed(tree, det, 0x3000, f64(100.4) + f64(50.2), fp=F64)[0]
    assert not feed(tree, det, 0x3000, f64(100.4) + f64(80.0), fp=F64)[0]


def test_partial_shadow_span_not_redundant():
    tree, det = make_detector()
    feed(tree, det, 0x1000, b"\x01\x02")
    redundant, _, prior_ctx, prior_ts = feed(tree, det, 0x1000,
                                             b"\x01\x02\x00\x00")
    assert not redundant
    # The start byte still names a prior context for attribution.
    assert prior_ctx is not None and prior_ts is not None


def test_mixed_writers_can_still_be_redundant():
    tree, det = make_detector()
    feed(tree, det, 0x1000, b"\x01\x02")
    feed(tree, det, 0x1002, b"\x03\x04")
    assert feed(tree, det, 0x1000, b"\x01\x02\x03\x04")[0]


def test_chain_of_equal_loads_pairs_with_immediate_predecessor():
    tree, det = make_detector()
    v1 = feed(tree, det, 0x1000, u32(1))
    v2 = feed(tree, det, 0x1000, u32(1))
    v3 = feed(tree, det, 0x1000, u32(1))
    assert v2[0] and v3[0]
    assert v3[3] > v2[3]
    row = next(r for (o, n), r in det.rows.items() if o is not None)
    assert row.redundant_instances == 2


def test_class_partition_is_exclusive():
    tree, det = make_detector()
    feed(tree, det, 0x1000, u32(1))
    feed(tree, det, 0x2000, f64(1.0), fp=F64)
    t = det.totals
    assert (t.total_nonfp_bytes, t.total_fp_bytes) == (4, 8)
    rows = list(det.rows.values())
    assert sum(r.total_bytes_precise for r in rows) == 4
    assert sum(r.total_bytes_approx for r in rows) == 8


def test_approx_equal_spec_examples():
    assert approx_equal(0.0, 0.0)
    assert approx_equal(100.0, 100.5, 0.01)
    assert not approx_equal(100.0, 102.0, 0.01)
    nan = float("nan")
    assert approx_equal(nan, nan)
    assert not approx_equal(nan, 1.0)
    assert not approx_equal(1.0, nan)
    inf = float("inf")
    assert approx_equal(inf, inf)
    assert not approx_equal(inf, -inf)
    assert not approx_equal(inf, 1e300)
    assert approx_equal(0.0, -0.0)
    assert not approx_equal(0.0, 1e-30, 0.01)


def test_nan_payload_must_match_bits():
    q = struct.unpack("<d", struct.pack("<Q", 0x7FF8000000000001))[0]
    r = struct.unpack("<d", struct.pack("<Q", 0x7FF8000000000002))[0]
    assert math.isnan(q) and math.isnan(r)
    assert approx_equal(q, q)
    assert not approx_equal(q, r)


def test_pair_fraction_arithmetic():
    totals = ProgramTotals(total_nonfp_bytes=80, total_fp_bytes=0)
    rec = PairCounters(redundant_bytes_precise=24, total_bytes_precise=40)
    (precise, ok), (approx, fp_ok) = pair_fraction(rec, totals)
    assert ok and precise == 24 / 80 == 0.3
    assert not fp_ok and approx == 0.0


def test_program_fraction_cases():
    empty = ProgramTotals()
    (p, p_ok), (a, a_ok) = program_fraction(empty)
    assert (p, a) == (0.0, 0.0) and not p_ok and not a_ok
    t = ProgramTotals(total_nonfp_bytes=40, redundant_nonfp_bytes=24)
    (p, p_ok), _ = program_fraction(t)
    assert p_ok and p == 0.6


def test_pair_fractions_sum_to_program_fraction():
    tree, det = make_detector()
    import random
    rng = random.Random(5)
    for _ in range(500):
        addr = 0x1000 + rng.randrange(16)
        feed(tree, det, addr, bytes(rng.choice((0, 1))
                                    for _ in range(rng.choice((1, 2, 4)))))
    (p_prog, _), _ = program_fraction(det.totals)
    total = sum(pair_fraction(r, det.totals)[0][0]
                for r in det.rows.values())
    assert abs(total - p_prog) < 1e-12
    # Conservation of raw byte counters, not just fractions.
    assert sum(r.total_bytes_precise for r in det.rows.values()) == \
        det.totals.total_nonfp_bytes
    assert sum(r.redundant_bytes_precise for r in det.rows.values()) == \
        det.totals.redundant_nonfp_bytes


def _fp_edge_values(fmt, max_finite, min_subnormal):
    nan_bits = {"<f": ("<I", 0x7FC00000, 0x7FC00001),
                "<d": ("<Q", 0x7FF8000000000000, 0x7FF8000000000001)}[fmt]
    nans = [struct.unpack(fmt, struct.pack(nan_bits[0], bits))[0]
            for bits in nan_bits[1:]]
    # b with |a - b| exactly epsilon * b for a = 100 and epsilon 0.01, and
    # the neighbours of b on either side.
    edge = 100.0 / 0.99
    return [0.0, -0.0, math.inf, -math.inf, *nans, min_subnormal,
            -min_subnormal, max_finite, -max_finite, 100.0, edge,
            math.nextafter(edge, 0.0), math.nextafter(edge, math.inf),
            100.0 * 0.99, 101.0, 103.0, 1.0]


@pytest.mark.parametrize("fp_class,fmt,max_finite,min_subnormal", [
    (F32, "<f", 3.4028234663852886e38, 1.401298464324817e-45),
    (F64, "<d", sys.float_info.max, 5e-324),
])
def test_fp_span_equal_one_element_agrees_with_approx_equal(
        fp_class, fmt, max_finite, min_subnormal):
    spans = [struct.pack(fmt, x)
             for x in _fp_edge_values(fmt, max_finite, min_subnormal)]
    outcomes = set()
    for old in spans:
        for new in spans:
            a = struct.unpack(fmt, old)[0]
            b = struct.unpack(fmt, new)[0]
            want = approx_equal(a, b, 0.01)
            assert fp_span_equal(old, new, fp_class, 0.01) == want, (a, b)
            if old != new:
                outcomes.add(want)
    # Not bit-identical pairs fall on both sides of epsilon.
    assert outcomes == {True, False}


@pytest.mark.parametrize("fp_class,fmt", [(F32, "<f"), (F64, "<d")])
def test_fp_span_equal_multi_element_checks_the_last_element(fp_class, fmt):
    head = [1.0, -2.0, 300.0]
    old = struct.pack("<" + fmt[1] * 4, *head, 50.0)
    for last in (50.0, 50.4, 51.0, math.nan, math.inf):
        new = struct.pack("<" + fmt[1] * 4, *head, last)
        want = approx_equal(50.0, last, 0.01)
        assert fp_span_equal(old, new, fp_class, 0.01) == want, last
