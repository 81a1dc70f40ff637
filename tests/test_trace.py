"""Trace format: round-trips, error reporting, fuzz robustness."""

import io
import random
import re
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from redload import trace
from redload.cli import main
from redload.engine import AnalysisConfig, analyze_events, analyze_path
from redload.errors import RedloadError, TraceDecodeError, TraceEncodeError
from redload.sampling import SamplingConfig
from redload.trace import (ALLOC, CALL, F32, F64, FREE, LOAD, LOOPHEAD,
                           NONFP, RECORDS, RETURN, STATIC_IMAGE, THREAD_START,
                           SourceMap, TraceEvent, _BY_TAG, _HEADER,
                           _LOAD_LENGTHS, _LOAD_SHAPES, _Reader, _load_error,
                           read_text_trace, read_trace, write_text_trace,
                           write_trace)
from redload.workloads import Scenario, generate

from helpers import Build, f64, is_monitored, load_event, u32


def roundtrip(events, source_map):
    buf = io.BytesIO()
    write_trace(events, source_map, buf)
    buf.seek(0)
    got, sm = read_trace(buf)
    return list(got), sm, buf.getvalue()


def text_stream(text):
    return io.BytesIO(text.encode("utf-8"))


def test_empty_trace_roundtrip():
    events, sm, raw = roundtrip([], SourceMap())
    assert events == []
    assert sm.sites == {} and sm.loops == {}
    assert raw[:4] == b"LRT1"


def test_single_load_roundtrips_bit_exactly():
    srcmap = SourceMap()
    srcmap.add_site(1, "main", "a.c", 1)
    ev = load_event(0, 0, 0x1000, bytes([1, 0, 0, 0]), site_id=1)
    events, sm, _ = roundtrip([ev], srcmap)
    assert events == [ev]
    assert events[0].value == b"\x01\x00\x00\x00"
    assert sm.sites[1] == ("main", "a.c", 1)


def _all_kinds_build():
    b = Build(tid=2)
    b.sm.add_site(1, "main", "m.c", 1)
    b.sm.add_site(2, "f", "m.c", 9)
    b.sm.add_loop(5, "m.c", 3)
    b.thread_start()
    b.static_image([("A", 0x2000, 16), ("B sp", 0x3000, 8)])
    b.call(1)
    b.loop(5, 1)
    b.load(0x2000, u32(7), 2)
    b.load(0x3000, bytes(range(32)), 2, fp=F64)
    b.alloc(0x9000, 64)
    b.call(2)
    b.ret(2)
    b.free(0x9000)
    b.ret(1)
    return b


def test_all_event_kinds_roundtrip():
    b = _all_kinds_build()
    events, sm, _ = roundtrip(b.events, b.sm)
    assert events == b.events
    assert sm.loops == b.sm.loops and sm.sites == b.sm.sites


def test_generated_scenario_roundtrips():
    scenario = Scenario("random_mixed", {"loads": 8000, "seed": 3})
    events, sm = generate(scenario)
    original = list(events)
    assert len(original) >= 10_000
    events, _, _ = roundtrip(original, sm)
    assert events == original


def test_trace_bytes_deterministic():
    scenario = Scenario("random_mixed", {"loads": 1000, "seed": 11})
    raws = []
    for _ in range(2):
        events, sm = generate(scenario)
        buf = io.BytesIO()
        write_trace(events, sm, buf)
        raws.append(buf.getvalue())
    assert raws[0] == raws[1]


def test_bad_magic_is_decode_error_at_offset_zero():
    with pytest.raises(TraceDecodeError) as err:
        read_trace(io.BytesIO(b"XXXX" + bytes(40)))
    assert err.value.offset == 0


def test_unknown_kind_reports_record_offset():
    srcmap = SourceMap()
    srcmap.add_site(1, "main", "a.c", 1)
    buf = io.BytesIO()
    write_trace([load_event(0, 0, 0x10, b"\x00", site_id=1)], srcmap, buf)
    raw = bytearray(buf.getvalue())
    record_start = len(raw) - (1 + 12 + 14 + 1)
    raw[record_start] = 0xEE
    events, _ = read_trace(io.BytesIO(bytes(raw)))
    with pytest.raises(TraceDecodeError) as err:
        list(events)
    assert err.value.offset == record_start
    # Cut inside the common header, the record is truncated first.
    events, _ = read_trace(io.BytesIO(bytes(raw[:record_start + 5])))
    with pytest.raises(TraceDecodeError, match="truncated") as err:
        list(events)
    assert err.value.offset == record_start


def _boundary_trace():
    """A small trace of five records: its bytes and its events."""
    b = Build()
    b.sm.add_site(1, "main", "a.c", 1)
    b.sm.add_loop(2, "a.c", 2)
    b.thread_start()
    b.call(1)
    b.loop(2, 1)
    b.load(0x1000, u32(5), 1)
    b.ret(1)
    buf = io.BytesIO()
    write_trace(b.events, b.sm, buf)
    return buf.getvalue(), b.events


def test_truncation_at_every_boundary_errors_never_crashes():
    raw, _ = _boundary_trace()
    full = list(read_trace(io.BytesIO(raw))[0])
    # Record sizes: common header is 13 bytes plus the kind payload.
    header = len(raw) - (13 + 13 + 4 + 13 + 8 + 13 + 14 + 4 + 13 + 4)
    starts = [header]
    for size in (13, 13 + 4, 13 + 8, 13 + 14 + 4):
        starts.append(starts[-1] + size)
    for cut in range(len(raw)):
        try:
            events, _ = read_trace(io.BytesIO(raw[:cut]))
            got = list(events)
        except TraceDecodeError as err:
            if cut >= header:
                # Mid-record truncation names the record's start offset.
                record_start = max(s for s in starts if s <= cut)
                assert err.offset == record_start
            continue
        # A clean record boundary yields a prefix of the full sequence.
        assert got == full[:len(got)]
        assert cut in (*starts, len(raw)) or cut < header


class ShortReads:
    """A stream whose read(n) returns at most `k` bytes at a time."""

    def __init__(self, raw, k):
        self.inner = io.BytesIO(raw)
        self.k = k

    def read(self, n):
        return self.inner.read(min(n, self.k))


def _decode_outcome(stream):
    """The events a stream decodes to, or the error it stops with."""
    try:
        events, sm = read_trace(stream)
        return list(events), sm
    except TraceDecodeError as err:
        return err.offset, str(err)


@pytest.mark.parametrize("k", range(1, 8))
def test_short_reads_decode_like_bytesio(k):
    # Records straddle every possible refill point; each truncation must
    # still stop at the same record with the same error.
    b = _all_kinds_build()
    all_kinds = (roundtrip(b.events, b.sm)[2], b.events)
    for raw, events in (_boundary_trace(), all_kinds):
        got, _ = _decode_outcome(ShortReads(raw, k))
        assert got == events
        for cut in range(len(raw)):
            assert _decode_outcome(ShortReads(raw[:cut], k)) == \
                _decode_outcome(io.BytesIO(raw[:cut]))


def test_static_image_larger_than_refill_chunk_roundtrips():
    b = Build()
    b.sm.add_site(1, "main", "a.c", 1)
    b.thread_start()
    b.static_image([(f"object_{i:06d}_{'x' * 40}", 0x1000_0000 + 64 * i, 64)
                    for i in range(20_000)])
    b.load(0x1000_0000, u32(5), 1)
    events, _, raw = roundtrip(b.events, b.sm)
    assert len(raw) > _Reader.CHUNK
    assert events == b.events

    # An error found after the record was refilled still names its start.
    header = len(roundtrip([], b.sm)[2])
    image_start = header + 13
    bad = bytearray(raw)
    bad[image_start + 5:image_start + 13] = (0).to_bytes(8, "little")
    decoded, _ = read_trace(io.BytesIO(bytes(bad)))
    with pytest.raises(TraceDecodeError) as err:
        list(decoded)
    assert err.value.offset == image_start


class ChunkSink:
    """A binary sink that keeps a copy of each write."""

    def __init__(self):
        self.writes = []

    def write(self, b):
        self.writes.append(bytes(b))
        return len(b)

    def getvalue(self):
        return b"".join(self.writes)


def test_write_trace_across_chunks_counts_roundtrips_and_fails_whole():
    events, sm = generate(Scenario("stencil", {"nx": 128, "ny": 64,
                                               "reps": 3}))
    events = list(events)
    sink = ChunkSink()
    written = write_trace(events, sm, sink)
    raw = sink.getvalue()
    assert len(sink.writes) > 1 and len(raw) > _Reader.CHUNK
    assert written == len(raw)
    decoded, _ = read_trace(io.BytesIO(raw))
    assert list(decoded) == events

    # An event past the first chunk fails as it would in the first, and
    # the sink holds the header and a prefix of whole records.
    index = len(events) - 10
    bad = events[index]
    assert bad.kind == LOAD
    events[index] = TraceEvent(LOAD, bad.thread_id, bad.ins_index,
                               addr=bad.addr, size=8, value=b"\x01",
                               fp_class=F64, site_id=bad.site_id)
    sink = ChunkSink()
    with pytest.raises(TraceEncodeError) as err:
        write_trace(events, sm, sink)
    assert err.value.event_index == index
    assert str(err.value) == f"event {index}: value has 1 bytes, size says 8"
    prefix = sink.getvalue()
    assert raw.startswith(prefix)
    decoded, _ = read_trace(io.BytesIO(prefix))
    kept = list(decoded)    # a record cut short would raise here
    assert 0 < len(kept) < index and kept == events[:len(kept)]


def test_reader_rejects_ins_index_not_increasing_per_thread():
    b = Build(tid=3)
    b.sm.add_site(1, "main", "a.c", 1)
    b.ins = 40
    b.thread_start()
    b.load(0x1000, u32(5), 1)
    b.load(0x1004, u32(6), 1)
    other = TraceEvent(THREAD_START, 4, 0)  # another thread may run behind
    events = b.events[:2] + [other] + b.events[2:]
    buf = io.BytesIO()
    write_trace(events, b.sm, buf)
    raw = bytearray(buf.getvalue())
    load_size = 27 + 4
    last_start = len(raw) - load_size
    # Give the last load thread 3's previous ins_index (41).
    raw[last_start + 5:last_start + 13] = (41).to_bytes(8, "little")
    decoded, _ = read_trace(io.BytesIO(bytes(raw)))
    with pytest.raises(TraceDecodeError) as err:
        list(decoded)
    assert err.value.offset == last_start
    assert "thread 3" in str(err.value)
    assert "ins_index 41 after 41" in str(err.value)

    out = io.StringIO()
    write_text_trace(events, b.sm, out)
    lines = out.getvalue().splitlines()
    lines[-1] = lines[-1].replace("L 3 42 ", "L 3 40 ")
    decoded, _ = read_text_trace(text_stream("\n".join(lines) + "\n"))
    with pytest.raises(TraceDecodeError) as err:
        list(decoded)
    assert err.value.line == len(lines)
    assert "thread 3" in str(err.value)
    assert "ins_index 40 after 41" in str(err.value)


def test_binary_reader_rejects_bad_load_shapes():
    b = Build()
    b.sm.add_site(1, "main", "a.c", 1)
    b.load(0x1000, f64(1.0), 1, fp=F64)
    buf = io.BytesIO()
    write_trace(b.events, b.sm, buf)
    good = buf.getvalue()
    start = len(good) - (27 + 8)
    # (size, fp_class) written over the load's record.
    for size, fp, message in ((4, F64, "f64 load size 4 not a multiple of 8"),
                              (2, F32, "f32 load size 2 not a multiple of 4"),
                              (3, NONFP, "bad load size 3"),
                              (8, 3, "bad fp_class 3"),
                              (1, 4, "bad fp_class 4")):
        raw = bytearray(good)
        raw[start + 21] = size
        raw[start + 22] = fp
        events, _ = read_trace(io.BytesIO(bytes(raw)))
        with pytest.raises(TraceDecodeError) as err:
            list(events)
        assert err.value.offset == start
        assert str(err.value) == f"offset {start}: {message}"


def test_decoder_load_shape_check_agrees_with_the_rule():
    # The decoder's and the encoder's one-lookup tests must accept exactly
    # the (size, fp_class) pairs that the full rule accepts: all u8 pairs,
    # and for the encoder, whose input is not u8, negative classes too.
    for size in range(256):
        for fp in range(-2, 256):
            ok = _load_error(size, fp, size) is None
            assert ((size, fp) in _LOAD_SHAPES) == ok, (size, fp)
            if fp >= 0:
                length = _LOAD_LENGTHS.get(size | fp << 8)
                assert length == (RECORDS[LOAD].struct.size + size
                                  if ok else None), (size, fp)


def test_malformed_loads_in_a_gap_are_rejected_like_monitored_ones(
        tmp_path):
    # The decoder drops the loads outside a monitoring window only after
    # checking them: each defect raises the error, at the offset, that it
    # raises with every load monitored.
    b = Build()
    b.sm.add_site(1, "main", "a.c", 1)
    b.thread_start()
    b.ins = 10          # the gap of a 2-in-102 window
    for k in range(3):
        b.load(0x1000 + 8 * k, u32(k), 1)
    buf = io.BytesIO()
    write_trace(b.events, b.sm, buf)
    good = buf.getvalue()
    last = len(good) - (27 + 4)
    shape = bytearray(good)
    shape[last + 21] = 3                        # size 3
    order = bytearray(good)
    order[last + 5:last + 13] = (11).to_bytes(8, "little")
    cases = ((f"offset {last}: bad load size 3", bytes(shape)),
             (f"offset {last}: truncated record", good[:-2]),
             (f"offset {last}: ins_index 11 after 11 in thread 0",
              bytes(order)))
    gap = AnalysisConfig(sampling=SamplingConfig(2, 100))
    full = AnalysisConfig(sampling=SamplingConfig.disabled())
    path = tmp_path / "t.lrt"
    for message, raw in cases:
        path.write_bytes(raw)
        errors = []
        for config in (gap, full):
            with pytest.raises(TraceDecodeError) as err:
                analyze_path(str(path), config)
            errors.append((str(err.value), err.value.offset))
        assert errors[0] == errors[1]
        assert errors[0][0].startswith(message)
        assert errors[0][1] == last


def _gap_trace(seed, threads, records):
    """The events and bytes of a valid trace of `threads` threads whose
    runs interleave: each run is one thread's passes of one loop, with a
    load of a random shape in each, and now and then a call, a return or
    a jump of the thread's ins_index across a window. The last thread
    has no thread_start, so its first event is a loop head or a load."""
    rng = random.Random(seed)
    sm = SourceMap()
    for site in (1, 2, 3):
        sm.add_site(site, "f", "g.c", site)
    for loop in (11, 12):
        sm.add_loop(loop, "g.c", loop)
    shapes = sorted(_LOAD_SHAPES)
    ins, depth = [0] * threads, [0] * threads
    events = [TraceEvent(THREAD_START, tid, 0) for tid in range(threads - 1)]

    def emit(tid, kind, **fields):
        ins[tid] += rng.choice((1, 1, 2, 3))
        events.append(TraceEvent(kind, tid, ins[tid], **fields))

    while len(events) < records:
        tid = rng.randrange(threads)
        roll = rng.random()
        if roll < 0.02:
            ins[tid] += rng.randrange(200_000)
        if roll < 0.06:
            emit(tid, CALL, site_id=1)
            depth[tid] += 1
        elif roll < 0.1 and depth[tid]:
            emit(tid, RETURN, site_id=1)
            depth[tid] -= 1
        loop = rng.choice((11, 11, 12))
        load_first = rng.random() < 0.3
        for _ in range(rng.randrange(1, 80)):
            if not load_first:
                emit(tid, LOOPHEAD, loop_id=loop, site_id=1)
            load_first = False
            size, fp = rng.choice(shapes)
            emit(tid, LOAD, addr=0x1000 + 8 * rng.randrange(64), size=size,
                 value=bytes(rng.randrange(2) for _ in range(size)),
                 fp_class=fp, site_id=rng.choice((2, 3)))
    buf = io.BytesIO()
    write_trace(events, sm, buf)
    return events, buf.getvalue()


def _gated_model(events, sampling):
    """The spec of a gated decode: (kind, thread_id, ins_index, records
    skipped before the event) of each event yielded, and the records
    skipped in all. A load outside a window is dropped unless it is its
    thread's first event; a loop head is dropped when the event yielded
    last is a loop head of the same thread and loop."""
    out, seen = [], set()
    repeat = None   # (thread_id, loop_id) of the last yielded loop head
    skipped = 0
    for ev in events:
        tid = ev.thread_id
        if (ev.kind == LOAD and tid in seen
                and not is_monitored(ev.ins_index, sampling)):
            skipped += 1
        elif ev.kind == LOOPHEAD and repeat == (tid, ev.loop_id):
            skipped += 1
        else:
            out.append((ev.kind, tid, ev.ins_index, skipped))
            repeat = (tid, ev.loop_id) if ev.kind == LOOPHEAD else None
        seen.add(tid)
    return out, skipped


def _gated_decode(stream, sampling):
    events, _ = read_trace(stream)
    events.sampling = sampling
    got = [(ev.kind, ev.thread_id, ev.ins_index, events.skipped)
           for ev in events]
    return got, events.skipped


GAP_SAMPLINGS = (SamplingConfig(1, 0), SamplingConfig(2, 3),
                 SamplingConfig(7, 50), SamplingConfig(1000, 99000))


@pytest.mark.parametrize("threads", [1, 3])
def test_gated_decode_across_refills_matches_the_spec(threads):
    # A trace longer than a refill chunk, read whole chunks at a time and
    # in short reads, so that runs of dropped loads and repeated loop heads
    # cross refill points: the gated decode yields what the spec model
    # makes of the ungated one, with the same skip counts.
    events, raw = _gap_trace(threads, threads, 45_000)
    assert len(raw) > _Reader.CHUNK
    assert list(read_trace(io.BytesIO(raw))[0]) == events
    for sampling in GAP_SAMPLINGS:
        expected = _gated_model(events, sampling)
        if sampling.window_enable == 1000:
            assert expected[1] > len(events) // 2
        for stream in (io.BytesIO(raw), ShortReads(raw, 61),
                       ShortReads(raw, 1000)):
            assert _gated_decode(stream, sampling) == expected, sampling


def _decode_error(stream, sampling=None):
    events, _ = read_trace(stream)
    events.sampling = sampling
    with pytest.raises(TraceDecodeError) as err:
        for _ in events:
            pass
    return str(err.value), err.value.offset


def _blocks(raw, sampling, monkeypatch):
    """(start, end, cut) of each run of iterations that a gated decode of
    `raw` from one buffer passes a block at a time, where `cut` tells
    whether a record of the iteration after it reaches the end of its gap.
    Every record of `raw` after its thread starts is a load or a loop
    head."""
    blocks = []
    check = trace._repeats

    def spy(buf, start, pos, end, last, hi):
        out = check(buf, start, pos, end, last, hi)
        if out[1]:
            q = after = out[0]
            cut = False
            while q < min(after + pos - start, end):
                kind, _, ins = _HEADER.unpack_from(buf, q)
                cut = cut or ins >= hi
                q += 21 if kind == LOOPHEAD else 27 + buf[q + 21]
            blocks.append((pos, after, cut))
        return out

    assert len(raw) < _Reader.CHUNK
    with monkeypatch.context() as patch:
        patch.setattr(trace, "_repeats", spy)
        _gated_decode(io.BytesIO(raw), sampling)
    return blocks


def _pair_faults(good, head, ins):
    """(offset, message, bytes) of each fault placed in the pair of a
    loop head (21 bytes) at `head`, whose ins_index is `ins`, and a load of
    4 value bytes (31 bytes) after it, in the trace `good`."""
    load = head + 21

    def patched(at, value, width=1):
        raw = bytearray(good)
        raw[at:at + width] = value.to_bytes(width, "little")
        return bytes(raw)

    cases = [
        (load, "bad load size 3", patched(load + 21, 3)),
        (load, "bad fp_class 3", patched(load + 22, 3)),
        (load, "f64 load size 4 not a multiple of 8",
         patched(load + 22, F64)),
        (load, "unresolved site_id 9", patched(load + 23, 9, 4)),
        (head, "unresolved site_id 8", patched(head + 17, 8, 4)),
        (head, "unresolved loop_id 12", patched(head + 13, 12, 4)),
        (load, f"ins_index {ins} after {ins} in thread 0: not strictly "
         "increasing", patched(load + 5, ins, 8)),
        (head, f"ins_index {ins - 1} after {ins - 1} in thread 0: not "
         "strictly increasing", patched(head + 5, ins - 1, 8)),
        (load, "unknown event kind 9", patched(load, 9)),
        (head, "unknown event kind 0", patched(head, 0)),
    ]
    # Cut short anywhere inside the pair; a cut between records is a clean
    # end.
    return cases + [(head if cut < load else load, "truncated record",
                     good[:cut])
                    for cut in range(head + 1, load + 31) if cut != load]


def test_gated_decode_raises_inside_a_long_gap_where_ungated_does(
        monkeypatch):
    # A bad record in the middle of a run of dropped loads and repeated loop
    # heads stops a gated decode with the ungated decode's message and
    # byte offset, whether chunks arrive whole or in short reads. Each
    # fault lands in the first iteration after the one a block check
    # takes as its template, in the middle and in the last iteration of a
    # block, in a pair that straddles a read of 4,096 bytes, and 150 pairs
    # before the end.
    b = Build()
    b.sm.add_site(1, "main", "a.c", 1)
    b.sm.add_loop(11, "a.c", 2)
    b.thread_start()
    b.ins = 10          # the gap of a 2-in-10002 window
    pairs = 700
    for k in range(pairs):
        b.loop(11, 1)
        b.load(0x1000 + 8 * (k % 4), u32(k), 1)
    buf = io.BytesIO()
    write_trace(b.events, b.sm, buf)
    good = buf.getvalue()
    gap = SamplingConfig(2, 10_000)
    pair = 21 + 31
    first = len(good) - pairs * pair        # the first loop head

    def ins_at(head):   # the ins_index of the loop head at `head`
        return b.events[-pairs * 2 + (head - first) // pair * 2].ins_index

    (start, end, _), *later = _blocks(good, gap, monkeypatch)
    assert end - start >= 3 * pair and later    # a whole block, and more
    middle = start + (end - start) // pair // 2 * pair
    # The first read of 4,096 bytes that ends inside a record of a pair.
    read = next(r for r in range(4096, len(good), 4096)
                if r > first and (r - first) % pair not in (0, 21))
    straddle = read - (read - first) % pair
    for head in (start, middle, end - pair, straddle,
                 len(good) - 150 * pair):
        for offset, message, raw in _pair_faults(good, head, ins_at(head)):
            ungated = _decode_error(io.BytesIO(raw))
            assert ungated == (f"offset {offset}: {message}", offset)
            for stream in (io.BytesIO(raw), ShortReads(raw, 61),
                           ShortReads(raw, 4096)):
                assert _decode_error(stream, gap) == ungated, \
                    (head, message)


def test_gated_decode_of_threads_that_take_turns_inside_a_gap():
    # Threads 1 and 2 take turns record by record, under a 10-in-100
    # window. Thread 1's loop head at 70 repeats the one yielded last and
    # is dropped while thread 2 sits in the gap [110, 200); its load at
    # 105 is monitored in its own window and is built. Then a repeated
    # ins_index of thread 1, after a turn of thread 2, fails as it fails
    # ungated.
    sm = SourceMap()
    sm.add_site(1, "main", "a.c", 1)
    sm.add_loop(11, "a.c", 2)

    def load(tid, ins):
        return load_event(tid, ins, 0x1000, u32(ins), site_id=1)

    def head(tid, ins):
        return TraceEvent(LOOPHEAD, tid, ins, loop_id=11, site_id=1)

    events = [TraceEvent(THREAD_START, 1, 0), TraceEvent(THREAD_START, 2, 0),
              load(2, 150), head(1, 50), load(1, 60), load(2, 151),
              head(1, 70), load(1, 105), load(2, 152), load(1, 120),
              load(2, 153), load(1, 121), load(2, 154), head(1, 122)]
    sampling = SamplingConfig(10, 90)
    buf = io.BytesIO()
    write_trace(events, sm, buf)
    raw = buf.getvalue()
    expected = _gated_model(events, sampling)
    assert (LOAD, 1, 105, 4) in expected[0]
    assert _gated_decode(io.BytesIO(raw), sampling) == expected
    # The last loop head (21 bytes) replaced by the load of thread 1 two
    # records back (31 bytes): the same ins_index twice in thread 1, with
    # a load of thread 2 between.
    bad = raw[:-21] + raw[-83:-52]
    ungated = _decode_error(io.BytesIO(bad))
    assert ungated[0].endswith("ins_index 121 after 121 in thread 1: not "
                               "strictly increasing")
    assert _decode_error(io.BytesIO(bad), sampling) == ungated


def _loop_trace(seed, case):
    """The events and bytes of a valid trace in which threads 0 and 1
    start and then run loop 11 for thousands of iterations, a loop head
    and a load of site 2 each:

    - "gains": thread 0, whose every 10th iteration gains a load of site 3;
    - "steps": thread 0, whose ins_index steps by 1 to 8 at random;
    - "turns": both threads, in runs of iterations of one thread, of the
      two by turns, or of thread 0 with a load of thread 1 before or after
      its own, in ins_index order across the two threads; after such a
      run each thread goes on from its own last ins_index;
    - "plain": thread 0, every ins_index one past the last."""
    rng = random.Random(seed)
    sm = SourceMap()
    for site in (1, 2, 3):
        sm.add_site(site, "f", "g.c", site)
    sm.add_loop(11, "g.c", 11)
    ins = [0, 0]
    events = [TraceEvent(THREAD_START, 0, 0), TraceEvent(THREAD_START, 1, 0)]

    def emit(tid, kind, step=1, **fields):
        ins[tid] = ins[tid] + step if step else max(ins) + 1
        events.append(TraceEvent(kind, tid, ins[tid], **fields))

    def iteration(tid, step=1, site=2, size=4):
        emit(tid, LOOPHEAD, step, loop_id=11, site_id=1)
        emit(tid, LOAD, step, addr=0x1000 + 8 * rng.randrange(64),
             size=size, value=rng.randbytes(size), site_id=site)

    while len(events) < 12_000:
        if case == "turns":
            mode, runs = rng.randrange(3), rng.randrange(1, 300)
            tid = rng.randrange(2)
            for k in range(runs):
                if mode == 0:
                    iteration(tid)
                elif mode == 1:
                    iteration(k % 2)
                else:   # a load of thread 1 before or after thread 0's
                    emit(0, LOOPHEAD, 0, loop_id=11, site_id=1)
                    loads = [(0, 4), (1, 8)]
                    rng.shuffle(loads)
                    for t, size in loads:
                        emit(t, LOAD, 0, addr=0x2000, size=size,
                             value=rng.randbytes(size), site_id=2)
        else:
            for _ in range(10):
                iteration(0, rng.randrange(1, 9) if case == "steps" else 1)
            if case == "gains":
                emit(0, LOAD, addr=0x3000, size=8, value=rng.randbytes(8),
                     site_id=3)
    buf = io.BytesIO()
    write_trace(events, sm, buf)
    return events, buf.getvalue()


@pytest.mark.parametrize("case", ["gains", "steps", "turns", "plain"])
def test_block_checked_gaps_match_the_spec(case, monkeypatch):
    # Long runs of repeated iterations, most of them passed a block at a
    # time, decode to what the spec model makes of the ungated decode,
    # skip counts included, under one long gap and under windows that
    # reopen every 3,020 ins_index, inside a run of repeats.
    events, raw = _loop_trace(26, case)
    assert list(read_trace(io.BytesIO(raw))[0]) == events
    for sampling in (SamplingConfig(3, 1_000_000), SamplingConfig(20, 3000)):
        expected = _gated_model(events, sampling)
        for stream in (io.BytesIO(raw), ShortReads(raw, 61),
                       ShortReads(raw, 4096)):
            assert _gated_decode(stream, sampling) == expected, sampling
        blocks = _blocks(raw, sampling, monkeypatch)
        passed = sum(end - start for start, end, _ in blocks)
        assert passed > len(raw) // (10 if case == "turns" else 2)
        if sampling.window_disable == 3000:
            # Some run of repeats goes on past where the window reopens.
            assert any(cut for _, _, cut in blocks)


def test_a_block_check_takes_no_template_from_two_threads():
    # Each iteration of thread 0 holds a load of thread 1 between its loop
    # head and its load, all in one ins_index order: a block check of
    # thread 0 that took them as one template would pass the loads of
    # thread 1 without keeping their ins_index. Then thread 1 repeats its
    # last one, which fails gated as it fails ungated.
    sm = SourceMap()
    sm.add_site(1, "main", "a.c", 1)
    sm.add_loop(11, "a.c", 2)
    events = [TraceEvent(THREAD_START, 0, 0), TraceEvent(THREAD_START, 1, 0)]
    for k in range(400):
        events += [TraceEvent(LOOPHEAD, 0, 10 + 3 * k, loop_id=11, site_id=1),
                   load_event(1, 11 + 3 * k, 0x2000, u32(k), site_id=1),
                   load_event(0, 12 + 3 * k, 0x1000, u32(k), site_id=1)]
    events.append(load_event(1, events[-2].ins_index, 0x2000, u32(0),
                             site_id=1))
    buf = io.BytesIO()
    write_trace(events[:-1], sm, buf)
    raw = buf.getvalue() + RECORDS[LOAD].struct.pack(
        LOAD, 1, events[-1].ins_index, 0x2000, 4, NONFP, 1) + u32(0)
    ungated = _decode_error(io.BytesIO(raw))
    assert ungated == (f"offset {len(raw) - 31}: ins_index "
                       f"{events[-1].ins_index} after "
                       f"{events[-1].ins_index} in thread 1: not strictly "
                       "increasing", len(raw) - 31)
    for stream in (io.BytesIO(raw), ShortReads(raw, 61),
                   ShortReads(raw, 4096)):
        assert _decode_error(stream, SamplingConfig(1, 10**9)) == ungated


def test_a_gap_whose_iterations_never_repeat_decodes_in_linear_time(
        monkeypatch):
    # A gap of 120k records in which the load of each iteration has
    # another site than the one before: every block check passes nothing.
    # Gated, the decode drops every record after the first few, and takes
    # no longer than ungated, where it builds every event; a block check
    # tried again from each loop head over the same records would not.
    b = Build()
    for site in (1, 2, 3):
        b.sm.add_site(site, "f", "g.c", site)
    b.sm.add_loop(11, "g.c", 11)
    b.thread_start()
    for k in range(60_000):
        b.loop(11, 1)
        b.load(0x1000, u32(k), 2 + k % 2)
    buf = io.BytesIO()
    write_trace(b.events, b.sm, buf)
    raw = buf.getvalue()
    gap = SamplingConfig(1, 10**9)
    passed = []
    check = trace._repeats

    def spy(*args):
        out = check(*args)
        passed.append(out[1])
        return out

    with monkeypatch.context() as patch:
        patch.setattr(trace, "_repeats", spy)
        assert _gated_decode(io.BytesIO(raw), gap)[1] == len(b.events) - 2
    assert passed and not any(passed)

    def seconds(sampling):
        events, _ = read_trace(io.BytesIO(raw))
        events.sampling = sampling
        begin = time.process_time()
        for _ in events:
            pass
        return time.process_time() - begin

    gated = min(seconds(gap) for _ in range(3))
    ungated = min(seconds(None) for _ in range(3))
    assert gated <= ungated, (gated, ungated)


def _outcome(analyze):
    """The profile `analyze()` returns, or its RedloadError's type and
    message."""
    try:
        return analyze()
    except RedloadError as exc:
        return type(exc), str(exc)


def test_fuzz_reader_never_raises_anything_else(tmp_path):
    # Every mutated trace that decodes also goes through the engine, with
    # every load monitored: it ends in a profile or a RedloadError. Read
    # from a file with a 2-in-5 window, where the decoder drops loads, it
    # ends as the decoded events in memory do.
    rng = random.Random(1234)
    b = Build()
    b.sm.add_site(1, "main", "a.c", 1)
    b.thread_start()
    for k in range(4):
        b.load(0x1000, u32(5 + k % 2), 1)
        b.load(0x1004, f64(1.0 + k), 1, fp=F64)
    buf = io.BytesIO()
    write_trace(b.events, b.sm, buf)
    base = bytearray(buf.getvalue())
    config = AnalysisConfig(sampling=SamplingConfig.disabled())
    sampled = AnalysisConfig(sampling=SamplingConfig(2, 3))
    path = tmp_path / "mutant.lrt"
    analyzed = 0
    for trial in range(400):
        if trial % 3 == 0:
            raw = bytes(rng.randrange(256)
                        for _ in range(rng.randrange(0, 80)))
        else:
            raw = bytearray(base)
            for _ in range(rng.randrange(1, 6)):
                # Small values half the time: sizes, fp classes and kinds.
                raw[rng.randrange(len(raw))] = rng.choice(
                    (rng.randrange(256), rng.randrange(9)))
            raw = bytes(raw)
        try:
            events, sm = read_trace(io.BytesIO(raw))
            events = list(events)
        except TraceDecodeError:
            continue
        analyzed += 1
        try:
            analyze_events(iter(events), sm, config)
        except RedloadError:
            pass
        path.write_bytes(raw)
        assert _outcome(lambda: analyze_path(str(path), sampled)) == \
            _outcome(lambda: analyze_events(iter(events), sm, sampled))
    assert analyzed > 50


def _fuzz_trace():
    """Two threads: a static object, an allocation, loop heads, FP and
    integer loads, and balanced calls."""
    b = Build()
    b.sm.add_site(1, "main", "a.c", 1)
    b.sm.add_site(2, "", "a.c", 2)
    b.sm.add_loop(3, "a.c", 3)
    b.thread_start()
    b.static_image([("A", 0x1000, 16)])
    b.call(1)
    b.alloc(0x2000, 16)
    for k in range(3):
        b.loop(3, 1)
        b.load(0x1000, u32(5), 2)
        b.load(0x2000 + 8 * (k % 2), f64(1.0 + k % 2), 2, fp=F64)
    b.free(0x2000)
    b.ret(1)
    other = Build(tid=1, source_map=b.sm)
    other.thread_start()
    other.call(2)
    other.load(0x1004, u32(5), 1)
    other.ret(2)
    return b.events + other.events, b.sm


def _analyze_both_ways(path):
    """What `analyze_path` gives with a 2-in-5 sampling window and with
    sampling off: None for a profile, else the RedloadError's type and
    message. Any other exception fails the test."""
    outcomes = []
    for sampling in (SamplingConfig(2, 3), SamplingConfig.disabled()):
        try:
            analyze_path(str(path), AnalysisConfig(sampling=sampling))
            outcomes.append(None)
        except RedloadError as exc:
            outcomes.append((type(exc), str(exc)))
    return outcomes


_FUZZ = settings(max_examples=150, derandomize=True, deadline=None,
                 suppress_health_check=[HealthCheck.function_scoped_fixture])


def _fuzz_encoded(write, sink):
    write(*_fuzz_trace(), sink)
    return sink.getvalue()


_BINARY = _fuzz_encoded(write_trace, io.BytesIO())
_TEXT = _fuzz_encoded(write_text_trace, io.StringIO()).splitlines()


# Edits keep the magic and version (6 bytes) and the text header line:
# other tests cover those, and a trace without them reads as nothing.
@_FUZZ
@given(edits=st.lists(st.tuples(st.integers(6, len(_BINARY) - 1),
                                st.integers(0, 255) | st.integers(0, 9)),
                      min_size=1, max_size=4))
def test_fuzz_binary_trace_analyzes_alike_sampled_or_not(edits, tmp_path):
    raw = bytearray(_BINARY)
    for position, byte in edits:
        raw[position] = byte
    path = tmp_path / "mutant.lrt"
    path.write_bytes(bytes(raw))
    sampled, full = _analyze_both_ways(path)
    assert sampled == full


_TOKENS = st.sampled_from(["0", "1", "2", "3", "9", "-1", "0x1000", "8",
                           "nonfp", "f64", "zz", '""', "C", "R", "H",
                           "site", "loopsite"])


@_FUZZ
@given(edits=st.lists(st.one_of(
    st.tuples(st.just("token"), st.integers(1, len(_TEXT) - 1),
              st.integers(0, 8), _TOKENS),
    st.tuples(st.just("drop"), st.integers(1, len(_TEXT) - 1)),
    st.tuples(st.just("swap"), st.integers(1, len(_TEXT) - 1),
              st.integers(1, len(_TEXT) - 1))), min_size=1, max_size=3))
def test_fuzz_text_trace_analyzes_alike_sampled_or_not(edits, tmp_path):
    lines = list(_TEXT)
    for op, index, *args in edits:
        index = 1 + index % (len(lines) - 1)
        if op == "token":
            tokens = lines[index].split()
            tokens[args[0] % len(tokens)] = args[1]
            lines[index] = " ".join(tokens)
        elif op == "drop" and len(lines) > 2:
            del lines[index]
        elif op == "swap":
            other = 1 + args[0] % (len(lines) - 1)
            lines[index], lines[other] = lines[other], lines[index]
    path = tmp_path / "mutant.txt"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    sampled, full = _analyze_both_ways(path)
    assert sampled == full


def test_binary_reader_rejects_an_unknown_id_at_its_record(tmp_path,
                                                          capsys):
    # Every record with an id is checked as it is read, so a trace fails
    # alike with sampling on or off: a load the gate drops and a repeated
    # loop-head pass it drops are checked as much as any other record.
    b = Build()
    b.sm.add_site(1, "main", "a.c", 1)
    b.sm.add_loop(2, "a.c", 2)
    b.thread_start()
    b.call(1)
    b.ins = 4999
    b.loop(2, 1)
    b.load(0x1000, u32(5), 1)   # ins_index 5000, outside a 1-in-100 window
    b.loop(2, 1)                # a repeat of the first pass when sampled
    b.load(0x1000, u32(5), 1)
    b.ret(1)

    def encoded(events):
        buf = io.BytesIO()
        write_trace(events, b.sm, buf)
        return buf.getvalue()

    good = encoded(b.events)
    path, profile = tmp_path / "t.lrt", tmp_path / "p.json"
    flag_sets = (("--window-enable", "1000", "--window-disable", "99000"),
                 ("--no-sampling",))
    # (event index, offset of the id in its record, error)
    for index, field, message in ((3, 23, "unresolved site_id 9"),
                                  (4, 17, "unresolved site_id 9"),
                                  (2, 13, "unresolved loop_id 9"),
                                  (1, 13, "unresolved site_id 9"),
                                  (6, 13, "unresolved site_id 9")):
        start = len(encoded(b.events[:index]))
        raw = bytearray(good)
        raw[start + field:start + field + 4] = (9).to_bytes(4, "little")
        path.write_bytes(bytes(raw))
        for flags in flag_sets:
            assert main(["analyze", str(path), "-o", str(profile),
                         *flags]) == 1
            assert capsys.readouterr().err == \
                f"redload analyze: offset {start}: {message}\n", index
            assert not profile.exists()
    path.write_bytes(good)
    for flags in flag_sets:
        assert main(["analyze", str(path), "-o", str(profile), *flags]) == 0


def test_text_reader_rejects_an_unknown_id_at_its_line():
    site = "site 1 main a.c 1"
    # (lines after the header, line number of the error, message)
    cases = [
        (f"{site}\nT 0 0\nL 0 1 0x10 4 00000000 nonfp 9", 4,
         "unresolved site_id 9"),
        (f"{site}\nH 0 1 9 1", 3, "unresolved loop_id 9"),
        (f"{site}\nC 0 1 9", 3, "unresolved site_id 9"),
        (f"{site}\nC 0 1 1\nR 0 2 9", 4, "unresolved site_id 9"),
        # An id resolves only after its source-map line.
        ("C 0 1 1\nsite 1 main a.c 1", 2, "unresolved site_id 1"),
        (f"{site}\nH 0 1 2 1\nloopsite 2 a.c 2", 3,
         "unresolved loop_id 2"),
        # Calls and returns balance per thread, as the writers require.
        (f"{site}\nC 0 1 1\nR 1 2 1", 4,
         "return with no open call in thread 1"),
    ]
    for body, line, message in cases:
        with pytest.raises(TraceDecodeError) as err:
            events, _ = read_text_trace(text_stream(f"LRT1 1\n{body}\n"))
            list(events)
        assert str(err.value) == f"line {line}: {message}", body


def test_empty_strings_roundtrip_in_both_forms():
    sm = SourceMap()
    sm.add_site(1, "", "a.c", 3)
    sm.add_site(2, "main", "", 4)
    sm.add_site(3, '""', "%", 5)    # the empty token's text, quoted
    sm.add_loop(4, "", 6)
    events = [TraceEvent(CALL, 0, 0, site_id=1),
              TraceEvent(LOOPHEAD, 0, 1, loop_id=4, site_id=2),
              load_event(0, 2, 0x10, u32(1), site_id=3)]
    got, got_sm, _ = roundtrip(events, sm)
    assert got == events and got_sm == sm
    out = io.StringIO()
    write_text_trace(events, sm, out)
    lines = out.getvalue().splitlines()
    assert lines[1:5] == ['site 1 "" a.c 3', 'site 2 main "" 4',
                          "site 3 %22%22 %25 5", 'loopsite 4 "" 6']
    decoded, text_sm = read_text_trace(text_stream(out.getvalue()))
    assert list(decoded) == events and text_sm == sm


def test_encode_rejects_bad_events_with_index():
    srcmap = SourceMap()
    srcmap.add_site(1, "main", "a.c", 1)
    ok = load_event(0, 0, 0x10, u32(1), site_id=1)

    bad_value = TraceEvent(LOAD, 0, 1, addr=0x10, size=4, value=b"\x01",
                           fp_class=NONFP, site_id=1)
    with pytest.raises(TraceEncodeError) as err:
        write_trace([ok, bad_value], srcmap, io.BytesIO())
    assert err.value.event_index == 1

    not_monotonic = load_event(0, 0, 0x20, u32(1), site_id=1)
    with pytest.raises(TraceEncodeError) as err:
        write_trace([ok, not_monotonic], srcmap, io.BytesIO())
    assert err.value.event_index == 1

    unbalanced = TraceEvent(RETURN, 0, 1, site_id=1)
    with pytest.raises(TraceEncodeError) as err:
        write_trace([ok, unbalanced], srcmap, io.BytesIO())
    assert err.value.event_index == 1

    f32_odd = TraceEvent(LOAD, 0, 1, addr=0x10, size=2, value=b"\x00\x00",
                         fp_class=F32, site_id=1)
    with pytest.raises(TraceEncodeError):
        write_trace([ok, f32_odd], srcmap, io.BytesIO())

    unresolved = load_event(0, 1, 0x10, u32(1), site_id=99)
    with pytest.raises(TraceEncodeError) as err:
        write_trace([ok, unresolved], srcmap, io.BytesIO())
    assert "site_id 99" in str(err.value)

    # Fields too wide for their record, in a load and in a static image.
    negative_addr = load_event(0, 1, -1, u32(1), site_id=1)
    with pytest.raises(TraceEncodeError) as err:
        write_trace([ok, negative_addr], srcmap, io.BytesIO())
    assert err.value.event_index == 1
    assert "event 1: load record: " in str(err.value)
    image = TraceEvent(STATIC_IMAGE, 0, 1, objects=[("A", 0x10, 1 << 64)])
    with pytest.raises(TraceEncodeError) as err:
        write_trace([ok, image], srcmap, io.BytesIO())
    assert err.value.event_index == 1
    assert "event 1: static_image record: " in str(err.value)

    with pytest.raises(TraceEncodeError) as err:
        write_trace([TraceEvent(99, 0, 0)], srcmap, io.BytesIO())
    assert err.value.event_index == 0
    assert str(err.value) == "event 0: unknown event kind 99"


def test_calls_balance_per_thread_not_globally():
    srcmap = SourceMap()
    srcmap.add_site(1, "main", "a.c", 1)
    events = [
        TraceEvent(CALL, 0, 0, site_id=1),
        TraceEvent(CALL, 1, 0, site_id=1),
        TraceEvent(RETURN, 1, 1, site_id=1),
        TraceEvent(RETURN, 0, 1, site_id=1),
    ]
    write_trace(events, srcmap, io.BytesIO())
    bad = [TraceEvent(CALL, 0, 0, site_id=1),
           TraceEvent(RETURN, 1, 0, site_id=1)]
    with pytest.raises(TraceEncodeError):
        write_trace(bad, srcmap, io.BytesIO())


def test_text_format_roundtrip_and_golden_line():
    b = Build()
    b.sm.add_site(1, "main", "dir/a b.c", 1)
    b.sm.add_loop(2, "dir/a b.c", 2)
    b.thread_start()
    b.static_image([("A", 0x2000, 16)])
    b.call(1)
    b.loop(2, 1)
    b.load(0x2000, u32(0x0F), 1)
    b.ret(1)
    out = io.StringIO()
    write_text_trace(b.events, b.sm, out)
    text = out.getvalue()
    assert "L 0 4 0x2000 4 0f000000 nonfp 1" in text.splitlines()
    events, sm = read_text_trace(text_stream(text))
    assert list(events) == b.events
    assert sm.sites == b.sm.sites and sm.loops == b.sm.loops


def test_blank_and_whitespace_lines_between_text_records_are_skipped(
        tmp_path):
    # Lines with no token carry no record: a trace with them between its
    # records reads and analyzes as the trace without them.
    events, sm = generate(Scenario("hash_collision",
                                   {"chain": 3, "searches": 4}))
    out = io.StringIO()
    write_text_trace(events, sm, out)
    header, *lines = out.getvalue().splitlines(keepends=True)
    plain, spaced = tmp_path / "plain.txt", tmp_path / "spaced.txt"
    plain.write_text(out.getvalue(), encoding="utf-8")
    spaced.write_text(header + "".join(
        ("\n", "  \t \n", " \n")[k % 3] + line
        for k, line in enumerate(lines)) + "\t\n", encoding="utf-8")
    with open(plain, "rb") as f, open(spaced, "rb") as g:
        want, want_sm = read_text_trace(f)
        got, got_sm = read_text_trace(g)
        assert list(got) == list(want) and got_sm == want_sm
    config = AnalysisConfig(sampling=SamplingConfig.disabled())
    assert analyze_path(str(spaced), config) == \
        analyze_path(str(plain), config)



def test_text_reader_streams_to_an_error_on_the_last_line():
    b = Build()
    b.sm.add_site(1, "main", "a.c", 1)
    b.thread_start()
    for k in range(50):
        b.load(0x1000 + 4 * k, u32(k), 1)
    out = io.StringIO()
    write_text_trace(b.events, b.sm, out)
    lines = out.getvalue().splitlines()
    lines[-1] = lines[-1].replace(" nonfp ", " f16 ")
    source = text_stream("\n".join(lines) + "\n")
    events, sm = read_text_trace(source)
    assert sm.sites == b.sm.sites
    # Only the lines up to the first event have been read so far.
    assert source.tell() < len(source.getvalue()) // 2
    decoded = []
    with pytest.raises(TraceDecodeError) as err:
        for ev in events:
            decoded.append(ev)
    assert decoded == b.events[:-1]
    assert err.value.line == len(lines)
    assert str(err.value) == f"line {len(lines)}: bad line: 'f16'"

def test_text_reader_rejects_garbage():
    with pytest.raises(TraceDecodeError) as err:
        read_text_trace(text_stream("not a trace\n"))
    assert err.value.line == 1 and err.value.offset is None
    assert str(err.value) == "line 1: bad text trace header"
    # (lines after the header, line number of the error, message)
    cases = [
        (b"Z 0 0", 2, "unknown line tag 'Z'"),
        (b"L 0 0 zz 4 00 nonfp 1", 2, "bad line: "),
        (b"T 0 0\nL 0 1 0x1000 3 aabbcc nonfp 1", 3, "bad load size 3"),
        (b"L 0 1 0x1000 8 aabb nonfp 1", 2, "value has 2 bytes, size says 8"),
        (b"L 0 1 0x1000 4 aabbccdd f64 1", 2,
         "f64 load size 4 not a multiple of 8"),
        (b"L 0 1 0x1000 2 aabb f32 1", 2,
         "f32 load size 2 not a multiple of 4"),
        (b"\xff\xfe", 2, "invalid UTF-8"),
        # A lone CR ends a line, as in the text's splitlines numbering.
        (b"T 0 0\rT 0 \xff", 3, "invalid UTF-8"),
    ]
    for body, line, message in cases:
        with pytest.raises(TraceDecodeError) as err:
            events, _ = read_text_trace(io.BytesIO(b"LRT1 1\n" + body
                                                   + b"\n"))
            list(events)
        assert err.value.line == line, body
        assert str(err.value).startswith(f"line {line}: {message}"), body


# One event of each kind with every field in range; each follows a call,
# so a return has a frame to close.
_SAMPLES = {
    LOAD: TraceEvent(LOAD, 3, 1, addr=0x10, size=8, value=bytes(range(8)),
                     fp_class=F32, site_id=1),
    CALL: TraceEvent(CALL, 3, 1, site_id=1),
    RETURN: TraceEvent(RETURN, 3, 1, site_id=1),
    LOOPHEAD: TraceEvent(LOOPHEAD, 3, 1, loop_id=2, site_id=1),
    ALLOC: TraceEvent(ALLOC, 3, 1, base=0x9000, alloc_size=64),
    FREE: TraceEvent(FREE, 3, 1, base=0x9000),
    STATIC_IMAGE: TraceEvent(STATIC_IMAGE, 3, 1,
                             objects=(("a b", 0x2000, 16),)),
    THREAD_START: TraceEvent(THREAD_START, 3, 1),
}

# Per field: a value the binary record cannot hold, and a text token of it.
_OUT_OF_RANGE = {
    "thread_id": (1 << 32, "4294967296"),
    "ins_index": (1 << 64, "18446744073709551616"),
    "addr": (1 << 64, "0x10000000000000000"),
    "size": (256, "256"),
    "value": (bytes(3), "000000"),
    "fp_class": (256, "f16"),
    "site_id": (1 << 32, "4294967296"),
    "loop_id": (-1, "-1"),
    "base": (-0x40, "-0x40"),
    "alloc_size": (1 << 64, "18446744073709551616"),
    "objects": ((("a", 0x10, 1 << 64),), "a:0x10:18446744073709551616"),
}


def _replaced(event, attr, value):
    """A new event through the constructor: `event`'s fields, with `attr`
    set to `value`."""
    fields = {name: getattr(event, name) for name in TraceEvent.__slots__}
    return TraceEvent(**{**fields, attr: value})


def _two_writes(events, source_map):
    """The TraceEncodeError of each writer: both must raise one."""
    errors = []
    for write, sink in ((write_trace, io.BytesIO()),
                        (write_text_trace, io.StringIO())):
        with pytest.raises(TraceEncodeError) as err:
            write(events, source_map, sink)
        errors.append(err.value)
    return errors


@pytest.mark.parametrize("kind", sorted(RECORDS),
                         ids=lambda kind: RECORDS[kind].name)
def test_every_record_kind_roundtrips_and_rejects_each_field_out_of_range(
        kind):
    sm = SourceMap()
    sm.add_site(1, "main", "a.c", 1)
    sm.add_loop(2, "a.c", 2)
    opener = TraceEvent(CALL, 3, 0, site_id=1)
    good = _SAMPLES[kind]
    assert roundtrip([opener, good], sm)[0] == [opener, good]
    out = io.StringIO()
    write_text_trace([opener, good], sm, out)
    decoded, got_sm = read_text_trace(text_stream(out.getvalue()))
    assert list(decoded) == [opener, good] and got_sm == sm
    *head, line = out.getvalue().splitlines()

    for position, (attr, _) in enumerate(RECORDS[kind].fields):
        value, token = _OUT_OF_RANGE[attr]
        bad = _replaced(good, attr, value)
        binary, text = _two_writes([opener, bad], sm)
        assert binary.event_index == text.event_index == 1, attr
        assert str(binary) == str(text)
        tokens = line.split()
        tokens[1 + position] = token
        decoded, _ = read_text_trace(text_stream(
            "\n".join([*head, " ".join(tokens)]) + "\n"))
        with pytest.raises(TraceDecodeError) as err:
            list(decoded)
        assert err.value.line == len(head) + 1, attr


def test_text_form_holds_only_what_the_binary_form_holds(tmp_path, capsys):
    sm = SourceMap()
    sm.add_site(1, "main", "a.c", 1)
    for ev in (TraceEvent(THREAD_START, 1 << 32, 0),
               TraceEvent(ALLOC, 0, 0, base=-0x40, alloc_size=-8)):
        binary, text = _two_writes([ev], sm)
        assert binary.event_index == text.event_index == 0
        assert str(text).startswith(f"event 0: {RECORDS[ev.kind].name} "
                                    "record: ")

    trace, profile = tmp_path / "t.txt", tmp_path / "p.json"
    for line in ("S 4294967296 1 A:0x10:-12", "A 0 1 -0x40 -8",
                 "L 0 1 -0x10 4 00000000 nonfp 1"):
        trace.write_text(f"LRT1 1\nsite 1 main a.c 1\nT 0 0\n{line}\n")
        assert main(["analyze", str(trace), "-o", str(profile)]) == 1
        assert "line 4: " in capsys.readouterr().err
        assert not profile.exists()

    with pytest.raises(TraceDecodeError) as err:
        read_text_trace(text_stream("LRT1 1\nsite 4294967296 main a.c -1\n"))
    assert err.value.line == 2
    assert str(err.value).startswith("line 2: site record: ")

    # A source-map entry out of range names itself in either writer.
    for site_id, line in ((1 << 32, 1), (1, -1)):
        big = SourceMap()
        big.add_site(site_id, "main", "a.c", line)
        for error in _two_writes([], big):
            assert str(error).startswith(f"site {site_id}: ")
    long_name = SourceMap()
    long_name.add_loop(1, "x" * 0x10000, 3)
    for error in _two_writes([], long_name):
        assert str(error) == "loopsite 1: string too long (65536 bytes)"


def test_text_line_with_a_field_missing_or_extra_is_a_bad_line():
    for line, message in (("C 0 1", "call takes 3 fields, not 2"),
                          ("C 0 1 1 7", "call takes 3 fields, not 4"),
                          ("T 0 1 x", "thread_start takes 2 fields, not 3"),
                          ("L 0 1 0x10 4 00000000 nonfp",
                           "load takes 7 fields, not 6"),
                          ("site 2 f a.c", "site takes 4 fields, not 3"),
                          ("loopsite 2 a.c 3 4",
                           "loopsite takes 3 fields, not 4")):
        with pytest.raises(TraceDecodeError) as err:
            events, _ = read_text_trace(text_stream(
                f"LRT1 1\nsite 1 main a.c 1\n{line}\n"))
            list(events)
        assert str(err.value) == f"line 3: bad line: {message}", line


def test_doc_record_table_matches_the_code():
    doc = (Path(__file__).resolve().parents[1] / "docs"
           / "trace-format.md").read_text(encoding="utf-8")
    rows = re.findall(r"^\| (\w+) \| (\d+) \| `(\w)` \| (.+) \|$", doc,
                      re.MULTILINE)
    assert sorted(int(number) for _, number, _, _ in rows) == sorted(RECORDS)
    codes = {"u8": "B", "u32": "I", "u64": "Q"}
    for name, number, tag, payload in rows:
        row = RECORDS[int(number)]
        assert (row.name, row.tag) == (name, tag)
        # The record's fixed fields come before a value or object list.
        fixed = re.findall(r"\w+ (u8|u32|u64)\b", payload.split("then")[0])
        assert row.struct.format == "<BIQ" + "".join(map(codes.get, fixed))
    # The text form's line layouts: every tag, with its field count.
    block = doc[doc.index("LRT1 1\nsite"):].split("```")[0]
    layouts = [line.split() for line in block.splitlines()[1:]]
    assert sorted(tag for tag, *_ in layouts) == sorted(_BY_TAG)
    for tag, *fields in layouts:
        assert len([f for f in fields if f != "..."]) == \
            len(_BY_TAG[tag].fields), tag
