"""Event model and the binary / text encodings of memory-access traces.

A trace is a header, a source map, and a flat stream of per-thread events.
The binary form is canonical; the text form (one record per line, strings
percent-encoded) exists for golden-file tests and debugging. RECORDS
describes each record once for both forms, so both hold the same values;
docs/trace-format.md lays them out.
"""

import re
import struct
from bisect import bisect_left
from functools import lru_cache, partial
from itertools import chain, takewhile
from operator import attrgetter, lt
from urllib.parse import quote, unquote

from .errors import TraceDecodeError, TraceEncodeError
from .sampling import monitoring_window

MAGIC = b"LRT1"
VERSION = 1
TEXT_HEADER = "LRT1 1"

# Event kinds: the u8 tags 1 to 8 of the binary encoding.
LOAD, CALL, RETURN, LOOPHEAD, ALLOC, FREE, STATIC_IMAGE, THREAD_START = \
    range(1, 9)

# Floating-point classes of a load.
NONFP, F32, F64 = range(3)

FP_NAMES = {NONFP: "nonfp", F32: "f32", F64: "f64"}
FP_BY_NAME = {v: k for k, v in FP_NAMES.items()}

LOAD_SIZES = frozenset((1, 2, 4, 8, 16, 32))
# Element width of each fp_class: a load's size is a multiple of it.
_FP_WIDTHS = {NONFP: 1, F32: 4, F64: 8}
# Every valid (size, fp_class) of a load: one membership test per encoded
# load, while `_load_error` words the error when the test fails.
_LOAD_SHAPES = frozenset((size, fp) for size in LOAD_SIZES
                         for fp, width in _FP_WIDTHS.items()
                         if size % width == 0)


class Record:
    """Value equality and a repr over `__slots__`, a subclass's fields in
    constructor order. Like an eq dataclass's, instances are unhashable."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls._values = property(attrgetter(*cls.__slots__))

    def __eq__(self, other):
        return (self._values == other._values
                if other.__class__ is self.__class__ else NotImplemented)

    def __repr__(self):
        return "{}({})".format(type(self).__name__, ", ".join(
            map("{}={!r}".format, self.__slots__, self._values)))


class TraceEvent(Record):
    """One runtime occurrence; only the fields for its kind are set."""

    __slots__ = ("kind", "thread_id", "ins_index", "addr", "size", "value",
                 "fp_class", "site_id", "loop_id", "base", "alloc_size",
                 "objects")     # StaticImage: tuple of (name, base, size)

    def __init__(self, kind, thread_id, ins_index, addr=0, size=0, value=b"",
                 fp_class=NONFP, site_id=0, loop_id=0, base=0, alloc_size=0,
                 objects=()):
        self.kind = kind
        self.thread_id = thread_id
        self.ins_index = ins_index
        self.addr = addr
        self.size = size
        self.value = value
        self.fp_class = fp_class
        self.site_id = site_id
        self.loop_id = loop_id
        self.base = base
        self.alloc_size = alloc_size
        self.objects = objects


class SourceMap(Record):
    """Resolves static identifiers to source locations.

    sites: site_id -> (function, file, line); loops: loop_id -> (file, line).
    """

    __slots__ = ("sites", "loops")

    def __init__(self, sites=None, loops=None):
        self.sites = {} if sites is None else sites
        self.loops = {} if loops is None else loops

    def add_site(self, site_id, function, file, line):
        self.sites[site_id] = (function, file, line)

    def add_loop(self, loop_id, file, line):
        self.loops[loop_id] = (file, line)


_HEADER = struct.Struct("<BIQ")   # every record: kind, thread_id, ins_index
_U32 = struct.Struct("<I")
_2U64 = struct.Struct("<QQ")
_U16 = struct.Struct("<H")


# Text codecs, (format, parse): a field's value to one token and back.
_DEC = (str, int)
_HEX = ("0x{:x}".format, partial(int, base=16))
# Percent-encoded, and '' as `""`, a token quote never writes (`"` is %22).
_STR = (lambda s: quote(s, safe="") or '""',
        lambda token: "" if token == '""' else unquote(token))


def _format_objects(objects):
    return " ".join(f"{quote(name, safe='')}:0x{base:x}:{size}"
                    for name, base, size in objects)


def _parse_objects(tokens):
    return tuple((unquote(name), int(base, 16), int(size))
                 for name, base, size in (t.rsplit(":", 2) for t in tokens))


class _Row:
    """One record kind, described once for both forms.

    `fields` are its (attribute, codec) pairs in text order. An event's
    binary record is `struct` (the kind, then the `packed` fields, with a
    static image's object count for its objects), then a load's value or
    an image's objects. A source-map entry (`kind` None, in the SourceMap's
    `table`) is a u32 id, its strings and a u32 line."""

    def __init__(self, kind, name, tag, layout, *fields, table=None):
        self.kind, self.name, self.tag, self.table = kind, name, tag, table
        if layout is not None:      # an event: the header comes first
            self.struct = struct.Struct(_HEADER.format + layout)
            fields = (("thread_id", _DEC), ("ins_index", _DEC), *fields)
            packed = [attr for attr, _ in fields if attr != "value"]
            self.packed = attrgetter(*packed)
            # TraceEvent's defaults after ins_index, up to its first payload
            # field: a kind whose payload fields are adjacent in TraceEvent
            # (call, return, alloc, free, thread_start) decodes positionally.
            defaults = zip(TraceEvent.__slots__[3:],
                           TraceEvent.__init__.__defaults__)
            self.pad = tuple(value for _, value in takewhile(
                lambda item: item[0] not in packed, defaults))
        self.fields = fields
        self.names = [attr for attr, _ in fields]

    def text(self, values):
        """The text line, without its newline, of `values` in text order."""
        return " ".join([self.tag, *[fmt(value) for (_, (fmt, _)), value
                                     in zip(self.fields, values)]]).rstrip()

    def parse(self, tokens):
        """The values of the tokens after a text line's tag."""
        if self.kind == STATIC_IMAGE:   # its objects take every token left
            tokens[2:] = [tokens[2:]]
        if len(tokens) != len(self.fields):
            raise ValueError(f"{self.name} takes {len(self.fields)} fields, "
                             f"not {len(tokens)}")
        return [parse(t) for (_, (_, parse)), t in zip(self.fields, tokens)]


# The record table, by event kind; then the source map's two rows.
RECORDS = {row.kind: row for row in (
    _Row(LOAD, "load", "L", "QBBI", ("addr", _HEX), ("size", _DEC),
         ("value", (bytes.hex, bytes.fromhex)),
         ("fp_class", (FP_NAMES.__getitem__, FP_BY_NAME.__getitem__)),
         ("site_id", _DEC)),
    _Row(CALL, "call", "C", "I", ("site_id", _DEC)),
    _Row(RETURN, "return", "R", "I", ("site_id", _DEC)),
    _Row(LOOPHEAD, "loophead", "H", "II", ("loop_id", _DEC),
         ("site_id", _DEC)),
    _Row(ALLOC, "alloc", "A", "QQ", ("base", _HEX), ("alloc_size", _DEC)),
    _Row(FREE, "free", "F", "Q", ("base", _HEX)),
    _Row(STATIC_IMAGE, "static_image", "S", "I",
         ("objects", (_format_objects, _parse_objects))),
    _Row(THREAD_START, "thread_start", "T", ""),
)}
_MAP_ROWS = (
    _Row(None, "site", "site", None, ("id", _DEC), ("function", _STR),
         ("file", _STR), ("line", _DEC), table="sites"),
    _Row(None, "loopsite", "loopsite", None, ("id", _DEC), ("file", _STR),
         ("line", _DEC), table="loops"),
)
_BY_TAG = {row.tag: row for row in (*RECORDS.values(), *_MAP_ROWS)}
# The kinds whose records name a site_id.
_SITED = frozenset(kind for kind, row in RECORDS.items()
                   if "site_id" in row.names)

_REC_LOAD = RECORDS[LOAD].struct    # the hot records, coded unrolled
_REC_LOOP = RECORDS[LOOPHEAD].struct
_REC_IMAGE = RECORDS[STATIC_IMAGE].struct
# The longest record other than static_image: a load of 32 value bytes.
_MAX_FIXED = _REC_LOAD.size + max(LOAD_SIZES)
# The gap loop of BinaryEvents reads a load as (thread_id, ins_index,
# size | fp_class << 8, site_id) and a loop head as (thread_id, ins_index,
# loop_id, site_id); a valid shape of two u8s, so packed, gives its length.
_SKIP_LOAD = struct.Struct("<xIQ8xHI")
_SKIP_LOOP = struct.Struct("<xIQII")
_LOAD_LENGTHS = {size | fp << 8: _REC_LOAD.size + size
                 for size, fp in _LOAD_SHAPES}
# The most bytes of repeated loop iterations checked at once; a template
# iteration longer than a quarter of it is not checked.
_BLOCK = 1 << 13


@lru_cache(maxsize=64)
def _iteration(key):
    """For the loop iterations whose records carry the rule-bearing bytes
    `key`, one bytes per record (its kind and thread_id, then a loop head's
    loop_id and site_id or a load's size, fp_class and site_id): the match
    of a run of them, with every other byte free, and the struct format
    that reads the ins_index fields of one."""
    parts, layout = [], ""
    for rules in key:
        size = rules[5] if rules[0] == LOAD else 0
        free = 16 if size else 8    # ins_index, and a load's addr
        parts += (re.escape(rules[:5]), b".{%d}" % free,
                  re.escape(rules[5:]), b".{%d}" % size)
        layout += f"5xQ{free + len(rules) + size - 13}x"
    return re.compile(b"(?:%s)*" % b"".join(parts), re.DOTALL).match, layout


def _repeats(buf, start, pos, end, last, hi):
    """The run from `pos` of whole iterations that repeat the iteration
    buf[start:pos] in their rule-bearing bytes, within _BLOCK bytes and
    `end`, cut before the first iteration with a record whose ins_index is
    not above the one before it (`last` for the first) or not below `hi`:
    (its end, its records, its last ins_index)."""
    if 4 * (pos - start) > _BLOCK:
        return pos, 0, last
    key, q = [], start
    while q < pos:
        if buf[q] == LOOPHEAD:
            key.append(buf[q:q + 5] + buf[q + 13:q + 21])
            q += _REC_LOOP.size
        else:
            key.append(buf[q:q + 5] + buf[q + 21:q + 27])
            q += _REC_LOAD.size + buf[q + 21]
    match, layout = _iteration(tuple(key))
    length, per = pos - start, len(key)
    n = (match(buf, pos, min(end, pos + _BLOCK)).end() - pos) // length
    ins = struct.unpack_from("<" + layout * n, buf, pos)
    rising = [*map(lt, chain((last,), ins), ins), False]
    n = bisect_left(ins, hi, 0, rising.index(False)) // per
    return pos + n * length, n * per, ins[n * per - 1] if n else last


def _load_error(size, fp_class, value_len):
    """Why a load of `size` bytes, `fp_class` and `value_len` value bytes
    breaks the format, or None when it does not."""
    if size not in LOAD_SIZES:
        return f"bad load size {size}"
    width = _FP_WIDTHS.get(fp_class)
    if width is None:
        return f"bad fp_class {fp_class}"
    if size % width:
        return (f"{FP_NAMES[fp_class]} load size {size} not a multiple "
                f"of {width}")
    if value_len != size:
        return f"value has {value_len} bytes, size says {size}"
    return None


def _not_increasing(tid, ins_index, previous):
    return (f"ins_index {ins_index} after {previous} in thread {tid}: "
            "not strictly increasing")


def _check_event(ev, state, source_map):
    """Why `ev` breaks the format, or None when it does not: the rule of
    both writers and of the text reader, whose ids must resolve in
    `source_map`.

    `state` carries per-thread (last ins_index, open call depth) so a single
    streaming pass can enforce ordering and balance.
    """
    tid = ev.thread_id
    last_ins, depth = state.get(tid, (-1, 0))
    if ev.ins_index <= last_ins:
        return _not_increasing(tid, ev.ins_index, last_ins)
    kind = ev.kind
    if kind == LOAD:
        size = ev.size
        if (size, ev.fp_class) not in _LOAD_SHAPES or len(ev.value) != size:
            return _load_error(size, ev.fp_class, len(ev.value))
    elif kind == LOOPHEAD:
        if ev.loop_id not in source_map.loops:
            return f"unresolved loop_id {ev.loop_id}"
    elif kind == CALL:
        depth += 1
    elif kind == RETURN:
        if depth == 0:
            return f"return with no open call in thread {tid}"
        depth -= 1
    elif kind not in RECORDS:
        return f"unknown event kind {kind}"
    if kind in _SITED and ev.site_id not in source_map.sites:
        return f"unresolved site_id {ev.site_id}"
    state[tid] = (ev.ins_index, depth)
    return None


def _encode_str(s):
    raw = s.encode("utf-8")
    if len(raw) > 0xFFFF:
        raise struct.error(f"string too long ({len(raw)} bytes)")
    return _U16.pack(len(raw)) + raw


def _pack(ev):
    """The binary record of `ev`; struct.error when a field does not fit."""
    kind, row = ev.kind, RECORDS[ev.kind]
    if kind == STATIC_IMAGE:
        head = row.struct.pack(kind, ev.thread_id, ev.ins_index,
                               len(ev.objects))
        return head + b"".join(_encode_str(name) + _2U64.pack(base, size)
                               for name, base, size in ev.objects)
    out = row.struct.pack(kind, *row.packed(ev))
    return out + ev.value if kind == LOAD else out


def _pack_entry(values):
    """A source-map entry's binary form; struct.error as `_pack`."""
    ident, *strings, line = values
    return (_U32.pack(ident) + b"".join(map(_encode_str, strings))
            + _U32.pack(line))


def _binary_header(source_map):
    """Magic, version and source map; TraceEncodeError names a bad entry."""
    out = bytearray(MAGIC + _U16.pack(VERSION))
    for row in _MAP_ROWS:
        table = getattr(source_map, row.table)
        out += _U32.pack(len(table))
        for ident in sorted(table):
            try:
                out += _pack_entry((ident, *table[ident]))
            except struct.error as exc:
                raise TraceEncodeError(f"{row.name} {ident}: {exc}") from None
    return out


def write_trace(events, source_map, sink):
    """Encode events to `sink` (binary stream); returns bytes written.

    Records collect in one buffer that goes to `sink.write` whenever it
    holds `_Reader.CHUNK` bytes, and once at the end. Raises
    TraceEncodeError naming the offending event index when an invariant is
    violated or a field does not fit its record; the sink then holds at
    most the header and a prefix of whole records (`redload gen` discards
    it).
    """
    out = _binary_header(source_map)
    written = 0
    flush_at = _Reader.CHUNK
    state = {}
    for index, ev in enumerate(events):
        if (error := _check_event(ev, state, source_map)) is not None:
            raise TraceEncodeError(error, index)
        kind = ev.kind
        try:
            if kind == LOAD:
                out += _REC_LOAD.pack(kind, ev.thread_id, ev.ins_index,
                                      ev.addr, ev.size, ev.fp_class,
                                      ev.site_id)
                out += ev.value
            elif kind == LOOPHEAD:
                out += _REC_LOOP.pack(kind, ev.thread_id, ev.ins_index,
                                      ev.loop_id, ev.site_id)
            else:
                out += _pack(ev)
        except struct.error as exc:
            raise TraceEncodeError(f"{RECORDS[kind].name} record: {exc}",
                                   index) from None
        if len(out) >= flush_at:
            sink.write(out)
            written += len(out)
            out = bytearray()
    sink.write(out)
    return written + len(out)


class _Reader:
    """A buffer refilled from a binary stream in chunks.

    `buf[pos:]` holds the bytes not yet decoded and `base` is the absolute
    offset of `buf[0]`, so `base + pos` is the offset of the next byte.
    """

    CHUNK = 1 << 20

    def __init__(self, stream):
        self.stream = stream
        self.buf = b""
        self.pos = 0
        self.base = 0

    def fill(self, n):
        """Make at least n bytes available at `pos`; False when the stream
        ends first. Only the unread tail is kept across a refill."""
        while len(self.buf) - self.pos < n:
            chunk = self.stream.read(self.CHUNK)
            if not chunk:
                return False
            self.base += self.pos
            self.buf = self.buf[self.pos:] + chunk
            self.pos = 0
        return True

    def take(self, n, record_start):
        if not self.fill(n):
            raise TraceDecodeError("truncated record", record_start)
        out = self.buf[self.pos:self.pos + n]
        self.pos += n
        return out

    def unpack(self, st, record_start):
        return st.unpack(self.take(st.size, record_start))

    def read_str(self, record_start):
        (n,) = self.unpack(_U16, record_start)
        try:
            return self.take(n, record_start).decode("utf-8")
        except UnicodeDecodeError:
            raise TraceDecodeError("invalid UTF-8 in string",
                                   record_start) from None


def read_trace(source):
    """Decode a binary trace; returns (BinaryEvents, SourceMap).

    The header and source map are read eagerly; events stream lazily with
    memory bounded independent of trace length. Raises TraceDecodeError with
    a byte offset on bad magic, truncation, or a record that breaks a rule
    of docs/trace-format.md, ids resolving in the source map included.
    """
    r = _Reader(source)
    magic = r.take(4, 0) if r.fill(1) else b""
    if magic != MAGIC:
        raise TraceDecodeError(f"bad magic {magic!r}", 0)
    (version,) = r.unpack(_U16, 0)
    if version != VERSION:
        raise TraceDecodeError(f"unsupported version {version}", 4)

    source_map = SourceMap()
    map_start = r.base + r.pos
    for row in _MAP_ROWS:
        table = getattr(source_map, row.table)
        (count,) = r.unpack(_U32, map_start)
        for _ in range(count):
            (ident,) = r.unpack(_U32, map_start)
            table[ident] = (*[r.read_str(map_start) for _ in row.fields[2:]],
                            *r.unpack(_U32, map_start))
    return BinaryEvents(r, source_map), source_map


class BinaryEvents:
    """The event iterator of a binary trace (see `read_trace`).

    With `sampling` set to an enabled SamplingConfig before the first step,
    the decoder drops each load outside a monitoring window after
    validating it like any other record: it slices no value and builds no
    TraceEvent. A thread's first event is never dropped, so the consumer
    still sees every thread. It also drops a loop head that repeats the
    last yielded one (the same thread and loop), which the context tree
    would take as a pass with nothing ticked since the last one. While the
    window is a gap, a faster loop passes over the records it drops, after
    the same checks. Once it has passed one whole iteration of a repeated
    loop head, it checks the iterations after it that repeat its
    rule-bearing bytes a block at a time (`_repeats`), ins_index order
    included. It hands any record it cannot settle back to the general
    path, which raises every error, so offsets and messages are those of
    an ungated decode.

    `skipped` is the number of records before the event last yielded that
    were not yielded (dropped loads and dropped repeated passes), and after
    the last event the number of all such records, so the event index an
    error names can count them. Ungated, every record is yielded as it is
    read.
    """

    def __init__(self, reader, source_map):
        self.sampling = None
        self.skipped = 0
        self._events = self._decode(reader, source_map.sites,
                                    source_map.loops)

    def __iter__(self):
        # A for loop steps the generator itself, without a call per event.
        return self._events

    def __next__(self):
        return next(self._events)

    def _decode(self, r, sites, loops):
        # The loop keeps the buffer and the offset in locals and hands them
        # back to `r` only to refill. Every record but static_image fits in
        # _MAX_FIXED bytes, so once that many are buffered (or the stream
        # has ended) such a record decodes without a refill; one that the
        # stream cuts short makes unpack_from raise struct.error.
        sampling = self.sampling
        gated = sampling is not None and sampling.enabled
        # Loads with an ins_index in [lo, hi) are all `monitored` or all not.
        lo, hi = (0, 0) if gated else (0, 1 << 64)
        monitored = True
        last_ins = {}       # thread_id -> ins_index of its latest event
        skipped = 0         # records read and not yielded
        # Thread and loop of the last yielded event while it is a loop
        # head; no thread has id -1, so no loop head repeats any other.
        head_tid = head_loop = -1
        skip_load, skip_loop = _SKIP_LOAD.unpack_from, _SKIP_LOOP.unpack_from
        load_lengths, loop_length = _LOAD_LENGTHS, _REC_LOOP.size
        buf, pos = r.buf, r.pos
        end = len(buf)
        while True:
            if end - pos < _MAX_FIXED:
                r.pos = pos
                r.fill(_MAX_FIXED)
                buf, pos = r.buf, r.pos
                end = len(buf)
                if pos == end:
                    break
            start = pos
            kind = buf[pos]
            try:
                if kind == LOAD:
                    _, tid, ins, addr, size, fp_class, site_id = \
                        _REC_LOAD.unpack_from(buf, pos)
                    if size | fp_class << 8 not in load_lengths:
                        raise ValueError(_load_error(size, fp_class, size))
                    if site_id not in sites:
                        raise ValueError(f"unresolved site_id {site_id}")
                    pos += _REC_LOAD.size + size
                    if pos > end:
                        raise ValueError("truncated record")
                    if not lo <= ins < hi:
                        lo, hi, monitored = monitoring_window(ins, sampling)
                    if monitored or tid not in last_ins:
                        ev = TraceEvent(LOAD, tid, ins, addr, size,
                                        buf[pos - size:pos], fp_class, site_id)
                    else:
                        ev = None
                elif kind == LOOPHEAD:
                    _, tid, ins, loop_id, site_id = \
                        _REC_LOOP.unpack_from(buf, pos)
                    pos += _REC_LOOP.size
                    # The last yielded loop head's loop_id has passed this.
                    if loop_id != head_loop and loop_id not in loops:
                        raise ValueError(f"unresolved loop_id {loop_id}")
                    if site_id not in sites:
                        raise ValueError(f"unresolved site_id {site_id}")
                    if tid == head_tid and loop_id == head_loop:
                        ev = None
                    else:
                        # Positional: loop heads are as frequent as loads.
                        ev = TraceEvent(LOOPHEAD, tid, ins, 0, 0, b"", NONFP,
                                        site_id, loop_id)
                elif kind == STATIC_IMAGE:
                    # May be longer than a chunk: decoded through `r`, which
                    # refills as each object needs.
                    record_start = r.base + start
                    r.pos = pos
                    _, tid, ins, count = r.unpack(_REC_IMAGE, record_start)
                    objs = tuple((r.read_str(record_start),
                                  *r.unpack(_2U64, record_start))
                                 for _ in range(count))
                    buf, pos = r.buf, r.pos
                    end = len(buf)
                    start = record_start - r.base   # r.base may have moved
                    ev = TraceEvent(STATIC_IMAGE, tid, ins, objects=objs)
                elif (row := RECORDS.get(kind)) is not None:  # the rest
                    _, tid, ins, *payload = row.struct.unpack_from(buf, pos)
                    pos += row.struct.size
                    if kind in _SITED and payload[0] not in sites:
                        raise ValueError(f"unresolved site_id {payload[0]}")
                    ev = TraceEvent(kind, tid, ins, *row.pad, *payload)
                else:
                    # Read like a record header first: a cut-short one is
                    # truncated, not of unknown kind.
                    _HEADER.unpack_from(buf, pos)
                    raise ValueError(f"unknown event kind {kind}")
                previous = last_ins.get(tid, -1)
                if ins <= previous:
                    raise ValueError(_not_increasing(tid, ins, previous))
            except struct.error:
                raise TraceDecodeError("truncated record",
                                       r.base + start) from None
            except ValueError as exc:   # the record breaks a format rule
                raise TraceDecodeError(str(exc), r.base + start) from None
            last_ins[tid] = ins
            if ev is None:
                skipped += 1
            elif not gated:
                yield ev
            else:
                if kind == LOOPHEAD:
                    head_tid, head_loop = tid, loop_id
                else:
                    head_tid = -1
                self.skipped = skipped
                yield ev
            if not monitored and ins >= lo:
                # The gap loop: it passes over the records that the code
                # above would drop, after the same checks, and stops
                # before any other record, which goes back there to be
                # decoded or to raise. `last` is thread `tid`'s last
                # ins_index, swapped on a record of another thread. Only a
                # thread whose last ins_index is at least lo takes part, so
                # last < i < hi puts a load in the gap and in order. A
                # block check covers a run of records of thread `tid` alone.
                last = ins
                count = 0
                mark = -1   # the last loop head passed, with no switch since
                due = backoff = 0   # no block check before `count` is `due`
                stop = end - _MAX_FIXED
                while pos <= stop:
                    k = buf[pos]
                    if k == LOAD:
                        t, i, shape, site = skip_load(buf, pos)
                        if t != tid:
                            if last_ins.get(t, -1) < lo:
                                break
                            last_ins[tid] = last
                            tid, last = t, last_ins[t]
                            mark = -1
                        length = load_lengths.get(shape)
                        if (not last < i < hi or length is None
                                or site not in sites):
                            break
                        pos += length
                    elif k == LOOPHEAD:
                        t, i, loop, site = skip_loop(buf, pos)
                        if t != head_tid or loop != head_loop:
                            break
                        if t != tid:
                            if last_ins[t] < lo:
                                break
                            last_ins[tid] = last
                            tid, last = t, last_ins[t]
                        elif mark >= 0 and count >= due:
                            # buf[mark:pos] is one whole iteration, passed
                            # record by record: the ones after it that repeat
                            # it pass a block at a time. Checks that pass none
                            # put the next off by 0, 2, 6, 14... records.
                            after, n, last = _repeats(buf, mark, pos, end,
                                                      last, hi)
                            if n:
                                mark, pos = after - (pos - mark), after
                                count += n
                                backoff = 0
                                continue
                            due, backoff = count + backoff, 2 * backoff + 2
                        if i <= last or site not in sites:
                            break
                        mark = pos
                        pos += loop_length
                    else:
                        break
                    last = i
                    count += 1
                last_ins[tid] = last
                skipped += count
        self.skipped = skipped


def write_text_trace(events, source_map, sink):
    """One event per line; strings percent-encoded. For debugging and
    golden-file tests; the binary format is canonical, and a record that
    it cannot hold is a TraceEncodeError here too."""
    w = sink.write
    w(TEXT_HEADER + "\n")
    _binary_header(source_map)  # fails on an entry the binary cannot hold
    for row in _MAP_ROWS:
        table = getattr(source_map, row.table)
        for ident in sorted(table):
            w(row.text((ident, *table[ident])) + "\n")
    state = {}
    for index, ev in enumerate(events):
        if (error := _check_event(ev, state, source_map)) is not None:
            raise TraceEncodeError(error, index)
        row = RECORDS[ev.kind]
        try:
            _pack(ev)
        except struct.error as exc:
            raise TraceEncodeError(f"{row.name} record: {exc}", index) from None
        w(row.text([getattr(ev, attr) for attr in row.names]) + "\n")


def _text_events(lines, source_map):
    """Events of the numbered lines after the header; source-map lines
    go into `source_map` as they come, so an id resolves only in the
    events after its line."""
    state = {}
    for lineno, line in lines:
        tag, *tokens = line.split() or (None,)
        if tag is None:
            continue
        row = _BY_TAG.get(tag)
        if row is None:
            raise TraceDecodeError(f"unknown line tag {tag!r}", line=lineno)
        try:
            values = row.parse(tokens)
            if row.kind is None:
                _pack_entry(values)
                getattr(source_map, row.table)[values[0]] = tuple(values[1:])
                continue
            ev = TraceEvent(row.kind, **dict(zip(row.names, values)))
            if (error := _check_event(ev, state, source_map)) is not None:
                raise TraceDecodeError(error, line=lineno)
            _pack(ev)
        except struct.error as exc:
            raise TraceDecodeError(f"{row.name} record: {exc}",
                                   line=lineno) from None
        except (ValueError, KeyError) as exc:
            raise TraceDecodeError(f"bad line: {exc}", line=lineno) from None
        yield ev


def _numbered_lines(source):
    """(number, text) of each line of a binary stream, decoded one line at
    a time and numbered as str.splitlines numbers the lines of the whole
    text; a line that is not UTF-8 is a TraceDecodeError at its number."""
    lineno = 0
    for raw in source:
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            before = raw[:exc.start].decode("utf-8")
            raise TraceDecodeError(
                "invalid UTF-8",
                line=lineno + len((before + "x").splitlines())) from None
        for line in text.splitlines():
            lineno += 1
            yield lineno, line


def read_text_trace(source):
    """Parse the text form from a binary stream; returns
    (event iterator, SourceMap).

    The header and the source-map lines ahead of the first event are read
    at once; the rest is read line by line as the iterator is consumed, so
    `source` must stay open until then.
    """
    lines = _numbered_lines(source)
    if next(lines, (1, None))[1] != TEXT_HEADER:
        raise TraceDecodeError("bad text trace header", line=1)
    source_map = SourceMap()
    events = _text_events(lines, source_map)
    first = next(events, None)
    return chain(() if first is None else (first,), events), source_map
