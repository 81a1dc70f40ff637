"""Canonical profiles: thread-independent context keys, merging, JSON.

Per-thread accumulators key rows by context handles, which only mean
something inside one thread's tree. Canonicalization rewrites every handle
into a tuple of (kind, name, file, line) frames resolved through the
source map; profiles with canonical keys can then be merged by plain
counter addition, rows matching iff old context, new context and scope all
match.
"""

import codecs
import io
import json
import re
from functools import cache
from operator import attrgetter, itemgetter

from .cct import FUNCTION, LOADSITE, LOOP
from .errors import RedloadError
from .output import replacing
from .spatial import DYNAMIC, STATIC
from .temporal import PairCounters, ProgramTotals, program_fraction
from .trace import Record

PROFILE_FORMAT = "redload-profile"
PROFILE_VERSION = 1

# Sentinel meta for merges of profiles with differing analysis settings.
META_MIXED = {"mixed": True}


def _frame_table(source_map):
    """(kind, ident) -> canonical frame, for each context-tree node kind
    and each id the source map resolves; a structural path is a tuple of
    these keys."""
    table = {}
    for ident, (function, file, line) in source_map.sites.items():
        table[FUNCTION, ident] = ("function", function, file, line)
        table[LOADSITE, ident] = ("load", function, file, line)
    for ident, (file, line) in source_map.loops.items():
        table[LOOP, ident] = ("loop", "", file, line)
    return table


def _frames(table, keys, where):
    """The frames of `keys`. A trace reader rejects an id that its source
    map does not resolve; an event list given in memory meets no reader,
    so a key missing from `table` is a RedloadError naming `where`."""
    try:
        return tuple([table[key] for key in keys])
    except KeyError as exc:
        raise _unresolved(exc.args[0], where) from None


def _unresolved(key, where):
    kind, ident = key
    name = "loop_id" if kind == LOOP else "site_id"
    return RedloadError(f"{where}: unresolved {name} {ident}")


class Profile(Record):
    """Whole-execution (or one thread's, pre-merge) redundancy profile."""

    __slots__ = ("totals", "temporal_pairs", "objects", "spatial_pairs",
                 "thread_count", "meta")

    def __init__(self, totals=None, temporal_pairs=None, objects=None,
                 spatial_pairs=None, thread_count=0, meta=None):
        self.totals = ProgramTotals() if totals is None else totals
        self.temporal_pairs = {} if temporal_pairs is None else temporal_pairs
        self.objects = {} if objects is None else objects
        self.spatial_pairs = {} if spatial_pairs is None else spatial_pairs
        self.thread_count = thread_count
        self.meta = meta


def _fold(key, counters, rows):
    """Add `counters` to the row of `key` in `rows`. A new row is the
    counters object itself; a row already there is replaced by a new sum,
    so no counters object is changed, even one that two profiles share."""
    size = len(rows)
    # setdefault hashes the nested key once for the common, new-key case.
    row = rows.setdefault(key, counters)
    if len(rows) == size:
        total = row.copy()
        total.add(counters)
        rows[key] = total


class _Paths(dict):
    """Handle -> canonical path in one context tree, where no handle (no
    prior load, no scope) is no path. A hit is one dict lookup; a miss
    resolves the handle's path and each unresolved ancestor's."""

    def __init__(self, tree, frames):
        super().__init__({None: None, tree.root.handle: ()})
        self.nodes = tree.nodes
        self.frames = frames

    def __missing__(self, handle):
        # Each path is its parent's plus one frame. Walk up to the nearest
        # resolved ancestor without recursion: loop-extended paths can be
        # deeper than the interpreter's recursion limit.
        pending = []
        node = self.nodes[handle]
        while (path := self.get(node.handle)) is None:
            pending.append(node)
            node = node.parent
        for node in reversed(pending):
            key = node.kind, node.ident
            frame = self.frames.get(key)
            if frame is None:
                raise _unresolved(key, f"context handle {handle}")
            path += (frame,)
            self[node.handle] = path
        return path


def canonicalize(worker, source_map):
    """Rewrite one thread worker's accumulators into a canonical Profile.

    `worker` carries tree, temporal and spatial detectors, and the two
    scope budgets. Raises when a handle's site or loop id is missing from
    the source map, naming the handle and the id. Rows fold through
    `_fold`, so the worker is never changed.
    """
    frames = _frame_table(source_map)
    paths = _Paths(worker.tree, frames)

    temporal = worker.temporal
    profile = Profile(totals=temporal.totals, thread_count=1,
                      meta=worker.meta)

    scopes = worker.temporal_budget.scopes
    for pkey, counters in temporal.rows.items():
        old_h, new_h = pkey
        key = (paths[old_h], paths[new_h], paths[scopes.get(pkey)])
        _fold(key, counters, profile.temporal_pairs)

    spatial = worker.spatial
    # Object keys by rid, each dynamic one's allocation path as frames.
    objects = [rkey if rkey[0] == STATIC else
               (DYNAMIC, _frames(frames, rkey[1], "allocation context"))
               for rkey in spatial.object_rows]
    for key, counters in zip(objects, spatial.object_rows.values()):
        _fold(key, counters, profile.objects)

    scopes = worker.spatial_budget.scopes
    for pkey, counters in spatial.pair_rows.items():
        rid, old_h, new_h = pkey
        key = (objects[rid], paths[old_h], paths[new_h],
               paths[scopes.get(pkey)])
        _fold(key, counters, profile.spatial_pairs)

    return profile


def _merge_meta(a, b):
    if a == b:
        return None if a is None else dict(a)
    if a is None:
        return dict(b)
    if b is None:
        return dict(a)
    return dict(META_MIXED)


def merge(a, b):
    """Row-wise sum of two profiles: `merge_all((a, b))`."""
    return merge_all((a, b))


def merge_all(profiles):
    """Row-wise sum of an iterable of profiles, each folded into one new
    Profile as it is taken and its rows as `canonicalize` folds them: no
    input is changed, and the order of the inputs does not matter."""
    out = Profile()
    for p in profiles:
        out.totals.add(p.totals)
        out.thread_count += p.thread_count
        out.meta = _merge_meta(out.meta, p.meta)
        for table in ("temporal_pairs", "objects", "spatial_pairs"):
            rows = getattr(out, table)
            for key, counters in getattr(p, table).items():
                _fold(key, counters, rows)
    return out


# ---------------------------------------------------------------- JSON --
#
# Documents of frames, objects, totals and fractions, shared with reports.

def frame_doc(frame):
    kind, name, file, line = frame
    return {"kind": kind, "name": name, "file": file, "line": line}


def path_doc(path):
    return [frame_doc(f) for f in path]


def object_doc(key):
    kind, ident = key
    if kind == STATIC:
        return {"kind": STATIC, "name": ident}
    return {"kind": DYNAMIC, "context": path_doc(ident)}


_TOTAL_ARGS = ProgramTotals.__slots__


def totals_doc(totals):
    return {name: getattr(totals, name) for name in _TOTAL_ARGS}


def fractions_doc(totals):
    precise, approx = program_fraction(totals)
    return {
        "precise": precise[0], "precise_defined": precise[1],
        "approx": approx[0], "approx_defined": approx[1],
    }


# A saved profile is what json.dump(doc, f, indent=1, sort_keys=True) and
# a newline would write, where each table of `doc` lists its rows in the
# order of their compact json.dumps(row, sort_keys=True) text. The writer
# below writes those bytes one row at a time. json's indenting encoder is
# pure Python, and a profile is mostly the same frames repeated row after
# row, so each distinct frame and object key is encoded once per document.
# A context's text grows with its depth, and a deep recursion has a
# distinct context per level, so no context's text is kept: each distinct
# context keeps one sort key, the tuple of its frames' cached indented
# texts and _END, and a row joins its contexts' texts from their keys as
# it is written.
#
# Rows sort as their compact texts do when each value's key sorts as its
# compact text. Counters, object and frame texts are whole JSON values,
# none a proper prefix of another. Every frame has the same keys, and its
# one number, the line, is followed by "," in both texts, so two frames'
# indented texts first differ where their compact texts do and sort
# alike. Where one context ends and another goes on, "]" sorts after
# ", {", so _END sorts after "{". The empty context "[]" sorts before any
# other ("]" before "{"), as () does, and null after every list ("n"
# after "["), as (_END,) does.

_ROW = 2        # depth of a row in its table; its values sit one deeper
_END = "|"

_COUNTER_FIELDS = tuple(sorted(PairCounters.__slots__))
_counter_values = attrgetter(*_COUNTER_FIELDS)
# A counters or totals document's values in its class's argument order.
_COUNTER_ARGS = PairCounters.__slots__
_counter_args = itemgetter(*_COUNTER_ARGS)
_total_args = itemgetter(*_TOTAL_ARGS)


def _indented(open_, close, items, depth):
    """Pieces of the indent=1 text of a JSON array or object whose first
    line sits at `depth`, from its items' indented texts."""
    pad = "\n" + " " * (depth + 1)
    sep = pad
    yield open_
    for item in items:
        yield sep
        yield item
        sep = "," + pad
    if sep is not pad:      # after any item, the closer has its own line
        yield "\n" + " " * depth
    yield close


def _indent(value, depth):
    """The text of a JSON document as json.dumps gives it with indent=1
    and sort_keys=True, when the value sits at `depth`. No JSON string
    holds a raw newline, so each one in the text starts a line."""
    indented = json.dumps(value, indent=1, sort_keys=True)
    return indented.replace("\n", "\n" + " " * depth)


def _templates(keys, depth):
    """(compact, indented) %-templates of an object with these sorted
    keys at `depth`, one %s per value."""
    items = [json.dumps(key) + ": %s" for key in keys]
    return ("{" + ", ".join(items) + "}",
            "".join(_indented("{", "}", items, depth)))


# Counters are ints, whose str() is their JSON text.
_COUNTERS = _templates(_COUNTER_FIELDS, _ROW + 1)


def _write_rows(write, rows, keys, orders, texts):
    """Write one table at depth 1. `keys` are a row's keys other than
    "counters", sorted; `orders(key)` gives their sort keys in that order
    and `texts(key)` their indented texts, built as the row is written.
    Rows sort by (compact counters text, *sort keys, row key, counters):
    distinct rows differ before the row key, so it is never compared."""
    compact_counters, indented_counters = _COUNTERS
    entries = [(compact_counters % _counter_values(counters), *orders(key),
                key, counters) for key, counters in rows.items()]
    entries.sort()
    template = _templates(("counters", *keys), _ROW)[1]
    rows_text = (template % (indented_counters % _counter_values(entry[-1]),
                             *texts(entry[-2]))
                 for entry in entries)
    for piece in _indented("[", "]", rows_text, _ROW - 1):
        write(piece)


def _write(profile, write):
    """Write the profile's document through `write`, row by row."""
    frame_text = cache(lambda f: _indent(frame_doc(f), _ROW + 2))
    path_key = cache(lambda path: (_END,) if path is None else
                     (*map(frame_text, path), _END) if path else ())
    object_key = cache(lambda k: json.dumps(object_doc(k), sort_keys=True))
    object_text = cache(lambda k: _indent(object_doc(k), _ROW + 1))
    pad = "\n" + " " * (_ROW + 2)     # before each frame of a context
    between, close = "," + pad, pad[:-1] + "]"

    def context(path):
        if not path:
            return "null" if path is None else "[]"
        return "[" + pad + between.join(path_key(path)[:-1]) + close

    header = {
        "format": PROFILE_FORMAT,
        "version": PROFILE_VERSION,
        "thread_count": profile.thread_count,
        "meta": profile.meta,
        "totals": totals_doc(profile.totals),
        "program_fractions": fractions_doc(profile.totals),
    }
    tables = {
        "temporal_pairs": (
            profile.temporal_pairs, ("new_context", "old_context", "scope"),
            lambda k: (path_key(k[1]), path_key(k[0]), path_key(k[2])),
            lambda k: (context(k[1]), context(k[0]), context(k[2]))),
        "objects": (profile.objects, ("object",),
                    lambda k: (object_key(k),), lambda k: (object_text(k),)),
        "spatial_pairs": (
            profile.spatial_pairs,
            ("new_context", "object", "old_context", "scope"),
            lambda k: (path_key(k[2]), object_key(k[0]), path_key(k[1]),
                       path_key(k[3])),
            lambda k: (context(k[2]), object_text(k[0]), context(k[1]),
                       context(k[3]))),
    }
    sep = "{"
    for name in sorted(header.keys() | tables.keys()):
        write(f"{sep}\n {json.dumps(name)}: ")
        sep = ","
        if name in tables:
            _write_rows(write, *tables[name])
        else:
            write(_indent(header[name], 1))
    write("\n}\n")


def to_json(profile):
    """The profile's document: what `save` writes, parsed back."""
    out = io.StringIO()
    _write(profile, out.write)
    return json.loads(out.getvalue())


def _require(ok, where, field, value, want):
    """Raise naming `where`, the field and its value unless `ok`."""
    if not ok:
        raise RedloadError(f"{where}: field {field!r} is {value!r:.60}, "
                           f"not {want}")


def _path_from(docs, frames, where, field):
    """The path in `field` of the document at `where`. A pair row's
    old_context and scope may be null, an object's context may be empty.
    Each frame document is checked, then `frames` gives equal frames, and
    equal paths, one tuple."""
    if docs is None and field in ("old_context", "scope"):
        return None
    _require(type(docs) is list and (docs or field == "context"), where,
             field, docs, "a list of frames, empty only in an object")
    path = []
    for doc in docs:
        frame = kind, name, file, line = (doc["kind"], doc["name"],
                                          doc["file"], doc["line"])
        # Checked before `frames` is asked: true and 1.0 equal 1, so a
        # frame that only equals a valid one must not get its tuple.
        if not (kind in ("function", "loop", "load") and type(name) is str
                and type(file) is str and type(line) is int and line >= 0):
            at = f"{where} {field} frame {len(path)}"
            _require(kind in ("function", "loop", "load"), at, "kind", kind,
                     "'function', 'loop' or 'load'")
            _require(type(name) is str, at, "name", name, "a string")
            _require(type(file) is str, at, "file", file, "a string")
            _require(type(line) is int and line >= 0, at, "line", line,
                     "a non-negative integer")
        path.append(frames.setdefault(frame, frame))
    path = tuple(path)
    return frames.setdefault(path, path)


def _counts(values, names, where, index=None):
    """`values` when each is a non-negative int, not a bool; else raise
    naming `where` (a table, and a row `index` in it) and the field."""
    for value in values:    # the cheap loop; the field is named on failure
        if type(value) is not int or value < 0:
            name = next(n for n, v in zip(names, values) if v is value)
            if index is not None:
                where = f"{where} row {index} counters"
            _require(False, where, name, value, "a non-negative integer")
    return values


def _object_key_from(doc, frames, where):
    kind = doc["kind"]
    if kind == STATIC:
        name = doc["name"]
        _require(type(name) is str, where, "name", name, "a string")
        return (STATIC, name)
    _require(kind == DYNAMIC, where, "kind", kind, "'static' or 'dynamic'")
    return (DYNAMIC, _path_from(doc["context"], frames, where, "context"))


def _pair_key(row, frames, where):
    return tuple([_path_from(row[field], frames, where, field)
                  for field in ("old_context", "new_context", "scope")])


# Each table's row key from a row document at `where`.
_ROW_KEYS = {
    "temporal_pairs": _pair_key,
    "objects": lambda row, frames, where: _object_key_from(
        row["object"], frames, f"{where} object"),
    "spatial_pairs": lambda row, frames, where: (
        _object_key_from(row["object"], frames, f"{where} object"),
        *_pair_key(row, frames, where)),
}


def _put(rows, row, frames, table, index):
    """Add row `index` of `table` to `rows`; raises when a field is
    malformed or an earlier row holds the key."""
    key = _ROW_KEYS[table](row, frames, f"{table} row {index}")
    rows[key] = PairCounters(*_counts(_counter_args(row["counters"]),
                                      _COUNTER_ARGS, table, index))
    if len(rows) <= index:
        raise RedloadError(f"{table} row {index}: repeats the key of an "
                           "earlier row")


def save(profile, path):
    """Write the profile's document to `path`, whole or not at all. A
    number that str() cannot write, such as a sum of counters past int's
    4,300-digit limit, raises RedloadError naming `path`."""
    try:
        with replacing(path, "x", "utf-8") as f:
            _write(profile, f.write)
    except ValueError as exc:
        raise RedloadError(f"{path}: cannot write profile: {exc}") from None


CHUNK = 1 << 16     # bytes that `load` reads at a time
_WHITESPACE = re.compile(r"[ \t\n\r]*")
_decode = json.JSONDecoder().raw_decode


class _Window:
    """The text of a binary file as far as it has been read, through an
    incremental UTF-8 decoder; `text[pos:]` is what is not yet parsed.
    The text before `pos` is dropped at the next read, and `dropped`
    counts it. Bytes that are not UTF-8 end the text, and raise once
    text past them is wanted."""

    def __init__(self, f):
        self.file = f
        self.decode = codecs.getincrementaldecoder("utf-8")().decode
        self.text = ""
        self.pos = 0
        self.dropped = 0
        self.fault = None
        self.eof = False

    def more(self):
        """Read on, CHUNK bytes at a time, until more bytes have been
        read than there were unparsed characters, so that a value parsed
        again after each read costs time linear in its length; False at
        the end of the file."""
        if self.eof:
            if self.fault:
                raise self.fault
            return False
        held = self.text[self.pos:]
        self.dropped += self.pos
        parts = [held]
        size = 0
        while not self.eof and size <= len(held):
            data = self.file.read(CHUNK)
            self.eof = not data
            try:
                parts.append(self.decode(data, self.eof))
            except UnicodeDecodeError as exc:
                # exc.object: bytes held back from the last read, then these.
                parts.append(exc.object[:exc.start].decode())
                exc.start += self.file.tell() - len(exc.object)
                self.fault = exc
                self.eof = True
            size += len(data)
        self.text = "".join(parts)
        self.pos = 0
        return True

    def peek(self):
        """The next character that is not JSON whitespace, left unparsed;
        "" at the end of the file."""
        while True:
            self.pos = _WHITESPACE.match(self.text, self.pos).end()
            if self.pos < len(self.text) or not self.more():
                return self.text[self.pos:self.pos + 1]

    def error(self, message):
        """json's error `message` at the next unparsed character."""
        return json.JSONDecodeError(message, self.text, self.pos)

    def value(self):
        """The JSON value that comes next. A value that ends within two
        characters of the end of the text read so far, such as a number
        cut after "1." or "1e-", is parsed again once more is read. So is
        one that fails where that end may be the cause: in a string left
        open, or as near the end as a cut "-Infinity" can be. Text that
        stops at bytes that are not UTF-8 gets no more, so there only a
        string left open or a fault at the very end is the UTF-8 fault."""
        self.peek()
        while True:
            try:
                value, end = _decode(self.text, self.pos)
            except json.JSONDecodeError as exc:
                near = 0 if self.fault else len("-Infinity")
                cut = (exc.msg.startswith("Unterminated string")
                       or len(self.text) - exc.pos <= near)
                if not (cut and self.more()):
                    raise
                continue
            if end + 2 < len(self.text) or not self.more():
                self.pos = end
                return value

    def items(self, close):
        """Enter the array or object whose opener comes next and yield
        once for each of its items, which the caller parses in turn."""
        self.pos += 1
        if self.peek() != close:
            yield
            while self.peek() == ",":
                self.pos += 1
                yield
        if self.peek() != close:
            raise self.error("Expecting ',' delimiter")
        self.pos += 1


def _stream(window):
    """The Profile of the profile document in `window`, each table row
    made a row as it is read. The first fault met raises; the members
    other than the tables are checked at the end, since a later copy of
    a member replaces an earlier one, as in json.loads."""
    if window.peek() != "{":
        window.value()
        raise RedloadError(f"not a {PROFILE_FORMAT} document")
    members, tables, frames = {}, {}, {}
    for _ in window.items("}"):
        if window.peek() != '"':
            raise window.error(
                "Expecting property name enclosed in double quotes")
        name = window.value()
        if window.peek() != ":":
            raise window.error("Expecting ':' delimiter")
        window.pos += 1
        if name not in _ROW_KEYS:
            members[name] = window.value()
        elif window.peek() != "[":
            _require(False, "profile", name, window.value(),
                     "a list of rows")
        else:
            rows = tables[name] = {}
            for index, _ in enumerate(window.items("]")):
                _put(rows, window.value(), frames, name, index)
    if window.peek():
        raise window.error("Extra data")
    if members.get("format") != PROFILE_FORMAT:
        raise RedloadError(f"not a {PROFILE_FORMAT} document")
    version = members.get("version")
    if version != PROFILE_VERSION:
        raise RedloadError(f"unsupported profile version {version}")
    # true and 1.0 equal 1, but the writer writes the int.
    _require(type(version) is int, "profile", "version", version,
             "an integer")
    totals = _counts(_total_args(members["totals"]), _TOTAL_ARGS, "totals")
    (thread_count,) = _counts((members["thread_count"],), ("thread_count",),
                              "profile")
    meta = members.get("meta")
    _require(meta is None or type(meta) is dict, "profile", "meta", meta,
             "an object or null")
    return Profile(totals=ProgramTotals(*totals), thread_count=thread_count,
                   meta=meta, **{table: tables[table] for table in _ROW_KEYS})


def load(path):
    """Read a saved profile in one pass. Rows stream through a text
    window of CHUNK bytes, each made a row before the next is read, so
    neither the whole text nor the whole document is ever held; equal
    frames share one tuple. A file that is not UTF-8, not JSON or not a
    profile document raises RedloadError naming the file and its first
    fault: the byte where the UTF-8 fails, the character where the JSON
    fails and json's words, or the field of another shape."""
    with open(path, "rb") as f:
        window = _Window(f)
        try:
            return _stream(window)
        except UnicodeDecodeError as exc:
            fault = f"invalid UTF-8 at byte {exc.start}"
        except json.JSONDecodeError as exc:
            fault = (f"not JSON at character {window.dropped + exc.pos}: "
                     f"{exc.msg}")
        except RecursionError:
            fault = "JSON nested too deeply"
        except KeyError as exc:
            fault = f"missing field {exc.args[0]!r}"
        except (ValueError, TypeError) as exc:  # json's int digit limit
            fault = f"malformed profile: {exc}"
        except RedloadError as exc:
            fault = exc
    raise RedloadError(f"{path}: {fault}")
