"""Deterministic synthetic workloads exhibiting known redundancy patterns.

Each scenario simulates a small program as an event stream: calls and returns
around its functions, a loop-header pass at every iteration boundary,
allocation or image registration for every array touched, and loads carrying
the values the simulated memory really holds. Each thread runs inside `main`
(site 1). All scenarios take `threads`; `SCENARIOS` does not list it. Identical
(name, params) always produce the identical trace, so scenarios double as
golden inputs for the analysis engine and for the test suite's oracle.
"""

import itertools
import random
import struct

from .errors import ConfigError
from .trace import (ALLOC, CALL, F32, F64, FREE, LOAD, LOOPHEAD, NONFP,
                    RETURN, STATIC_IMAGE, THREAD_START, SourceMap, TraceEvent)

STATIC_BASE = 0x10000000
DYNAMIC_BASE = 0x70000000
UNOWNED_BASE = 0x7FFF0000       # never registered; stands in for stack slots

_U32 = struct.Struct("<I")
_F64S = struct.Struct("<d")
_F32S = struct.Struct("<f")


def u32(v):
    return _U32.pack(v & 0xFFFFFFFF)


def u64(v):
    return struct.pack("<Q", v & 0xFFFFFFFFFFFFFFFF)


def f64(x):
    return _F64S.pack(x)


def f32(x):
    return _F32S.pack(x)


class Scenario:
    def __init__(self, name, params=None):
        self.name = name
        self.params = {} if params is None else params


class _Emitter:
    """Builds one thread's events with a monotonically increasing
    instruction index.

    Each method bumps the index inline and builds its event positionally:
    a scenario emits one event per call, so these are the generator's
    per-event cost."""

    __slots__ = ("tid", "ins")

    def __init__(self, tid, start_ins=0):
        self.tid = tid
        self.ins = start_ins

    def thread_start(self):
        i = self.ins
        self.ins = i + 1
        return TraceEvent(THREAD_START, self.tid, i)

    def call(self, site):
        i = self.ins
        self.ins = i + 1
        return TraceEvent(CALL, self.tid, i, 0, 0, b"", NONFP, site)

    def ret(self, site):
        i = self.ins
        self.ins = i + 1
        return TraceEvent(RETURN, self.tid, i, 0, 0, b"", NONFP, site)

    def loop(self, loop_id, site):
        i = self.ins
        self.ins = i + 1
        return TraceEvent(LOOPHEAD, self.tid, i, 0, 0, b"", NONFP, site,
                          loop_id)

    def load(self, addr, value, site, fp=NONFP):
        i = self.ins
        self.ins = i + 1
        return TraceEvent(LOAD, self.tid, i, addr, len(value), value, fp,
                          site)

    def alloc(self, base, size):
        i = self.ins
        self.ins = i + 1
        return TraceEvent(ALLOC, self.tid, i, 0, 0, b"", NONFP, 0, 0, base,
                          size)

    def free(self, base):
        i = self.ins
        self.ins = i + 1
        return TraceEvent(FREE, self.tid, i, 0, 0, b"", NONFP, 0, 0, base)


def _dyn_base(tid, offset=0):
    # Per-thread dynamic ranges stay disjoint across any interleaving.
    return DYNAMIC_BASE + (tid << 36) + offset


def _at_least(p, **minimums):
    """Reject a count below its minimum; builders call this before any
    event is built, so a bad parameter never reaches a writer."""
    for key, low in minimums.items():
        if p[key] < low:
            raise ConfigError(f"{key} must be >= {low}, got {p[key]}")


def _fraction(p, key, high=1.0):
    value = p[key]
    if not 0.0 <= value <= high:
        raise ConfigError(f"{key} must be in [0, {high}], got {value}")
    return value


# ------------------------------------------------------------ scenarios --

def _build_adjacent_equal(p, sm):
    _at_least(p, reps=0)
    values = tuple(p["values"])
    reps = p["reps"]
    base = STATIC_BASE
    sm.add_site(1, "main", "adjacent_equal.c", 2)
    sm.add_site(2, "main", "adjacent_equal.c", 4)
    sm.add_loop(101, "adjacent_equal.c", 3)
    statics = [("A", base, 4 * len(values))]

    def body(em, tid):
        for _ in range(reps):
            for i, v in enumerate(values):
                yield em.loop(101, 1)
                yield em.load(base + 4 * i, u32(v), 2)

    return statics, body


def _build_linear_search(p, sm):
    _at_least(p, n=1, queries=0)
    n = p["n"]
    queries = p["queries"]
    probe = p["probe"]
    if probe is None:
        probe = n - 1
    if not 0 <= probe < n:
        raise ConfigError(f"probe {probe} outside key range 0..{n - 1}")
    base = STATIC_BASE
    sm.add_site(1, "main", "linear_search.c", 14)
    sm.add_site(2, "findIndex", "linear_search.c", 1)
    sm.add_site(3, "findIndex", "linear_search.c", 3)
    sm.add_loop(101, "linear_search.c", 15)   # query loop in main
    sm.add_loop(102, "linear_search.c", 2)    # scan loop in findIndex
    statics = [("keys", base, 4 * n)]

    def body(em, tid):
        for _ in range(queries):
            yield em.loop(101, 1)
            yield em.call(2)
            for i in range(n):
                yield em.loop(102, 2)
                yield em.load(base + 4 * i, u32(i), 3)
                if i >= probe:
                    break
            yield em.ret(2)

    return statics, body


def _build_hash_collision(p, sm):
    _at_least(p, chain=1, searches=0)
    chain = p["chain"]
    searches = p["searches"]
    table_base = STATIC_BASE
    sm.add_site(1, "main", "hash_collision.c", 20)
    sm.add_site(2, "setup", "hash_collision.c", 14)
    sm.add_site(3, "hashtable_search", "hash_collision.c", 1)
    sm.add_site(4, "hashtable_search", "hash_collision.c", 6)
    sm.add_site(5, "hashtable_search", "hash_collision.c", 8)
    sm.add_site(6, "hashtable_search", "hash_collision.c", 9)
    sm.add_loop(101, "hash_collision.c", 21)  # search loop in main
    sm.add_loop(102, "hash_collision.c", 7)   # list walk in search
    statics = [("table", table_base, 8)]

    def body(em, tid):
        nodes = [_dyn_base(tid, k * 16) for k in range(chain)]
        yield em.call(2)
        for nb in nodes:
            yield em.alloc(nb, 16)
        yield em.ret(2)
        for _ in range(searches):
            yield em.loop(101, 1)
            yield em.call(3)
            yield em.load(table_base, u64(nodes[0]), 4)
            for k, nb in enumerate(nodes):
                yield em.loop(102, 3)
                yield em.load(nb, u32(0xA000 + k), 5)
                nxt = nodes[k + 1] if k + 1 < chain else 0
                yield em.load(nb + 8, u64(nxt), 6)
            yield em.ret(3)

    return statics, body


def _build_stencil(p, sm):
    _at_least(p, nx=0, ny=0, reps=0)
    nx, ny, reps = p["nx"], p["ny"], p["reps"]
    base = STATIC_BASE
    sm.add_site(1, "main", "stencil.c", 1)
    sm.add_site(3, "main", "stencil.c", 8)
    sm.add_site(4, "main", "stencil.c", 9)
    sm.add_site(5, "main", "stencil.c", 10)
    sm.add_loop(101, "stencil.c", 2)
    sm.add_loop(102, "stencil.c", 3)
    statics = [("tIn", base, 8 * nx * ny)]

    def cell(i):
        return f64(300.0 + 0.125 * i)

    def body(em, tid):
        for _ in range(reps):
            for y in range(ny):
                yield em.loop(101, 1)
                for x in range(nx):
                    yield em.loop(102, 1)
                    c = x + y * nx
                    w = c if x == 0 else c - 1
                    e = c if x == nx - 1 else c + 1
                    yield em.load(base + 8 * c, cell(c), 3, fp=F64)
                    yield em.load(base + 8 * w, cell(w), 4, fp=F64)
                    yield em.load(base + 8 * e, cell(e), 5, fp=F64)

    return statics, body


def _build_forward_copy(p, sm):
    _at_least(p, len=0, reps=0)
    length, reps = p["len"], p["reps"]
    sm.add_site(1, "main", "forward_copy.c", 12)
    sm.add_site(2, "init", "forward_copy.c", 3)
    sm.add_site(3, "cache_invalidate", "forward_copy.c", 5)
    sm.add_site(4, "cache_invalidate", "forward_copy.c", 8)
    sm.add_loop(101, "forward_copy.c", 13)   # call loop in main
    sm.add_loop(102, "forward_copy.c", 7)    # copy loop in the callee

    def body(em, tid):
        buf = _dyn_base(tid)
        yield em.call(2)
        yield em.alloc(buf, 4 * length)
        yield em.ret(2)
        for _ in range(reps):
            yield em.loop(101, 1)
            yield em.call(3)
            for i in range(1, length):
                yield em.loop(102, 3)
                yield em.load(buf + 4 * (i - 1), u32(1), 4)
            yield em.ret(3)

    return [], body


def _build_callee_spill(p, sm):
    _at_least(p, reps=0)
    reps = p["reps"]
    params = (7, 480, 640)
    data_base = STATIC_BASE
    sm.add_site(1, "main", "callee_spill.c", 1)
    sm.add_site(2, "PelYline", "callee_spill.c", 8)
    sm.add_site(3, "PelYline", "callee_spill.c", 9)
    sm.add_site(4, "PelYline", "callee_spill.c", 10)
    sm.add_site(5, "PelYline", "callee_spill.c", 11)
    sm.add_site(6, "PelYline", "callee_spill.c", 12)
    sm.add_loop(101, "callee_spill.c", 2)
    statics = [("ref_pic", data_base, 4 * reps)]

    def body(em, tid):
        spill = UNOWNED_BASE
        for pos in range(reps):
            yield em.loop(101, 1)
            yield em.call(2)
            for slot, v in enumerate(params):
                yield em.load(spill + 4 * slot, u32(v), 3 + slot)
            yield em.load(data_base + 4 * pos, u32(1000 + pos), 6)
            yield em.ret(2)

    return statics, body


def _sparse_layout(length, zero_density, layout, seed, salt):
    zeros = round(length * zero_density)
    vals = [0] * zeros + [salt + i for i in range(length - zeros)]
    if layout == "shuffled":
        random.Random(seed).shuffle(vals)
    elif layout != "block":
        raise ConfigError(f"unknown layout {layout!r}")
    return vals


def _build_sparse_zeros(p, sm):
    _at_least(p, len=0, passes=0)
    _fraction(p, "zero_density")
    length = p["len"]
    delta_vals = _sparse_layout(length, p["zero_density"], p["layout"],
                                p["seed"], 1000)
    oldw_vals = _sparse_layout(length, p["zero_density"], p["layout"],
                               p["seed"] + 1, 5000)
    delta_base = STATIC_BASE
    sm.add_site(1, "main", "sparse_zeros.c", 10)
    sm.add_site(2, "init", "sparse_zeros.c", 2)
    sm.add_site(3, "main", "sparse_zeros.c", 13)
    sm.add_site(4, "main", "sparse_zeros.c", 14)
    sm.add_loop(101, "sparse_zeros.c", 12)
    statics = [("delta", delta_base, 4 * length)]

    def body(em, tid):
        oldw = _dyn_base(tid)
        yield em.call(2)
        yield em.alloc(oldw, 4 * length)
        yield em.ret(2)
        for _ in range(p["passes"]):
            for j in range(length):
                yield em.loop(101, 1)
                yield em.load(delta_base + 4 * j, u32(delta_vals[j]), 3)
                yield em.load(oldw + 4 * j, u32(oldw_vals[j]), 4)

    return statics, body


def _build_approx_drift(p, sm):
    _at_least(p, len=0, reps=0)
    length, reps, step = p["len"], p["reps"], p["step"]
    try:
        (1.0 + step) ** max(reps - 1, 0)    # the largest scale emitted
    except OverflowError:
        raise ConfigError(f"step {step} overflows a float within {reps} "
                          "reps") from None
    base = STATIC_BASE
    sm.add_site(1, "main", "approx_drift.c", 1)
    sm.add_site(3, "main", "approx_drift.c", 5)
    sm.add_loop(101, "approx_drift.c", 2)
    sm.add_loop(102, "approx_drift.c", 4)
    statics = [("vals", base, 8 * length)]

    def body(em, tid):
        for r in range(reps):
            yield em.loop(101, 1)
            scale = (1.0 + step) ** r
            for i in range(length):
                yield em.loop(102, 1)
                yield em.load(base + 8 * i, f64((100.0 + i) * scale), 3,
                              fp=F64)

    return statics, body


_RM_FUNC_SITES = tuple(range(10, 15))
_RM_LOAD_SITES = tuple(range(20, 28))
_RM_BYTE_POOL = (0, 0, 1, 2, 255)
_RM_FP_POOL = (0.0, 1.0, 100.0, 100.4, 100.5, -3.75, float("nan"))


def _build_random_mixed(p, sm):
    # Each third of the region holds an 8-byte gap; at churn 0.8 or more
    # no draw is left for a load and the stream would never end.
    _at_least(p, loads=0, region_bytes=24, max_depth=1)
    loads = p["loads"]
    region = p["region_bytes"]
    max_depth = p["max_depth"]
    fp_fraction = _fraction(p, "fp_fraction")
    churn = _fraction(p, "churn", high=0.79)
    base = STATIC_BASE

    sm.add_site(1, "main", "random_mixed.c", 1)
    for s in _RM_FUNC_SITES:
        sm.add_site(s, f"f{s - 10}", "random_mixed.c", 100 + s)
    for s in _RM_LOAD_SITES:
        sm.add_site(s, "load", "random_mixed.c", 200 + s)
    # One loop id per (function site, nesting slot) so a function
    # re-entered anywhere replays the same static loops. A frame nests at
    # most 4 loops, so slots 4 and 5 are never entered; they stay because
    # their loops are in the pinned source map.
    loop_ids = {key: lid for lid, key in enumerate(
        itertools.product((1,) + _RM_FUNC_SITES, range(6)), 1000)}
    for lid in loop_ids.values():
        sm.add_loop(lid, "random_mixed.c", lid)

    third = region // 3
    statics = [("obj0", base, third - 8),
               ("obj1", base + third, third - 8)]
    dyn_off = 2 * third

    def body(em, tid):
        rng = random.Random(p["seed"] * 1_000_003 + tid * 7919)
        # Each thread churns allocations in its own zone; the static part
        # of the region (objects plus unowned gaps) is shared by all.
        zone = _dyn_base(tid)
        zone_size = region - dyn_off - 8

        frames = [1]            # call site stack, main at bottom
        loop_stack = [[]]       # per frame: loop ids currently on the path
        zone_live = False
        emitted = 0
        while emitted < loads:
            r = rng.random()
            frame = frames[-1]
            stack = loop_stack[-1]
            if r < 0.05 and len(frames) < max_depth:
                frame = rng.choice(_RM_FUNC_SITES)
                yield em.call(frame)
                frames.append(frame)
                loop_stack.append([])
            elif r < 0.10 and len(frames) > 1:
                yield em.ret(frames.pop())
                loop_stack.pop()
            elif r < 0.20:
                if stack and rng.random() < 0.5:
                    k = rng.randrange(len(stack))
                    del stack[k + 1:]
                    yield em.loop(stack[k], frame)
                elif len(stack) < 4:
                    lid = loop_ids[frame, len(stack)]
                    stack.append(lid)
                    yield em.loop(lid, frame)
            elif r < 0.20 + churn:
                if zone_live:
                    yield em.free(zone)
                    zone_live = False
                else:
                    yield em.alloc(zone, zone_size)
                    zone_live = True
            else:
                off = rng.randrange(region - 8)
                addr = (base + off) if off < dyn_off \
                    else zone + (off - dyn_off)
                if rng.random() < fp_fraction:
                    if rng.random() < 0.5:
                        fp = F64
                        if rng.random() < 0.15:
                            value = f64(rng.choice(_RM_FP_POOL)) + \
                                f64(rng.choice(_RM_FP_POOL))
                        else:
                            value = f64(rng.choice(_RM_FP_POOL))
                    else:
                        fp = F32
                        if rng.random() < 0.15:
                            value = f32(rng.choice(_RM_FP_POOL[:-1])) + \
                                f32(rng.choice(_RM_FP_POOL[:-1]))
                        else:
                            value = f32(rng.choice(_RM_FP_POOL[:-1]))
                else:
                    size = rng.choice((1, 2, 4, 4, 8, 16))
                    value = bytes(rng.choice(_RM_BYTE_POOL)
                                  for _ in range(size))
                    fp = NONFP
                yield em.load(addr, value, rng.choice(_RM_LOAD_SITES), fp=fp)
                emitted += 1
        while len(frames) > 1:
            yield em.ret(frames.pop())

    return statics, body


SCENARIOS = {
    "adjacent_equal": (_build_adjacent_equal,
                       {"values": (1, 1, 1, 15), "reps": 1}),
    "linear_search": (_build_linear_search,
                      {"n": 1000, "queries": 1000, "probe": None}),
    "hash_collision": (_build_hash_collision,
                       {"chain": 32, "searches": 100}),
    "stencil": (_build_stencil,
                {"nx": 64, "ny": 8, "reps": 1}),
    "forward_copy": (_build_forward_copy,
                     {"len": 64, "reps": 20}),
    "callee_spill": (_build_callee_spill, {"reps": 100}),
    "sparse_zeros": (_build_sparse_zeros,
                     {"len": 1000, "zero_density": 0.9, "layout": "block",
                      "passes": 1, "seed": 0}),
    "approx_drift": (_build_approx_drift,
                     {"len": 4, "reps": 500, "step": 0.005}),
    "random_mixed": (_build_random_mixed,
                     {"seed": 0, "loads": 10_000, "region_bytes": 192,
                      "max_depth": 6, "fp_fraction": 0.25, "churn": 0.02}),
}


def scenario_names():
    return sorted(SCENARIOS)


def _merge_params(name, params):
    if name not in SCENARIOS:
        raise ConfigError(f"unknown scenario {name!r}; "
                          f"choose from {', '.join(scenario_names())}")
    defaults = dict(SCENARIOS[name][1], threads=1)
    merged = dict(defaults)
    for key, value in params.items():
        if key not in defaults:
            raise ConfigError(f"scenario {name} has no parameter {key!r}")
        default = defaults[key]
        try:
            if isinstance(default, tuple):
                if isinstance(value, str):
                    value = tuple(int(tok) for tok in value.split(","))
                else:
                    value = tuple(value)
            elif isinstance(default, int):
                value = int(value)
            elif isinstance(default, float):
                value = float(value)
            elif default is None and isinstance(value, str):
                value = int(value)
        except (TypeError, ValueError):
            raise ConfigError(
                f"bad value {value!r} for parameter {key}") from None
        merged[key] = value
    threads = merged["threads"]
    if not isinstance(threads, int) or threads < 1:
        raise ConfigError(f"threads must be a positive integer, got {threads}")
    return merged


def _interleave(streams, chunk=64):
    live = [iter(s) for s in streams]
    while live:
        still = []
        for it in live:
            n = 0
            for ev in it:
                yield ev
                n += 1
                if n == chunk:
                    still.append(it)
                    break
        live = still


def _in_main(em, body):
    """One thread: the events of `body` inside `main`, at call site 1. A
    chain, not a generator, so no event passes through one more frame;
    `map` builds the return only once the body is spent."""
    return itertools.chain((em.thread_start(), em.call(1)), body(em, em.tid),
                           map(em.ret, (1,)))


def generate(scenario):
    """Events and source map for a scenario; the event sequence streams.

    Identical (name, params) produce identical traces byte for byte.
    """
    params = _merge_params(scenario.name, scenario.params)
    sm = SourceMap()
    statics, body = SCENARIOS[scenario.name][0](params, sm)
    threads = params["threads"]

    prologue = []
    if statics:
        prologue.append(TraceEvent(STATIC_IMAGE, 0, 0,
                                   objects=tuple(statics)))
    streams = [_in_main(_Emitter(tid, 1 if tid == 0 and prologue else 0), body)
               for tid in range(threads)]
    # One stream interleaves to itself: hand it over without a layer.
    stream = streams[0] if threads == 1 else _interleave(streams)
    return itertools.chain(prologue, stream), sm
