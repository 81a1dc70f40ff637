"""Small builders for hand-written event sequences used across tests."""

import struct

from redload.trace import (ALLOC, CALL, FREE, LOAD, LOOPHEAD, NONFP,
                           RETURN, STATIC_IMAGE, THREAD_START, SourceMap,
                           TraceEvent)


def u32(v):
    return struct.pack("<I", v & 0xFFFFFFFF)


def f64(x):
    return struct.pack("<d", x)


def load_event(thread_id, ins_index, addr, value, fp_class=NONFP, site_id=0):
    return TraceEvent(LOAD, thread_id, ins_index, addr=addr, size=len(value),
                      value=bytes(value), fp_class=fp_class, site_id=site_id)


def is_monitored(ins_index, cfg):
    """The sampling rule, stated apart from the code under test: with
    sampling on, an index is monitored in the first window_enable indices
    of each window_enable + window_disable, counted from 0."""
    return (not cfg.enabled
            or ins_index % (cfg.window_enable + cfg.window_disable)
            < cfg.window_enable)


class Build:
    """Appends events for one thread with auto-incrementing ins_index."""

    def __init__(self, tid=0, source_map=None):
        self.tid = tid
        self.ins = 0
        self.events = []
        self.sm = source_map if source_map is not None else SourceMap()

    def _add(self, ev):
        self.events.append(ev)
        return ev

    def thread_start(self):
        ev = TraceEvent(THREAD_START, self.tid, self.ins)
        self.ins += 1
        return self._add(ev)

    def call(self, site):
        ev = TraceEvent(CALL, self.tid, self.ins, site_id=site)
        self.ins += 1
        return self._add(ev)

    def ret(self, site=0):
        ev = TraceEvent(RETURN, self.tid, self.ins, site_id=site)
        self.ins += 1
        return self._add(ev)

    def loop(self, loop_id, site=0):
        ev = TraceEvent(LOOPHEAD, self.tid, self.ins, loop_id=loop_id,
                        site_id=site)
        self.ins += 1
        return self._add(ev)

    def load(self, addr, value, site=0, fp=NONFP):
        ev = TraceEvent(LOAD, self.tid, self.ins, addr=addr, size=len(value),
                        value=bytes(value), fp_class=fp, site_id=site)
        self.ins += 1
        return self._add(ev)

    def alloc(self, base, size):
        ev = TraceEvent(ALLOC, self.tid, self.ins, base=base, alloc_size=size)
        self.ins += 1
        return self._add(ev)

    def free(self, base):
        ev = TraceEvent(FREE, self.tid, self.ins, base=base)
        self.ins += 1
        return self._add(ev)

    def static_image(self, objects):
        ev = TraceEvent(STATIC_IMAGE, self.tid, self.ins,
                        objects=tuple(objects))
        self.ins += 1
        return self._add(ev)


def walkthrough_source_map():
    """Source map for the two nested-loop walkthrough traces."""
    sm = SourceMap()
    sm.add_site(1, "main", "walk.c", 1)
    sm.add_site(2, "main", "walk.c", 6)
    sm.add_loop(11, "walk.c", 3)    # outer loop
    sm.add_loop(12, "walk.c", 4)    # inner loop
    return sm


def inner_scope_trace():
    """Nested loops where the reload happens across inner-loop iterations:
    the invariant address is re-read on the second trip of the inner loop.
    Timestamps: loop1 pass=1, loop2 pass=2, load=3, loop2 pass=4, load=5.
    """
    b = Build(source_map=walkthrough_source_map())
    b.thread_start()
    b.call(1)
    b.loop(11, 1)
    b.loop(12, 1)
    b.load(0x1000, u32(7), 2)
    b.loop(12, 1)
    b.load(0x1000, u32(7), 2)
    b.ret(1)
    return b


def outer_scope_trace():
    """Nested loops where the reload happens across outer-loop trips: the
    inner loop scans three addresses, then the outer loop restarts the scan.
    Timestamps: loop1=1, loop2=2, load=3, loop2=4, load=5, loop2=6, load=7,
    loop1=8, loop2=9, load=10.
    """
    b = Build(source_map=walkthrough_source_map())
    b.thread_start()
    b.call(1)
    b.loop(11, 1)
    for k in range(3):
        b.loop(12, 1)
        b.load(0x1000 + 4 * k, u32(40 + k), 2)
    b.loop(11, 1)
    b.loop(12, 1)
    b.load(0x1000, u32(40), 2)
    b.ret(1)
    return b


# Parameters that keep every workload scenario to a fraction of a second.
SMALL_SCENARIOS = {
    "adjacent_equal": {},
    "linear_search": {"n": 40, "queries": 12},
    "hash_collision": {"chain": 8, "searches": 10},
    "stencil": {"nx": 16, "ny": 4},
    "forward_copy": {"len": 16, "reps": 4},
    "callee_spill": {"reps": 10},
    "sparse_zeros": {"len": 120},
    "approx_drift": {"len": 2, "reps": 40},
    "random_mixed": {"loads": 1200, "seed": 3},
}
