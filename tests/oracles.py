"""Independent brute-force oracles the engine is checked against.

Everything here re-derives behavior from the definitions: contexts come
from a from-scratch replay of calls/returns/loop headers, temporal state
is a flat per-byte dict, spatial state a plain list of live ranges, and
the redundancy scope of a pair is found by searching the full history of
loop-header passes rather than per-node latest-pass snapshots.
"""

import math
import struct
from bisect import bisect_right

from redload.errors import ConfigError
from redload.profiles import Profile
from redload.temporal import PairCounters, ProgramTotals
from redload.trace import (ALLOC, CALL, F32, FREE, LOAD, LOOPHEAD, NONFP,
                           RETURN, STATIC_IMAGE)
from redload.workloads import generate

# The most loads scenario_analysis replays before it gives up.
MAX_ORACLE_LOADS = 10 ** 6


class ReplayThread:
    """Context replay with the same loop conventions as the engine, built
    on path tuples instead of an interned tree."""

    def __init__(self):
        self.path = []          # ("function", site) / ("loop", loop_id)
        self.ts = 0
        self.passes = {}        # loop path tuple -> [pass timestamps]

    def call(self, site):
        self.path.append(("function", site))

    def ret(self):
        while self.path and self.path[-1][0] == "loop":
            self.path.pop()
        assert self.path and self.path[-1][0] == "function"
        self.path.pop()

    def loop_head(self, loop_id):
        i = len(self.path)
        while i > 0 and self.path[i - 1][0] == "loop":
            if self.path[i - 1][1] == loop_id:
                del self.path[i:]
                break
            i -= 1
        else:
            self.path.append(("loop", loop_id))
        self.ts += 1
        self.passes.setdefault(tuple(self.path), []).append(self.ts)

    def load_context(self, site):
        self.ts += 1
        return tuple(self.path) + (("load", site),), self.ts

    def current_path(self):
        return tuple(self.path)

    def scope_of(self, ctx_old, t_old, ctx_new, t_new):
        """Outermost loop on the common prefix with a header pass strictly
        between the two load timestamps."""
        common = []
        for a, b in zip(ctx_old, ctx_new):
            if a != b:
                break
            common.append(a)
        for i, entry in enumerate(common):
            if entry[0] != "loop":
                continue
            node = tuple(common[:i + 1])
            # Pass timestamps are appended in increasing order.
            passes = self.passes.get(node, ())
            first_after = bisect_right(passes, t_old)
            if first_after < len(passes) and passes[first_after] < t_new:
                return node
        return None


def canonical(path, source_map, frames):
    """Structural replay path -> canonical frame tuple. `frames` holds the
    frame of each (kind, ident) step resolved so far."""
    out = []
    for step in path:
        frame = frames.get(step)
        if frame is None:
            kind, ident = step
            if kind == "loop":
                file, line = source_map.loops[ident]
                frame = ("loop", "", file, line)
            else:
                function, file, line = source_map.sites[ident]
                frame = (kind, function, file, line)
            frames[step] = frame
        out.append(frame)
    return tuple(out)


def _fp_equal(old, new, fp_class, epsilon):
    width = 4 if fp_class == F32 else 8
    fmt = "<f" if fp_class == F32 else "<d"
    for off in range(0, len(new), width):
        ob, nb = old[off:off + width], new[off:off + width]
        if ob == nb:
            continue
        a = struct.unpack(fmt, ob)[0]
        b = struct.unpack(fmt, nb)[0]
        if not (math.isfinite(a) and math.isfinite(b)):
            return False
        if abs(a - b) > epsilon * max(abs(a), abs(b)):
            return False
    return True


class ExpectedAnalysis:
    """Full mirror of one analysis run, computed the brute-force way."""

    def __init__(self):
        self.profile = Profile()
        self.temporal_verdicts = []   # (tid, redundant, approx)
        self.spatial_verdicts = []    # (tid, object ordinal|None, redundant)
        self.temporal_scopes = {}     # (old, new) canonical -> scope
        self.spatial_scopes = {}      # (objkey, old, new) -> scope


def expected_analysis(events, source_map, epsilon=0.01):
    """Replay a full-monitoring analysis over `events` independently of the
    engine and return the expected canonical profile plus verdict streams.
    """
    threads = {}
    val_maps = {}        # tid -> {byte addr: value}
    meta_maps = {}       # tid -> {byte addr: (ctx id, ts)}
    live = []            # (base, end, ordinal, report key)
    ordinal = 0
    priors = {}          # (tid, ordinal) -> (value, fp, ctx id, ts)
    t_rows = {}          # (tid, old id|None, new id) -> PairCounters
    t_scope = {}         # (tid, old id|None, new id) -> scope id | None
    obj_rows = {}        # report key -> PairCounters
    s_rows = {}          # (tid, report key, old id, new id) -> PairCounters
    s_scope = {}
    totals = ProgramTotals()
    out = ExpectedAnalysis()
    # Context paths are interned to dense ids for this call only, so row
    # keys hash small ints; each id is resolved to frames once, at the end.
    path_ids = {}        # context path -> id
    paths = []           # id -> context path
    resolved = {}        # id -> canonical frame tuple
    frames = {}          # (kind, ident) step -> canonical frame

    def path_id(path):
        if path is None:
            return None
        pid = path_ids.get(path)
        if pid is None:
            pid = path_ids[path] = len(paths)
            paths.append(path)
        return pid

    def resolve(pid):
        if pid is None:
            return None
        path = resolved.get(pid)
        if path is None:
            path = resolved[pid] = canonical(paths[pid], source_map, frames)
        return path

    def scope_id(t, old, t_old, new, t_new):
        return path_id(t.scope_of(paths[old], t_old, paths[new], t_new))

    for ev in events:
        tid = ev.thread_id
        t = threads.get(tid)
        if t is None:
            t = threads[tid] = ReplayThread()
            val_maps[tid] = {}
            meta_maps[tid] = {}
        kind = ev.kind
        if kind == CALL:
            t.call(ev.site_id)
        elif kind == RETURN:
            t.ret()
        elif kind == LOOPHEAD:
            t.loop_head(ev.loop_id)
        elif kind == STATIC_IMAGE:
            for name, base, size in ev.objects:
                live.append((base, base + size, ordinal, ("static", name)))
                ordinal += 1
        elif kind == ALLOC:
            key = ("dynamic", path_id(t.current_path()))
            live.append((ev.base, ev.base + ev.alloc_size, ordinal, key))
            ordinal += 1
        elif kind == FREE:
            live[:] = [row for row in live if row[0] != ev.base]
        elif kind == LOAD:
            addr, size, value = ev.addr, ev.size, ev.value
            fp_class = ev.fp_class
            approx = fp_class != NONFP
            ctx_path, ts = t.load_context(ev.site_id)
            ctx = path_id(ctx_path)
            vmap = val_maps[tid]
            mmap = meta_maps[tid]

            old = bytearray(size)
            for i in range(size):
                byte = vmap.get(addr + i)
                if byte is None:
                    old = None
                    break
                old[i] = byte
            prior = mmap.get(addr)
            bit_eq = old == value
            if old is None:
                redundant = False
            elif not approx:
                redundant = bit_eq
            else:
                redundant = bit_eq or _fp_equal(old, value, fp_class, epsilon)

            out.temporal_verdicts.append((tid, redundant, approx))
            key = (tid, prior[0] if prior else None, ctx)
            row = t_rows.get(key)
            if row is None:
                row = t_rows[key] = PairCounters()
            row.total_instances += 1
            if approx:
                totals.total_fp_bytes += size
                row.total_bytes_approx += size
            else:
                totals.total_nonfp_bytes += size
                row.total_bytes_precise += size
            if redundant:
                row.redundant_instances += 1
                if approx:
                    totals.redundant_fp_bytes += size
                    row.redundant_bytes_approx += size
                    if bit_eq:
                        row.fp_exact_instances += 1
                else:
                    totals.redundant_nonfp_bytes += size
                    row.redundant_bytes_precise += size
                if key not in t_scope:
                    t_scope[key] = scope_id(t, prior[0], prior[1], ctx, ts)
            stamp = (ctx, ts)
            for i in range(size):
                vmap[addr + i] = value[i]
                mmap[addr + i] = stamp
            mmap[addr] = stamp

            hit = None
            for base, end, obj_ord, rkey in live:
                if base <= addr < end:
                    hit = (obj_ord, rkey)
                    break
            if hit is None:
                out.spatial_verdicts.append((tid, None, False))
                continue
            obj_ord, rkey = hit
            orow = obj_rows.get(rkey)
            if orow is None:
                orow = obj_rows[rkey] = PairCounters()
            orow.total_instances += 1
            if approx:
                orow.total_bytes_approx += size
            else:
                orow.total_bytes_precise += size
            prev = priors.get((tid, obj_ord))
            s_red = False
            s_bit = False
            if prev is not None and len(prev[0]) == size:
                s_bit = prev[0] == value
                if not approx:
                    s_red = s_bit
                else:
                    s_red = s_bit or _fp_equal(prev[0], value, fp_class,
                                               epsilon)
            if s_red:
                orow.redundant_instances += 1
                skey = (tid, rkey, prev[2], ctx)
                srow = s_rows.get(skey)
                if srow is None:
                    srow = s_rows[skey] = PairCounters()
                srow.total_instances += 1
                srow.redundant_instances += 1
                if approx:
                    orow.redundant_bytes_approx += size
                    srow.total_bytes_approx += size
                    srow.redundant_bytes_approx += size
                    if s_bit:
                        orow.fp_exact_instances += 1
                        srow.fp_exact_instances += 1
                else:
                    orow.redundant_bytes_precise += size
                    srow.total_bytes_precise += size
                    srow.redundant_bytes_precise += size
                if skey not in s_scope:
                    s_scope[skey] = scope_id(t, prev[2], prev[3], ctx, ts)
            priors[(tid, obj_ord)] = (value, fp_class, ctx, ts)
            out.spatial_verdicts.append((tid, obj_ord, s_red))

    profile = out.profile
    profile.totals = totals
    profile.thread_count = len(threads)

    def object_key(rkey):
        kind, ident = rkey
        if kind == "static":
            return ("static", ident)
        return ("dynamic", resolve(ident))

    # The row counters belong to this call, so the profile takes them over;
    # rows of different threads with equal canonical keys add up.
    for (tid, old, new), counters in t_rows.items():
        scope = t_scope.get((tid, old, new))
        key = (resolve(old), resolve(new), resolve(scope))
        row = profile.temporal_pairs.setdefault(key, counters)
        if row is not counters:
            row.add(counters)
        out.temporal_scopes[key[:2]] = key[2]

    for rkey, counters in obj_rows.items():
        key = object_key(rkey)
        row = profile.objects.setdefault(key, counters)
        if row is not counters:
            row.add(counters)

    for (tid, rkey, old, new), counters in s_rows.items():
        scope = s_scope.get((tid, rkey, old, new))
        key = (object_key(rkey), resolve(old), resolve(new), resolve(scope))
        row = profile.spatial_pairs.setdefault(key, counters)
        if row is not counters:
            row.add(counters)
        out.spatial_scopes[key[:3]] = key[3]

    return out


def scenario_analysis(scenario, epsilon=0.01):
    """expected_analysis of a generated scenario; a scenario of more than
    MAX_ORACLE_LOADS loads is a ConfigError."""
    events, source_map = generate(scenario)

    def bounded():
        loads = 0
        for ev in events:
            if ev.kind == LOAD:
                loads += 1
                if loads > MAX_ORACLE_LOADS:
                    raise ConfigError(f"scenario exceeds oracle limit of "
                                      f"{MAX_ORACLE_LOADS} loads")
            yield ev

    return expected_analysis(bounded(), source_map, epsilon)


def instance_fraction(rows):
    """Redundant over total instances of counter rows; 0.0 for none."""
    total = sum(row.total_instances for row in rows.values())
    redundant = sum(row.redundant_instances for row in rows.values())
    return redundant / total if total else 0.0


def assert_profiles_equal(expected, actual):
    """Structural equality on totals, rows and thread count; meta ignored."""
    assert expected.totals == actual.totals
    assert expected.thread_count == actual.thread_count
    assert expected.temporal_pairs == actual.temporal_pairs
    assert expected.objects == actual.objects
    assert expected.spatial_pairs == actual.spatial_pairs
