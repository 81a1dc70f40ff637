"""Spatial redundancy detection over live data objects.

An object registry maps address ranges to static (image symbol) or dynamic
(allocation) objects; stack addresses belong to no object and are ignored.
Each thread keeps, on each object's descriptor, the value of its previous
load on that object and compares every new load against it. Per-object
counters take all loads that hit the object; per-object context-pair rows
record the redundancy instances.
"""

from bisect import bisect_left, bisect_right

from .errors import MalformedTraceError
from .temporal import PairCounters, _fraction, fp_span_equal
from .trace import NONFP

STATIC = "static"
DYNAMIC = "dynamic"


class ObjectDescriptor:
    """One object's identity and range. `report_key` is (STATIC, name) or
    (DYNAMIC, structural path of its allocation context): objects with
    equal keys share their rows. `entries` holds each detector's state
    for the object: [object row, rid, last (value, ctx, ts) or None]."""

    __slots__ = ("object_id", "report_key", "base", "end", "entries")

    def __init__(self, object_id, report_key, base, size):
        self.object_id = object_id
        self.report_key = report_key
        self.base = base
        self.end = base + size
        self.entries = {}


# An empty range: the lookup memo of a registry that has hit nothing.
_NOWHERE = ObjectDescriptor(0, (STATIC, None), 0, 0)


class ObjectRegistry:
    """Interval map of live objects, applied in global trace order.

    Live ranges stay pairwise disjoint. A freed object leaves nothing
    behind: its rows are keyed by its report key, and `archive` only
    counts the objects freed, as its length.
    """

    def __init__(self):
        self.bases = []         # sorted bases of live objects
        self.by_base = {}       # base -> ObjectDescriptor
        self.archive = range(0)
        self.next_id = 1
        self._last = _NOWHERE   # the object the latest hit found

    def _insert(self, report_key, base, size):
        """The descriptor of a new live object, registered."""
        desc = ObjectDescriptor(self.next_id, report_key, base, size)
        self.next_id += 1
        idx = bisect_right(self.bases, base)
        for other_base in self.bases[max(idx - 1, 0):idx + 1]:
            # A zero-size object still owns its base.
            if other_base < desc.end and base < self.by_base[other_base].end \
                    or other_base == base:
                raise MalformedTraceError(
                    f"allocation [{base:#x}, {desc.end:#x}) overlaps "
                    f"live object at {other_base:#x}")
        self.bases.insert(idx, desc.base)
        self.by_base[desc.base] = desc
        return desc

    def on_alloc(self, base, size, alloc_context):
        return self._insert((DYNAMIC, alloc_context), base, size).object_id

    def on_free(self, base):
        desc = self.by_base.get(base)
        if desc is None or desc.report_key[0] != DYNAMIC:
            raise MalformedTraceError(f"free of {base:#x} matches no live "
                                      "dynamic object")
        if self._last is desc:
            self._last = _NOWHERE
        del self.by_base[base]
        del self.bases[bisect_left(self.bases, base)]
        self.archive = range(len(self.archive) + 1)

    def on_static_image(self, objects):
        for name, base, size in objects:
            self._insert((STATIC, name), base, size)

    def lookup(self, addr):
        """The unique live object containing addr, or None.

        The object of the latest hit is tried first: live ranges are
        disjoint, so when it contains addr it is the answer. A free of
        that object retires the memo, so it never names a freed object.
        """
        last = self._last
        if last.base <= addr < last.end:
            return last
        idx = bisect_right(self.bases, addr)
        if idx == 0:
            return None
        desc = self.by_base[self.bases[idx - 1]]
        if addr < desc.end:
            self._last = desc
            return desc
        return None


class SpatialDetector:
    """Per-thread spatial accumulator over a shared object registry.

    Like TemporalDetector, asks the scope budget once per pair row, and
    returns every load's verdict from `process_load`, as a tuple
    (redundant, object_id): object_id is None for a load that hits no
    object.

    A report key's rid is the position of its row in `object_rows`; a
    pair row is keyed by (rid, old ctx, new ctx), so a redundant load
    hashes three ints, not an allocation path. Its state for an object
    is `desc.entries[self]`, so it lives exactly as long as the object.
    """

    def __init__(self, registry, scope_budget, epsilon):
        self.registry = registry
        self.scope_budget = scope_budget
        self.epsilon = epsilon
        self.object_rows = {}    # report key -> PairCounters
        self.pair_rows = {}      # (rid, old ctx, new ctx) -> PairCounters
        self._rids = {}          # report key -> rid

    def process_load(self, event, ctx, load_ts):
        desc = self.registry.lookup(event.addr)
        if desc is None:
            return False, None

        size = event.size
        value = event.value
        fp_class = event.fp_class

        entry = desc.entries.get(self)
        if entry is None:
            # The two tables gain each new report key together.
            rkey = desc.report_key
            row = self.object_rows.setdefault(rkey, PairCounters())
            rid = self._rids.setdefault(rkey, len(self._rids))
            entry = desc.entries[self] = [row, rid, None]
        obj_row, rid, prev = entry
        entry[2] = (value, ctx, load_ts)
        obj_row.total_instances += 1
        if fp_class == NONFP:
            obj_row.total_bytes_precise += size
        else:
            obj_row.total_bytes_approx += size

        redundant = False
        if prev is not None:
            old_value, old_ctx, old_ts = prev
            # Width-mixed consecutive loads are never redundant (unequal
            # lengths); the comparison rule follows the current load's
            # operand class.
            bit_equal = redundant = old_value == value
            if not redundant and fp_class != NONFP \
                    and len(old_value) == size:
                redundant = fp_span_equal(old_value, value, fp_class,
                                          self.epsilon)
            if redundant:
                obj_row.redundant_instances += 1
                pkey = (rid, old_ctx, ctx)
                pair_row = self.pair_rows.get(pkey)
                if pair_row is None:
                    # A pair row is born on its first redundant instance.
                    pair_row = self.pair_rows[pkey] = PairCounters()
                    self.scope_budget.resolve(pkey, old_ctx, old_ts, ctx,
                                              load_ts)
                pair_row.total_instances += 1
                pair_row.redundant_instances += 1
                if fp_class == NONFP:
                    obj_row.redundant_bytes_precise += size
                    pair_row.total_bytes_precise += size
                    pair_row.redundant_bytes_precise += size
                else:
                    obj_row.redundant_bytes_approx += size
                    pair_row.total_bytes_approx += size
                    pair_row.redundant_bytes_approx += size
                    if bit_equal:
                        obj_row.fp_exact_instances += 1
                        pair_row.fp_exact_instances += 1
        return redundant, desc.object_id


def object_fractions(object_rows):
    """Per-object redundancy fractions, by the keys of `object_rows`:
    each object's redundant bytes over the loaded bytes summed across all
    objects, per class."""
    rows = object_rows.values()
    total_precise = sum(r.total_bytes_precise for r in rows)
    total_approx = sum(r.total_bytes_approx for r in rows)
    return {key: (_fraction(r.redundant_bytes_precise, total_precise),
                  _fraction(r.redundant_bytes_approx, total_approx))
            for key, r in object_rows.items()}
