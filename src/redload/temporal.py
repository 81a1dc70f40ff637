"""Temporal redundancy detection over shadow memory.

A load is temporally redundant when it returns the same value as the
previous load of the same location. Non-FP loads must match on every byte;
F32/F64 loads are compared element-wise and may match approximately within
a relative epsilon. Byte and instance counters accumulate per context pair
and program-wide, partitioned by operand class: non-FP loads feed the
precise counters, FP loads the approximate ones.
"""

import math
import struct

from .errors import RedloadError
from .trace import F32, F64, NONFP, Record

DEFAULT_EPSILON = 0.01


class PairCounters(Record):
    """Counters of one accumulator row (context pair or data object)."""

    __slots__ = ("redundant_bytes_precise", "redundant_bytes_approx",
                 "total_bytes_precise", "total_bytes_approx",
                 "redundant_instances", "total_instances",
                 "fp_exact_instances")

    def __init__(self, redundant_bytes_precise=0, redundant_bytes_approx=0,
                 total_bytes_precise=0, total_bytes_approx=0,
                 redundant_instances=0, total_instances=0,
                 fp_exact_instances=0):
        self.redundant_bytes_precise = redundant_bytes_precise
        self.redundant_bytes_approx = redundant_bytes_approx
        self.total_bytes_precise = total_bytes_precise
        self.total_bytes_approx = total_bytes_approx
        self.redundant_instances = redundant_instances
        self.total_instances = total_instances
        self.fp_exact_instances = fp_exact_instances

    def add(self, other):
        self.redundant_bytes_precise += other.redundant_bytes_precise
        self.redundant_bytes_approx += other.redundant_bytes_approx
        self.total_bytes_precise += other.total_bytes_precise
        self.total_bytes_approx += other.total_bytes_approx
        self.redundant_instances += other.redundant_instances
        self.total_instances += other.total_instances
        self.fp_exact_instances += other.fp_exact_instances

    def copy(self):
        return PairCounters(*self._values)


class ProgramTotals(Record):
    __slots__ = ("total_nonfp_bytes", "total_fp_bytes",
                 "redundant_nonfp_bytes", "redundant_fp_bytes")

    def __init__(self, total_nonfp_bytes=0, total_fp_bytes=0,
                 redundant_nonfp_bytes=0, redundant_fp_bytes=0):
        self.total_nonfp_bytes = total_nonfp_bytes
        self.total_fp_bytes = total_fp_bytes
        self.redundant_nonfp_bytes = redundant_nonfp_bytes
        self.redundant_fp_bytes = redundant_fp_bytes

    def add(self, other):
        self.total_nonfp_bytes += other.total_nonfp_bytes
        self.total_fp_bytes += other.total_fp_bytes
        self.redundant_nonfp_bytes += other.redundant_nonfp_bytes
        self.redundant_fp_bytes += other.redundant_fp_bytes


# Per FP class: the width of one element and the unpack of two.
_PAIRS = {F32: (4, struct.Struct("<ff").unpack),
          F64: (8, struct.Struct("<dd").unpack)}


def fp_span_equal(old, new, fp_class, epsilon):
    """Element-wise approximate comparison of two equal-length byte spans
    of F32 or F64 elements. Elements match when bit-identical, or when
    both are finite and within a relative epsilon of the larger magnitude;
    NaN and infinities only ever match their exact bit patterns."""
    if old == new:
        return True
    width, unpack = _PAIRS[fp_class]
    if len(new) > width:
        return all(fp_span_equal(old[i:i + width], new[i:i + width],
                                 fp_class, epsilon)
                   for i in range(0, len(new), width))
    # One element, not bit-identical: NaN or Inf on either side never
    # matches.
    a, b = unpack(old + new)
    return (math.isfinite(a) and math.isfinite(b)
            and abs(a - b) <= epsilon * max(abs(a), abs(b)))


class TemporalDetector:
    """Per-thread accumulator of temporal redundancy.

    Rows are keyed by (prior ctx handle or None, current ctx handle); the
    scope resolved for a pair attaches to its row at canonicalization time
    through the shared ScopeBudget. A row's key is its budget key, and the
    budget is asked once, at the row's first redundant instance.

    `process_load` returns every load's verdict as a tuple
    (redundant, approx_class, prior_ctx, prior_ts): approx_class is True
    for FP loads, and the prior context and timestamp are those of the
    load that last touched the start byte, or None when none did.
    """

    def __init__(self, shadow, scope_budget, epsilon=DEFAULT_EPSILON):
        self.shadow = shadow
        self.scope_budget = scope_budget
        self.epsilon = epsilon
        self.rows = {}              # (old handle | None, new handle) -> PairCounters

    @property
    def totals(self):
        """Program-wide ProgramTotals: every load lands in exactly one
        row, so they are the sums of the rows' byte counters."""
        totals = ProgramTotals()
        for row in self.rows.values():
            totals.total_nonfp_bytes += row.total_bytes_precise
            totals.total_fp_bytes += row.total_bytes_approx
            totals.redundant_nonfp_bytes += row.redundant_bytes_precise
            totals.redundant_fp_bytes += row.redundant_bytes_approx
        return totals

    def process_load(self, event, ctx, load_ts):
        size = event.size
        value = event.value
        fp_class = event.fp_class
        old, prior_ctx, prior_ts = self.shadow.probe_update(
            event.addr, size, value, ctx, load_ts)

        key = (prior_ctx, ctx)
        row = self.rows.get(key)
        if row is None:
            row = self.rows[key] = PairCounters()
        row.total_instances += 1
        # A partly unloaded span (old is None) equals no value.
        redundant = old == value
        approx_class = fp_class != NONFP
        if not approx_class:
            row.total_bytes_precise += size
            if redundant:
                row.redundant_bytes_precise += size
        else:
            row.total_bytes_approx += size
            if redundant:
                row.fp_exact_instances += 1
            elif old is not None:
                redundant = fp_span_equal(old, value, fp_class, self.epsilon)
            if redundant:
                row.redundant_bytes_approx += size
        if redundant:
            row.redundant_instances += 1
            if row.redundant_instances == 1:
                self.scope_budget.resolve(key, prior_ctx, prior_ts, ctx,
                                          load_ts)
        return redundant, approx_class, prior_ctx, prior_ts


def _fraction(redundant, total):
    """(value, defined); zero denominators report 0 with defined=False.
    A loaded profile's counts are checked alone, so a ratio past the float
    range can occur; it raises RedloadError naming both counts."""
    if total == 0:
        return 0.0, False
    try:
        return redundant / total, True
    except OverflowError:
        raise RedloadError(f"{redundant} redundant bytes of {total} total "
                           "bytes is a fraction past the float range"
                           ) from None


def program_fraction(totals):
    """Whole-program redundancy fractions (precise, approx), each a
    (value, defined) pair."""
    return (_fraction(totals.redundant_nonfp_bytes, totals.total_nonfp_bytes),
            _fraction(totals.redundant_fp_bytes, totals.total_fp_bytes))


def pair_fraction(record, totals):
    """Per-pair redundancy fractions over the program-wide denominators."""
    return (_fraction(record.redundant_bytes_precise,
                      totals.total_nonfp_bytes),
            _fraction(record.redundant_bytes_approx, totals.total_fp_bytes))
