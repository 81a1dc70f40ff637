"""Two-level shadow memory: the value, context and timestamp of the latest
load of each application byte.

The first level maps a page index to its page; a page is made on the
first load that touches it, so memory grows with the bytes touched, not
with the address range. A page is a list [values, stamps, mask]: the
PAGE_SIZE value bytes (a `bytearray`); the context handles and
timestamps in an `array('Q')`; and an int whose bit i is set once a load
has touched byte i (FULL when all have).

The stamps start as one (ctx, ts) pair that stands for every loaded
byte, since one load wrote them all. A later load whose span covers
every loaded byte overwrites the pair. A load that leaves a loaded byte
outside its span first expands the pair to 2 * PAGE_SIZE items, each
byte's (ctx, ts) side by side, so a load writes its span's stamps as one
repeated run. A pair page's mask lies inside its last load's span, which
is at most max(trace.LOAD_SIZES) < PAGE_SIZE bytes, so a pair page is
never FULL and the FULL path reads per-byte stamps only.

A 64-byte page written by one load takes about 0.4 KiB: 64 bytes of
values, 16 of stamps, and the headers of the list, its items and its
entry in the table. Expanded, its 1,024 bytes of stamps bring it to
about 1.4 KiB.
"""

from array import array
from struct import Struct

# 64-byte pages: a scattered load costs about 0.4 KiB of shadow memory, a
# page loaded at several offsets about 1.4 KiB (4.8 KiB with 256-byte
# pages, 18 KiB with 1 KiB pages), and dense loads probe as fast as with
# larger pages. A page holds at least max(trace.LOAD_SIZES) bytes, so a
# load spans at most two pages.
PAGE_BITS = 6
PAGE_SIZE = 1 << PAGE_BITS
PAGE_MASK = PAGE_SIZE - 1
FULL = (1 << PAGE_SIZE) - 1

# By span length: writes that many bytes into a page's values at an
# offset, cheaper than a bytearray slice assignment.
_PACK = [Struct(f"{n}s").pack_into for n in range(PAGE_SIZE + 1)]


class ShadowTable:
    """Per-thread shadow memory; confined to the worker for its stream."""

    def __init__(self):
        self.pages = {}     # page index -> [values, stamps, mask]
        self._run = array("Q", (0, 0))     # a load's (ctx, ts), reused

    def page_count(self):
        return len(self.pages)

    def probe_update(self, addr, size, value, ctx, ts):
        """Fetch prior state for a load and install the new state in one pass.

        Returns (old_bytes, prior_ctx, prior_ts): old_bytes is None unless
        every byte of the span was loaded before; prior_ctx/prior_ts come
        from the byte at the start address, or are None when no load has
        touched it.
        """
        index = addr >> PAGE_BITS
        off = addr & PAGE_MASK
        end = off + size
        if end <= PAGE_SIZE:
            return self._swap(index, off, end, value, ctx, ts)
        # The span crosses into the next page: old bytes only when both
        # parts were loaded before, prior state from the first part.
        cut = PAGE_SIZE - off
        old, prior_ctx, prior_ts = self._swap(index, off, PAGE_SIZE,
                                              value[:cut], ctx, ts)
        tail = self._swap(index + 1, 0, end - PAGE_SIZE, value[cut:], ctx,
                          ts)[0]
        if old is None or tail is None:
            return None, prior_ctx, prior_ts
        return old + tail, prior_ctx, prior_ts

    def _swap(self, index, off, end, value, ctx, ts):
        """probe_update within one page: bytes [off, end) of page `index`."""
        n = end - off
        run = self._run
        run[0] = ctx
        run[1] = ts
        page = self.pages.get(index)
        if page is None:
            self.pages[index] = page = [bytearray(PAGE_SIZE), run[:], 0]
        vals, stamps, mask = page
        at = off + off
        # Never a pair page: its mask lies inside one span, shorter than a
        # page.
        if mask == FULL:
            old = vals[off:end]
            prior_ctx = stamps[at]
            prior_ts = stamps[at + 1]
        else:
            span = ((1 << n) - 1) << off
            page[2] = mask | span
            # A pair page's one (ctx, ts) stands for every loaded byte.
            pair = len(stamps) == 2
            if mask >> off & 1:
                old = vals[off:end] if mask & span == span else None
                prior_ctx = stamps[0 if pair else at]
                prior_ts = stamps[1 if pair else at + 1]
            else:
                old = prior_ctx = prior_ts = None
            if pair:
                if not mask & ~span:
                    # Every loaded byte is in this span: the pair moves on.
                    _PACK[n](vals, off, value)
                    stamps[0] = ctx
                    stamps[1] = ts
                    return old, prior_ctx, prior_ts
                page[1] = stamps = stamps * PAGE_SIZE
        _PACK[n](vals, off, value)
        stamps[at:end + end] = run * n
        return old, prior_ctx, prior_ts
