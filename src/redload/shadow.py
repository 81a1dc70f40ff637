"""Two-level shadow memory: the value, context and timestamp of the latest
load of each application byte.

The first level maps a page index to its page; a page is made on the
first load that touches it, so memory grows with the bytes touched, not
with the address range. A page is a tuple of PAGE_SIZE value bytes (a
`bytearray`) and PAGE_SIZE context handles and timestamps (each an
`array('Q')`). A timestamp of 0 marks a byte that no load has touched.
"""

from array import array

# 64-byte pages: a scattered load costs about 1.5 KiB of shadow memory
# (4.8 KiB with 256-byte pages, 18 KiB with 1 KiB pages) and dense loads
# probe as fast as with larger pages. A page holds at least
# max(trace.LOAD_SIZES) bytes, so a load spans at most two pages.
PAGE_BITS = 6
PAGE_SIZE = 1 << PAGE_BITS
PAGE_MASK = PAGE_SIZE - 1

_ZEROS = bytes(8 * PAGE_SIZE)


class ShadowTable:
    """Per-thread shadow memory; confined to the worker for its stream."""

    def __init__(self):
        self.pages = {}     # page index -> (values, ctx handles, timestamps)
        # One-element scratch array: repeated, it fills a span's context
        # handles or timestamps, cheaper than building a new array per load.
        self._run = array("Q", (0,))

    def page_count(self):
        return len(self.pages)

    def probe_update(self, addr, size, value, ctx, ts):
        """Fetch prior state for a load and install the new state in one pass.

        Returns (old_bytes, prior_ctx, prior_ts): old_bytes is None unless
        every byte of the span was loaded before; prior_ctx/prior_ts come
        from the byte at the start address, or are None when no load has
        touched it. `ts` must be at least 1, as the engine's timestamps
        are: a zero timestamp means "never loaded".
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
        if old is not None and tail is not None:
            old += tail
        else:
            old = None
        return old, prior_ctx, prior_ts

    def _swap(self, index, off, end, value, ctx, ts):
        """probe_update within one page: bytes [off, end) of page `index`."""
        page = self.pages.get(index)
        if page is None:
            self.pages[index] = page = (bytearray(PAGE_SIZE),
                                        array("Q", _ZEROS),
                                        array("Q", _ZEROS))
        vals, ctxs, tss = page
        prior_ts = tss[off]
        if prior_ts:
            prior_ctx = ctxs[off]
            old = None if 0 in tss[off:end] else bytes(vals[off:end])
        else:
            old = prior_ctx = prior_ts = None
        n = end - off
        vals[off:end] = value
        run = self._run
        run[0] = ctx
        ctxs[off:end] = run * n
        run[0] = ts
        tss[off:end] = run * n
        return old, prior_ctx, prior_ts
