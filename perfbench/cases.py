"""The benchmark's workloads: each turns a seed into a trace and a set of
`redload analyze` flags.

Three workloads come from `redload.workloads` scenarios; `scatter_pages`
has its own generator here because no scenario touches hundreds of shadow
pages. Every `build` function is deterministic in (seed, toy): the same
pair gives the same events byte for byte. `toy` shrinks each workload for
the self-test.
"""

import random
import struct
from dataclasses import dataclass

from redload import workloads
from redload.trace import (CALL, LOAD, LOOPHEAD, NONFP, RETURN,
                           STATIC_IMAGE, THREAD_START, SourceMap, TraceEvent)

# scan_sampled keeps the default 1:99 duty cycle at 1/1000 scale, so the
# trace spans several monitoring windows.
SCAN_WINDOW_ENABLE = 1_000
SCAN_WINDOW_DISABLE = 99_000

# Every stencil shape has the same number of cells, so the seed changes
# the input without changing the amount of work.
STENCIL_SHAPES = ((128, 64), (64, 128), (256, 32), (32, 256))

SCATTER_BASE = 0x10000000
SCATTER_VALUES = (0, 0, 0, 1, 7, 255)


@dataclass(frozen=True)
class Workload:
    name: str
    analyze_args: tuple
    build: object           # (seed, toy) -> (event iterator, SourceMap)
    sampled: bool = False   # True when analyze_args enable sampling


def _scan_sampled(seed, toy):
    n, queries = (60, 8) if toy else (2500, 60)
    probe = n - 1 - seed % 16
    return workloads.generate(workloads.Scenario(
        "linear_search", {"n": n, "queries": queries, "probe": probe}))


def _stencil_full(seed, toy):
    nx, ny = STENCIL_SHAPES[seed % len(STENCIL_SHAPES)]
    if toy:
        nx, ny = nx // 16, ny // 16
    return workloads.generate(workloads.Scenario(
        "stencil", {"nx": nx, "ny": ny, "reps": 1 if toy else 3}))


def _mixed_rows(seed, toy):
    # Call depth sets the length of every context path in the profile; a
    # cap of 4 (default 6) halves how much profile size varies by seed.
    return workloads.generate(workloads.Scenario(
        "random_mixed", {"seed": seed, "threads": 2, "max_depth": 4,
                         "loads": 200 if toy else 3000}))


def _scatter_pages(seed, toy):
    """One load site reads 8-byte values at distinct random offsets of a
    32 MiB static object, the same offsets in both passes: the second
    pass re-reads every value the first one read."""
    object_size = (1 << 20) if toy else (32 << 20)
    loads_per_pass = 256 if toy else 16_384
    passes = 2
    rng = random.Random(seed)
    slots = rng.sample(range(object_size // 8), loads_per_pass)
    values = [struct.pack("<Q", rng.choice(SCATTER_VALUES)) for _ in slots]

    sm = SourceMap()
    sm.add_site(1, "main", "scatter.c", 1)
    sm.add_site(2, "main", "scatter.c", 4)
    sm.add_loop(101, "scatter.c", 2)
    sm.add_loop(102, "scatter.c", 3)

    def events():
        ins = 0

        def nxt():
            nonlocal ins
            ins += 1
            return ins

        yield TraceEvent(STATIC_IMAGE, 0, 0,
                         objects=(("heap", SCATTER_BASE, object_size),))
        yield TraceEvent(THREAD_START, 0, nxt())
        yield TraceEvent(CALL, 0, nxt(), site_id=1)
        for _ in range(passes):
            yield TraceEvent(LOOPHEAD, 0, nxt(), loop_id=101, site_id=1)
            for slot, value in zip(slots, values):
                yield TraceEvent(LOOPHEAD, 0, nxt(), loop_id=102, site_id=1)
                yield TraceEvent(LOAD, 0, nxt(), addr=SCATTER_BASE + 8 * slot,
                                 size=8, value=value, fp_class=NONFP,
                                 site_id=2)
        yield TraceEvent(RETURN, 0, nxt(), site_id=1)

    return events(), sm


WORKLOADS = {w.name: w for w in (
    Workload("scan_sampled",
             ("--window-enable", str(SCAN_WINDOW_ENABLE),
              "--window-disable", str(SCAN_WINDOW_DISABLE)),
             _scan_sampled, sampled=True),
    Workload("stencil_full", ("--no-sampling",), _stencil_full),
    Workload("mixed_rows", ("--no-sampling",), _mixed_rows),
    Workload("scatter_pages", ("--no-sampling",), _scatter_pages),
)}


def monitored_events(workload, events):
    """The events the engine acts on: unmonitored loads of a sampled
    workload touch no analysis state, so the oracle must not see them.
    The window rule is restated here rather than taken from the engine."""
    if not workload.sampled:
        yield from events
        return
    period = SCAN_WINDOW_ENABLE + SCAN_WINDOW_DISABLE
    for ev in events:
        if ev.kind != LOAD or ev.ins_index % period < SCAN_WINDOW_ENABLE:
            yield ev
