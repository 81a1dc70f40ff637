"""End-to-end trace analysis: demultiplex threads, run detection, merge.

Each thread of the trace gets its own context tree, shadow memory and
detectors; object lifecycle events apply globally in file order. Only load
detection is gated by the sampler: calls, returns and loop headers always
maintain the context trees so contexts stay correct when a monitoring
window reopens. A binary trace's decoder drops unmonitored loads before
building them, and a loop head that repeats the last yielded one, which
the context tree would not tick; the dropped records still count in the
event positions errors name.
"""

from . import trace as tr
from .cct import ContextTree
from .errors import ConfigError, MalformedTraceError, TraceDecodeError
from .profiles import canonicalize, merge_all
from .sampling import SamplingConfig, monitoring_window
from .scope import ScopeBudget
from .shadow import ShadowTable
from .spatial import ObjectRegistry, SpatialDetector
from .temporal import DEFAULT_EPSILON, TemporalDetector
from .trace import ALLOC, CALL, FREE, LOAD, LOOPHEAD, RETURN, STATIC_IMAGE


class AnalysisConfig:
    def __init__(self, sampling=None, approx_epsilon=DEFAULT_EPSILON):
        if (not isinstance(approx_epsilon, (int, float))
                or isinstance(approx_epsilon, bool)):
            raise ConfigError("approx_epsilon must be an int or float, "
                              f"not {approx_epsilon!r}")
        # NaN fails the comparison too: JSON holds neither it nor inf.
        if not 0 <= approx_epsilon < float("inf"):
            raise ConfigError("approx_epsilon must be finite and >= 0, "
                              f"not {approx_epsilon!r}")
        self.sampling = SamplingConfig() if sampling is None else sampling
        self.approx_epsilon = approx_epsilon

    def meta(self):
        return {
            "approx_epsilon": self.approx_epsilon,
            "scope_budget": 1,      # one scope lookup per pair row
            "sampling": {
                "enabled": self.sampling.enabled,
                "window_enable": self.sampling.window_enable,
                "window_disable": self.sampling.window_disable,
            },
        }


class ThreadWorker:
    """Analysis state confined to one thread's event stream."""

    def __init__(self, registry, config, meta):
        self.tree = ContextTree()
        self.shadow = ShadowTable()
        self.temporal_budget = ScopeBudget(self.tree)
        self.spatial_budget = ScopeBudget(self.tree)
        self.temporal = TemporalDetector(self.shadow, self.temporal_budget,
                                         config.approx_epsilon)
        self.spatial = SpatialDetector(registry, self.spatial_budget,
                                       config.approx_epsilon)
        self.meta = meta


def analyze_events(events, source_map, config=None, verdict_sink=None):
    """Run the full analysis over an event stream; returns the merged
    canonical Profile.

    Every monitored load gets a temporal verdict (redundant, approx_class,
    prior_ctx, prior_ts) and a spatial verdict (redundant, object_id).
    `verdict_sink`, when given, receives (thread_id, temporal, spatial)
    for each, in file order; oracle-equivalence tests use it.
    """
    if config is None:
        config = AnalysisConfig()
    registry = ObjectRegistry()
    workers = {}
    meta = config.meta()
    sampling = config.sampling
    gated = sampling.enabled
    # The sampling window of the latest gated load: every ins_index in
    # [lo, hi) gets the verdict `monitored`.
    lo = hi = 0
    monitored = False
    # A binary trace's decoder applies the same gate before it builds a
    # load; the gate below stays the rule for every other event source.
    decoder = events if isinstance(events, tr.BinaryEvents) else None
    if decoder is not None:
        decoder.sampling = sampling

    position = -1
    tid = None
    try:
        for position, ev in enumerate(events):
            if ev.thread_id != tid:
                tid = ev.thread_id
                worker = workers.get(tid)
                if worker is None:
                    worker = workers[tid] = ThreadWorker(registry, config,
                                                         meta)
                tree = worker.tree
                load_context = tree.current_load_context
                temporal_load = worker.temporal.process_load
                spatial_load = worker.spatial.process_load
            kind = ev.kind
            if kind == LOAD:
                if gated:
                    ins = ev.ins_index
                    if not lo <= ins < hi:
                        lo, hi, monitored = monitoring_window(ins, sampling)
                    if not monitored:
                        continue
                ctx, load_ts = load_context(ev.site_id)
                tv = temporal_load(ev, ctx, load_ts)
                sv = spatial_load(ev, ctx, load_ts)
                if verdict_sink is not None:
                    verdict_sink((tid, tv, sv))
            elif kind == CALL:
                tree.on_call(ev.site_id)
            elif kind == RETURN:
                tree.on_return(ev.site_id)
            elif kind == LOOPHEAD:
                tree.on_loop_head(ev.loop_id)
            elif kind == ALLOC:
                ctx_path = tree.structural_path(tree.cursor.handle)
                registry.on_alloc(ev.base, ev.alloc_size, ctx_path)
            elif kind == FREE:
                registry.on_free(ev.base)
            elif kind == STATIC_IMAGE:
                registry.on_static_image(ev.objects)
            # THREAD_START only announces the thread
    except MalformedTraceError as exc:
        if decoder is not None:
            position += decoder.skipped     # the records dropped before `ev`
        raise MalformedTraceError(
            f"event {position} (thread {ev.thread_id}, "
            f"ins_index {ev.ins_index}): {exc}") from None

    profiles = [canonicalize(workers[tid], source_map)
                for tid in sorted(workers)]
    return merge_all(profiles)


def analyze_path(path, config=None, verdict_sink=None):
    """Analyze a trace file: text form if it starts with "LRT1 ", else
    binary, whose reader checks the version after the LRT1 magic."""
    with open(path, "rb") as f:
        head = f.read(5)
        f.seek(0)
        if head == b"LRT1 ":
            read = tr.read_text_trace
        elif head[:4] == tr.MAGIC:
            read = tr.read_trace    # looked up here: a tracer may wrap it
        else:
            raise TraceDecodeError(f"{path}: not a trace file", 0)
        events, source_map = read(f)
        return analyze_events(events, source_map, config, verdict_sink)
