"""Run one `redload` command with per-layer tracing, in its own process.

    python3 perfbench/tracer.py STATS.json analyze TRACE -o PROFILE ...
    python3 perfbench/tracer.py STATS.json report PROFILE --top 20

Wrappers go around the public entry points of each layer (see `install`)
from this file, so the program's sources stay untouched. Each wrapper
keeps aggregates only (calls, total time, self time = total minus time in
wrapped callees); a few coarse calls also record spans with parent links.
Everything is kept in memory and written to STATS.json after the command
ends. The exit code is the command's.
"""

import json
import os
import sys
import time
from collections import Counter

from redload import cli, engine, profiles, report, trace
from redload.cct import ContextTree
from redload.scope import ScopeBudget
from redload.shadow import ShadowTable
from redload.spatial import ObjectRegistry, SpatialDetector
from redload.temporal import TemporalDetector


class Tracer:
    def __init__(self):
        self.stack = []         # per open call: [layer, time in callees]
        self.funcs = {}         # "layer.name" -> [calls, total_s, self_s]
        self.layer_calls = Counter()    # entries into a layer from another
        self.spans = []         # [id, parent id, name, start, end]
        self.span_stack = []
        self.events = 0
        self.loads = 0

    def wrap(self, layer, name, fn, span=None):
        """`fn` wrapped to time itself under `layer`; `span`, when given,
        names the span each call records."""
        agg = self.funcs.setdefault(f"{layer}.{name}", [0, 0.0, 0.0])
        stack = self.stack
        layer_calls = self.layer_calls
        spans = self.spans
        span_stack = self.span_stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not stack or stack[-1][0] != layer:
                layer_calls[layer] += 1
            frame = [layer, 0.0]
            stack.append(frame)
            if span is not None:
                record = [len(spans), span_stack[-1] if span_stack else None,
                          span, 0.0, 0.0]
                spans.append(record)
                span_stack.append(record[0])
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                dt = end - start
                stack.pop()
                agg[0] += 1
                agg[1] += dt
                agg[2] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
                if span is not None:
                    span_stack.pop()
                    record[3] = start
                    record[4] = end
        return traced

    def wrap_methods(self, layer, cls, names=None):
        if names is None:
            names = [n for n, v in vars(cls).items()
                     if callable(v) and not n.startswith("_")]
        for name in names:
            setattr(cls, name, self.wrap(layer, name, getattr(cls, name)))

    def decode_stream(self, events):
        """The decoder's event iterator, with each step timed as decode.
        Its span runs from the first step to the last; detection runs
        interleaved with it."""
        step = self.wrap("trace", "decode", events.__next__)
        span = [len(self.spans), self.span_stack[-1] if self.span_stack
                else None, "decode", time.perf_counter(), 0.0]
        self.spans.append(span)
        while True:
            try:
                ev = step()
            except StopIteration:
                span[4] = time.perf_counter()
                return
            self.events += 1
            if ev.kind == trace.LOAD:
                self.loads += 1
            yield ev

    def self_s(self, layer):
        return sum(agg[2] for key, agg in self.funcs.items()
                   if key.startswith(layer + "."))

    def calls(self, key):
        return self.funcs.get(key, (0,))[0]

    def func_self(self, key):
        return self.funcs.get(key, (0, 0.0, 0.0))[2]


def install(tracer):
    """Wrap every layer; returns (the ThreadWorkers the run creates, the
    row count and path of the profile it saves), both filled in as it
    runs."""
    tracer.wrap_methods("cct", ContextTree)
    tracer.wrap_methods("shadow", ShadowTable, ["probe_update"])
    tracer.wrap_methods("temporal", TemporalDetector, ["process_load"])
    tracer.wrap_methods("spatial", SpatialDetector, ["process_load"])
    tracer.wrap_methods("spatial", ObjectRegistry)
    tracer.wrap_methods("scope", ScopeBudget, ["resolve"])

    workers = []
    base_worker = engine.ThreadWorker

    class CapturedWorker(base_worker):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            workers.append(self)

    engine.ThreadWorker = CapturedWorker
    engine.analyze_events = tracer.wrap("engine", "analyze_events",
                                        engine.analyze_events, span="detect")
    engine.canonicalize = tracer.wrap("profiles", "canonicalize",
                                      engine.canonicalize, span="canonicalize")
    engine.merge_all = tracer.wrap("profiles", "merge", engine.merge_all,
                                   span="merge")

    read_trace = trace.read_trace

    def traced_read_trace(source):
        events, source_map = read_trace(source)
        return tracer.decode_stream(events), source_map

    trace.read_trace = traced_read_trace

    saved = {}
    save = profiles.save

    def counting_save(profile, path):
        saved["rows"] = (len(profile.temporal_pairs) + len(profile.objects)
                         + len(profile.spatial_pairs))
        saved["path"] = path
        return save(profile, path)

    profiles.save = tracer.wrap("profiles", "save", counting_save, span="save")
    profiles.to_json = tracer.wrap("profiles", "to_json", profiles.to_json,
                                   span="to_json")
    profiles.load = tracer.wrap("profiles", "load", profiles.load, span="load")
    report.build_report = tracer.wrap("report", "build", report.build_report,
                                      span="build_report")
    cli.report_text = tracer.wrap("report", "render", cli.report_text,
                                  span="render")
    return workers, saved


def _ratio(a, b):
    return a / b if b else 0.0


def analyze_metrics(tracer, workers, saved):
    """Per-layer metrics of one traced `analyze`."""
    decode_s = tracer.func_self("trace.decode")
    monitored = tracer.calls("temporal.process_load")
    t_rows = [row for w in workers for row in w.temporal.rows.values()]
    budgets = [b for w in workers
               for b in (w.temporal_budget, w.spatial_budget)]
    lookups = tracer.calls("spatial.lookup")
    hits = sum(row.total_instances for w in workers
               for row in w.spatial.object_rows.values())
    registry = workers[0].spatial.registry if workers else None
    resolves = tracer.calls("scope.resolve")
    traversals = sum(b.traversals for b in budgets)
    return {
        "trace.decode_s": decode_s,
        "trace.decode_events_per_s": _ratio(tracer.events, decode_s),
        "trace.events": tracer.events,
        "trace.loads": tracer.loads,
        "engine.self_s": tracer.self_s("engine"),
        "sampling.loads_monitored": monitored,
        "sampling.loads_skipped": tracer.loads - monitored,
        "sampling.monitored_ratio": _ratio(monitored, tracer.loads),
        "cct.self_s": tracer.self_s("cct"),
        "cct.calls": tracer.layer_calls["cct"],
        "cct.nodes": sum(len(w.tree.nodes) for w in workers),
        "shadow.self_s": tracer.self_s("shadow"),
        "shadow.probes": tracer.calls("shadow.probe_update"),
        "shadow.pages": sum(w.shadow.page_count() for w in workers),
        "temporal.self_s": tracer.self_s("temporal"),
        "temporal.redundant_ratio": _ratio(
            sum(r.redundant_instances for r in t_rows),
            sum(r.total_instances for r in t_rows)),
        "temporal.rows": len(t_rows),
        "spatial.self_s": tracer.self_s("spatial"),
        "spatial.lookup_s": tracer.func_self("spatial.lookup"),
        "spatial.hit_ratio": _ratio(hits, lookups),
        "spatial.objects_live": len(registry.by_base) if registry else 0,
        "spatial.objects_archived": len(registry.archive) if registry else 0,
        "spatial.pair_rows": sum(len(w.spatial.pair_rows) for w in workers),
        "scope.self_s": tracer.self_s("scope"),
        "scope.resolves": resolves,
        "scope.traversals": traversals,
        "scope.traversal_ratio": _ratio(traversals, resolves),
        "profiles.canonicalize_s": tracer.func_self("profiles.canonicalize"),
        "profiles.merge_s": tracer.func_self("profiles.merge"),
        "profiles.to_json_s": tracer.func_self("profiles.to_json"),
        "profiles.save_s": tracer.func_self("profiles.save"),
        "profiles.rows": saved.get("rows", 0),
        "profiles.save_bytes": (os.path.getsize(saved["path"])
                                if "path" in saved else 0),
    }


def report_metrics(tracer):
    """Per-layer metrics of one traced `report`."""
    return {
        "profiles.load_s": tracer.func_self("profiles.load"),
        "report.build_s": tracer.func_self("report.build"),
        "report.render_s": tracer.func_self("report.render"),
    }


def main(argv):
    stats_path, command = argv[0], argv[1:]
    tracer = Tracer()
    workers, saved = install(tracer)
    run = tracer.wrap("cli", "main", cli.main, span=command[0])
    code = run(command)
    if code == 0:
        if command[0] == "analyze":
            metrics = analyze_metrics(tracer, workers, saved)
        else:
            metrics = report_metrics(tracer)
        with open(stats_path, "w", encoding="utf-8") as f:
            json.dump({"metrics": metrics, "funcs": tracer.funcs,
                       "spans": tracer.spans}, f)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
