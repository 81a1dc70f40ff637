"""Ranked redundancy reports with synthetic call chains.

A report is one document, `report_json`'s; the text report renders it.
Each row joins the two contexts of a redundancy pair into one synthetic
chain (the new load's path, then the prior load's path appended) so a
reader can navigate both parties top-down. Rows are ranked by redundant
bytes, ties broken by the serialized key, which makes report output
byte-stable across runs; only the rows kept get a document.
"""

import json
from functools import cache

from .errors import RedloadError
from .profiles import fractions_doc, frame_doc, object_doc, totals_doc
from .spatial import STATIC, object_fractions
from .temporal import _fraction as ratio, pair_fraction

DEFAULT_TOP = 20


def _row_docs(kind, pairs, totals, top, fractions=None):
    """The documents of the `top` ranked rows of one pair table: a row
    per pair with a prior load, per class with redundant bytes."""
    ranked = []
    for key, counters in pairs.items():
        obj, old, new, scope = key if kind == "spatial" else (None, *key)
        if old is None:
            continue
        for klass, rb in (("precise", counters.redundant_bytes_precise),
                          ("approx", counters.redundant_bytes_approx)):
            if rb:
                parts = (obj, old, new, scope, klass)
                ranked.append((rb, json.dumps(parts), counters, parts))
    ranked.sort(key=lambda row: (-row[0], row[1]))
    del ranked[top:]
    frame = cache(frame_doc)    # one document per distinct frame
    docs = []
    for rank, (rb, _, counters, parts) in enumerate(ranked, start=1):
        obj, old, new, scope, klass = parts
        frac, defined = pair_fraction(counters, totals)[klass == "approx"]
        done, total = counters.redundant_instances, counters.total_instances
        new_doc, old_doc = list(map(frame, new)), list(map(frame, old))
        doc = {
            "rank": rank,
            "kind": kind,
            "class": klass,
            "redundant_bytes": rb,
            "pair_fraction": frac,
            "pair_fraction_defined": defined,
            "redundant_instances": done,
            "total_instances": total,
            # In ints: a count can exceed the float range.
            "instance_percent": ratio(done, total, "instances", 100)[0],
            "chain": new_doc + old_doc,
            "new_context": new_doc,
            "old_context": old_doc,
            "scope": None if scope is None else list(map(frame, scope)),
        }
        if obj is not None:
            of = fractions.get(obj)
            value, defined = ((0.0, False) if of is None
                              else of[klass == "approx"])
            doc["object"] = object_doc(obj)
            doc["object_fraction"] = value
            doc["object_fraction_defined"] = defined
        docs.append(doc)
    return docs


def build_report(profile, top=DEFAULT_TOP):
    """(temporal, spatial) lists of the report's row documents, each
    ranked and cut to the top N; equal frames share one dict."""
    if top < 0:
        raise RedloadError(f"top must be >= 0, got {top}")
    return (_row_docs("temporal", profile.temporal_pairs, profile.totals,
                      top),
            _row_docs("spatial", profile.spatial_pairs, profile.totals, top,
                      object_fractions(profile.objects)))


def report_json(profile, top=DEFAULT_TOP):
    temporal, spatial = build_report(profile, top)
    return {
        "format": "redload-report",
        "version": 1,
        "thread_count": profile.thread_count,
        "totals": totals_doc(profile.totals),
        "program_fractions": fractions_doc(profile.totals),
        "temporal": temporal,
        "spatial": spatial,
    }


def _fraction(doc, field):
    """doc[field] to six significant digits, or n/a if it is undefined."""
    if not doc[field + "_defined"]:
        return "n/a (no loads of this class)"
    return f"{doc[field]:.6g}"


def _at(frame):
    return f"{frame['file']}:{frame['line']}"


def _frame_line(frame, indent):
    return (f"{'  ' * indent}{frame['name'] or frame['kind']:<28} "
            f"{_at(frame)}  [{frame['kind']}]")


def _object_label(obj):
    if obj["kind"] == STATIC:
        return f"static object {obj['name']!r}"
    if not obj["context"]:
        return "dynamic object allocated"
    return f"dynamic object allocated at {_at(obj['context'][-1])}"


def _render_rows(rows, out):
    for row in rows:
        out.append(f"#{row['rank']}  {row['kind']}  {row['class']}  "
                   f"redundant_bytes={row['redundant_bytes']}  "
                   f"pair_fraction={_fraction(row, 'pair_fraction')}  "
                   f"instances {row['redundant_instances']}/"
                   f"{row['total_instances']} "
                   f"({row['instance_percent']:.2f}%)")
        if "object" in row:
            out.append(f"   object: {_object_label(row['object'])}  "
                       f"object_fraction={_fraction(row, 'object_fraction')}")
        scope = row["scope"]
        out.append(f"   scope: loop {_at(scope[-1])}" if scope
                   else "   scope: none")
        for field, label in (("new_context", "new load context"),
                             ("old_context", "prior load context (appended)")):
            out.append(f"   {label}:")
            for depth, frame in enumerate(row[field], start=2):
                out.append(_frame_line(frame, depth))
        out.append("")


def report_text(profile, top=DEFAULT_TOP):
    doc = report_json(profile, top)
    totals, fractions = doc["totals"], doc["program_fractions"]
    out = [
        f"redload profile: {doc['thread_count']} thread(s)",
        f"loaded bytes: nonfp={totals['total_nonfp_bytes']} "
        f"fp={totals['total_fp_bytes']}; "
        f"redundant: nonfp={totals['redundant_nonfp_bytes']} "
        f"fp={totals['redundant_fp_bytes']}",
        f"R_prog precise = {_fraction(fractions, 'precise')}   "
        f"R_prog approx = {_fraction(fractions, 'approx')}",
        "",
    ]
    if top > 0:
        for kind in ("temporal", "spatial"):
            out.append(f"top {top} {kind} redundancy pairs "
                       f"({len(doc[kind])} shown):")
            out.append("")
            _render_rows(doc[kind], out)
    out.append("")      # the final newline, without a second copy of the text
    return "\n".join(out)
