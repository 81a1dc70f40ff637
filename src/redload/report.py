"""Ranked redundancy reports with synthetic call chains.

Each report row joins the two contexts of a redundancy pair into one
synthetic chain (the new load's path, then the prior load's path appended)
so a reader can navigate both parties top-down. Rows are ranked by
redundant bytes, ties broken by the serialized key, which makes report
output byte-stable across runs.
"""

import json

from .errors import RedloadError
from .profiles import fractions_doc, object_doc, path_doc, totals_doc
from .spatial import STATIC, object_fractions
from .temporal import pair_fraction, program_fraction

DEFAULT_TOP = 20


class ReportRow:
    """kind is "temporal" or "spatial"; klass "precise" or "approx"."""

    def __init__(self, kind, klass, redundant_bytes, pair_fraction,
                 pair_fraction_defined, redundant_instances, total_instances,
                 new_context, old_context, scope, object_key=None,
                 object_fraction=0.0, object_fraction_defined=False, rank=0):
        self.kind = kind
        self.klass = klass
        self.redundant_bytes = redundant_bytes
        self.pair_fraction = pair_fraction
        self.pair_fraction_defined = pair_fraction_defined
        self.redundant_instances = redundant_instances
        self.total_instances = total_instances
        self.new_context = new_context
        self.old_context = old_context
        self.scope = scope
        self.object_key = object_key
        self.object_fraction = object_fraction
        self.object_fraction_defined = object_fraction_defined
        self.rank = rank

    @property
    def chain(self):
        return self.new_context + self.old_context

    @property
    def instance_percent(self):
        if self.total_instances == 0:
            return 0.0
        return 100.0 * self.redundant_instances / self.total_instances


def _key_doc(key):
    return json.dumps(key, sort_keys=True)


def _class_rows(kind, key_rows, totals, fractions=None):
    rows = []
    for key, counters in key_rows:
        if kind == "temporal":
            old_ctx, new_ctx, scope = key
            obj = None
        else:
            obj, old_ctx, new_ctx, scope = key
        if old_ctx is None:
            continue
        precise, approx = pair_fraction(counters, totals)
        for klass, rb, frac in (("precise", counters.redundant_bytes_precise,
                                 precise),
                                ("approx", counters.redundant_bytes_approx,
                                 approx)):
            if rb == 0:
                continue
            row = ReportRow(
                kind=kind, klass=klass, redundant_bytes=rb,
                pair_fraction=frac[0], pair_fraction_defined=frac[1],
                redundant_instances=counters.redundant_instances,
                total_instances=counters.total_instances,
                new_context=new_ctx, old_context=old_ctx, scope=scope,
                object_key=obj)
            if obj is not None and fractions is not None:
                of = fractions.get(obj)
                if of is not None:
                    value, defined = of[0] if klass == "precise" else of[1]
                    row.object_fraction = value
                    row.object_fraction_defined = defined
            rows.append(row)
    rows.sort(key=lambda r: (-r.redundant_bytes,
                             _key_doc((r.object_key, r.old_context,
                                       r.new_context, r.scope, r.klass))))
    for i, row in enumerate(rows, start=1):
        row.rank = i
    return rows


def build_report(profile, top=DEFAULT_TOP):
    """(temporal rows, spatial rows), each ranked and cut to the top N."""
    if top < 0:
        raise RedloadError(f"top must be >= 0, got {top}")
    temporal = _class_rows("temporal", profile.temporal_pairs.items(),
                           profile.totals)
    spatial = _class_rows("spatial", profile.spatial_pairs.items(),
                          profile.totals, object_fractions(profile.objects))
    return temporal[:top], spatial[:top]


def _row_doc(row):
    doc = {
        "rank": row.rank,
        "kind": row.kind,
        "class": row.klass,
        "redundant_bytes": row.redundant_bytes,
        "pair_fraction": row.pair_fraction,
        "pair_fraction_defined": row.pair_fraction_defined,
        "redundant_instances": row.redundant_instances,
        "total_instances": row.total_instances,
        "instance_percent": row.instance_percent,
        "chain": path_doc(row.chain),
        "new_context": path_doc(row.new_context),
        "old_context": path_doc(row.old_context),
        "scope": path_doc(row.scope),
    }
    if row.kind == "spatial":
        doc["object"] = object_doc(row.object_key)
        doc["object_fraction"] = row.object_fraction
        doc["object_fraction_defined"] = row.object_fraction_defined
    return doc


def report_json(profile, top=DEFAULT_TOP):
    temporal, spatial = build_report(profile, top)
    return {
        "format": "redload-report",
        "version": 1,
        "thread_count": profile.thread_count,
        "totals": totals_doc(profile.totals),
        "program_fractions": fractions_doc(profile.totals),
        "temporal": [_row_doc(r) for r in temporal],
        "spatial": [_row_doc(r) for r in spatial],
    }


def _fmt_fraction(value, defined, unit=""):
    if not defined:
        return "n/a (no loads of this class)"
    return f"{value:.6g}{unit}"


def _frame_line(frame, indent):
    kind, name, file, line = frame
    label = name if name else kind
    return f"{'  ' * indent}{label:<28} {file}:{line}  [{kind}]"


def _object_label(key):
    kind, ident = key
    if kind == STATIC:
        return f"static object {ident!r}"
    leaf = ident[-1] if ident else None
    where = f" at {leaf[2]}:{leaf[3]}" if leaf else ""
    return f"dynamic object allocated{where}"


def _render_rows(rows, out):
    for row in rows:
        head = (f"#{row.rank}  {row.kind}  {row.klass}  "
                f"redundant_bytes={row.redundant_bytes}  "
                f"pair_fraction="
                f"{_fmt_fraction(row.pair_fraction, row.pair_fraction_defined)}"
                f"  instances {row.redundant_instances}/"
                f"{row.total_instances} ({row.instance_percent:.2f}%)")
        out.append(head)
        if row.object_key is not None:
            obj = _object_label(row.object_key)
            frac = _fmt_fraction(row.object_fraction,
                                 row.object_fraction_defined)
            out.append(f"   object: {obj}  object_fraction={frac}")
        if row.scope is not None:
            kind, name, file, line = row.scope[-1]
            out.append(f"   scope: loop {file}:{line}")
        else:
            out.append("   scope: none")
        out.append("   new load context:")
        for depth, frame in enumerate(row.new_context):
            out.append(_frame_line(frame, depth + 2))
        out.append("   prior load context (appended):")
        for depth, frame in enumerate(row.old_context):
            out.append(_frame_line(frame, depth + 2))
        out.append("")


def report_text(profile, top=DEFAULT_TOP):
    temporal, spatial = build_report(profile, top)
    precise, approx = program_fraction(profile.totals)
    t = profile.totals
    out = [
        f"redload profile: {profile.thread_count} thread(s)",
        f"loaded bytes: nonfp={t.total_nonfp_bytes} fp={t.total_fp_bytes}; "
        f"redundant: nonfp={t.redundant_nonfp_bytes} "
        f"fp={t.redundant_fp_bytes}",
        f"R_prog precise = {_fmt_fraction(precise[0], precise[1])}   "
        f"R_prog approx = {_fmt_fraction(approx[0], approx[1])}",
        "",
    ]
    if top > 0:
        out.append(f"top {top} temporal redundancy pairs "
                   f"({len(temporal)} shown):")
        out.append("")
        _render_rows(temporal, out)
        out.append(f"top {top} spatial redundancy pairs "
                   f"({len(spatial)} shown):")
        out.append("")
        _render_rows(spatial, out)
    return "\n".join(out) + "\n"
