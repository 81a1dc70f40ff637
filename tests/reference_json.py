"""Reference encoding of profile documents, for byte-identity tests.

This is the straightforward encoding: build the whole document as dicts,
sort each table's rows by their compact `json.dumps(row, sort_keys=True)`
text, and `json.dump` it with `indent=1, sort_keys=True` plus a trailing
newline. `profiles.save` must write exactly these bytes.
"""

import json

from redload.profiles import PROFILE_FORMAT, PROFILE_VERSION
from redload.spatial import STATIC
from redload.temporal import program_fraction


def _frame_doc(frame):
    kind, name, file, line = frame
    return {"kind": kind, "name": name, "file": file, "line": line}


def _path_doc(path):
    if path is None:
        return None
    return [_frame_doc(f) for f in path]


def _counters_doc(c):
    return {
        "redundant_bytes_precise": c.redundant_bytes_precise,
        "redundant_bytes_approx": c.redundant_bytes_approx,
        "total_bytes_precise": c.total_bytes_precise,
        "total_bytes_approx": c.total_bytes_approx,
        "redundant_instances": c.redundant_instances,
        "total_instances": c.total_instances,
        "fp_exact_instances": c.fp_exact_instances,
    }


def _object_key_doc(key):
    kind, ident = key
    if kind == STATIC:
        return {"kind": kind, "name": ident}
    return {"kind": kind, "context": _path_doc(ident)}


def _sorted_rows(rows, key_doc_fn):
    docs = []
    for key, counters in rows.items():
        doc = key_doc_fn(key)
        doc["counters"] = _counters_doc(counters)
        docs.append(doc)
    docs.sort(key=lambda d: json.dumps(d, sort_keys=True))
    return docs


def reference_doc(profile):
    precise, approx = program_fraction(profile.totals)
    return {
        "format": PROFILE_FORMAT,
        "version": PROFILE_VERSION,
        "thread_count": profile.thread_count,
        "meta": profile.meta,
        "totals": {
            "total_nonfp_bytes": profile.totals.total_nonfp_bytes,
            "total_fp_bytes": profile.totals.total_fp_bytes,
            "redundant_nonfp_bytes": profile.totals.redundant_nonfp_bytes,
            "redundant_fp_bytes": profile.totals.redundant_fp_bytes,
        },
        "program_fractions": {
            "precise": precise[0], "precise_defined": precise[1],
            "approx": approx[0], "approx_defined": approx[1],
        },
        "temporal_pairs": _sorted_rows(
            profile.temporal_pairs,
            lambda k: {"old_context": _path_doc(k[0]),
                       "new_context": _path_doc(k[1]),
                       "scope": _path_doc(k[2])}),
        "objects": _sorted_rows(
            profile.objects,
            lambda k: {"object": _object_key_doc(k)}),
        "spatial_pairs": _sorted_rows(
            profile.spatial_pairs,
            lambda k: {"object": _object_key_doc(k[0]),
                       "old_context": _path_doc(k[1]),
                       "new_context": _path_doc(k[2]),
                       "scope": _path_doc(k[3])}),
    }


def reference_bytes(profile):
    """The bytes a saved profile must have."""
    text = json.dumps(reference_doc(profile), indent=1, sort_keys=True)
    return (text + "\n").encode("utf-8")
