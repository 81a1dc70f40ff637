"""Canonicalization, merge algebra, profile JSON round-trips."""

import copy
import itertools
import json
import random
import sys
import tracemalloc

import pytest

from redload import cli, engine, profiles
from redload.engine import AnalysisConfig, analyze_events
from redload.errors import RedloadError
from redload.profiles import (META_MIXED, Profile, load, merge,
                              merge_all, save, to_json)
from redload.sampling import SamplingConfig
from redload.temporal import PairCounters, ProgramTotals
from redload.workloads import Scenario, generate

from helpers import Build, u32

FULL = AnalysisConfig(sampling=SamplingConfig.disabled())


def _random_counters(rng):
    tb_p = rng.randrange(0, 400)
    tb_a = rng.randrange(0, 400)
    ti = rng.randrange(1, 60)
    return PairCounters(
        redundant_bytes_precise=rng.randrange(0, tb_p + 1),
        redundant_bytes_approx=rng.randrange(0, tb_a + 1),
        total_bytes_precise=tb_p,
        total_bytes_approx=tb_a,
        redundant_instances=rng.randrange(0, ti),
        total_instances=ti,
        fp_exact_instances=rng.randrange(0, 4),
    )


def _random_profile(rng):
    frames = [("function", f"f{i}", "x.c", i) for i in range(4)]
    loops = [("loop", "", "x.c", 10 + i) for i in range(3)]

    def path():
        n = rng.randrange(1, 4)
        out = [rng.choice(frames)]
        out += [rng.choice(frames + loops) for _ in range(n - 1)]
        out.append(("load", "f0", "x.c", 99))
        return tuple(out)

    p = Profile(thread_count=rng.randrange(1, 3))
    p.totals = ProgramTotals(rng.randrange(1000), rng.randrange(1000),
                             rng.randrange(500), rng.randrange(500))
    for _ in range(rng.randrange(1, 6)):
        key = (path() if rng.random() < 0.8 else None, path(),
               path() if rng.random() < 0.5 else None)
        p.temporal_pairs[key] = _random_counters(rng)
    for _ in range(rng.randrange(0, 3)):
        key = ("static", f"obj{rng.randrange(3)}")
        p.objects[key] = _random_counters(rng)
    for _ in range(rng.randrange(0, 3)):
        key = (("static", f"obj{rng.randrange(3)}"), path(), path(),
               path() if rng.random() < 0.5 else None)
        p.spatial_pairs[key] = _random_counters(rng)
    return p


def test_merge_identity():
    rng = random.Random(0)
    p = _random_profile(rng)
    merged = merge(p, Profile())
    assert merged == p
    assert merge(Profile(), p) == p


def test_merge_sums_matching_rows():
    key = ((("function", "f", "x.c", 1),), (("function", "g", "x.c", 2),),
           None)
    a = Profile(thread_count=1)
    a.temporal_pairs[key] = PairCounters(total_instances=3,
                                         redundant_instances=3,
                                         total_bytes_precise=12,
                                         redundant_bytes_precise=12)
    b = Profile(thread_count=1)
    b.temporal_pairs[key] = PairCounters(total_instances=5,
                                         redundant_instances=5,
                                         total_bytes_precise=20,
                                         redundant_bytes_precise=20)
    m = merge(a, b)
    assert m.thread_count == 2
    row = m.temporal_pairs[key]
    assert row.total_instances == 8 and row.redundant_bytes_precise == 32
    # Inputs are untouched.
    assert a.temporal_pairs[key].total_instances == 3


def test_merge_leaves_both_inputs_unchanged():
    rng = random.Random(5)
    for _ in range(20):
        a, b = _random_profile(rng), _random_profile(rng)
        for key in a.temporal_pairs:        # rows that must be summed
            b.temporal_pairs[key] = _random_counters(rng)
        before = copy.deepcopy((a, b))
        merged = merge(a, b)
        assert (a, b) == before
        # A merged profile shares rows with its inputs; folding it with
        # one of them again must neither change it nor skip a row.
        twice = merge(merged, a)
        assert (a, b) == before
        for key, row in a.temporal_pairs.items():
            expected = merged.temporal_pairs[key].copy()
            expected.add(row)
            assert twice.temporal_pairs[key] == expected
        assert merge(a, a) == merge(a, copy.deepcopy(a))


def test_scope_none_only_merges_with_none():
    old = (("function", "f", "x.c", 1),)
    new = (("function", "g", "x.c", 2),)
    scope = (("function", "f", "x.c", 1), ("loop", "", "x.c", 3))
    a = Profile()
    a.temporal_pairs[(old, new, None)] = PairCounters(total_instances=1)
    b = Profile()
    b.temporal_pairs[(old, new, scope)] = PairCounters(total_instances=1)
    m = merge(a, b)
    assert len(m.temporal_pairs) == 2


def test_merge_commutative_associative_100_triples():
    rng = random.Random(42)
    for _ in range(100):
        p1, p2, p3 = (_random_profile(rng) for _ in range(3))
        assert merge(p1, p2) == merge(p2, p1)
        assert merge(merge(p1, p2), p3) == merge(p1, merge(p2, p3))


def _summed(cls, items):
    return cls(*[sum(getattr(item, name) for item in items)
                 for name in cls.__slots__])


def _reference_sum(inputs):
    """The sum of `inputs`, worked out here apart from the fold: each
    key's counters summed over the inputs that hold it, totals and thread
    counts summed, and the one non-null meta, or META_MIXED when there
    are more, or None when there are none."""
    metas = {json.dumps(p.meta, sort_keys=True): p.meta
             for p in inputs if p.meta is not None}
    out = Profile(totals=_summed(ProgramTotals, [p.totals for p in inputs]),
                  thread_count=sum(p.thread_count for p in inputs),
                  meta=(META_MIXED if len(metas) > 1
                        else next(iter(metas.values()), None)))
    for table in ("temporal_pairs", "objects", "spatial_pairs"):
        rows = getattr(out, table)
        for key in {key for p in inputs for key in getattr(p, table)}:
            rows[key] = _summed(PairCounters, [
                getattr(p, table)[key] for p in inputs
                if key in getattr(p, table)])
    return out


def test_merge_all_shape_invariant():
    rng = random.Random(7)
    metas = [None, {"approx_epsilon": 0.01}, {"approx_epsilon": 0.5}]
    for count in [0, 1, 2, 3, 4, 7] * 4:
        inputs = [_random_profile(rng) for _ in range(count)]
        for p in inputs:
            p.meta = copy.deepcopy(rng.choice(metas))
            for key in inputs[0].temporal_pairs:    # rows that must be summed
                if rng.random() < 0.5:
                    p.temporal_pairs[key] = _random_counters(rng)
        before = copy.deepcopy(inputs)
        want = _reference_sum(inputs)
        assert merge_all(inputs) == want
        assert merge_all(inputs[::-1]) == want
        assert inputs == before
    assert merge_all([]) == Profile()


def test_merge_all_meta_does_not_depend_on_order():
    m1, m2 = {"approx_epsilon": 0.01}, {"approx_epsilon": 0.5}
    for metas, want in (([None, m1, m1], m1), ([None, m1, m2], META_MIXED),
                        ([m1, META_MIXED], META_MIXED)):
        for order in itertools.permutations(metas):
            got = merge_all([Profile(meta=copy.deepcopy(m)) for m in order])
            assert got.meta == want, order


def test_merge_all_takes_a_one_shot_iterable():
    rng = random.Random(3)
    inputs = [_random_profile(rng) for _ in range(5)]
    assert merge_all(p for p in inputs) == merge_all(inputs)


def test_merge_all_shares_rows_without_changing_them():
    # A sum takes the rows of its first input as they are; folding that
    # input into it once more must change neither.
    rng = random.Random(11)
    for _ in range(10):
        p = _random_profile(rng)
        before = copy.deepcopy(p)
        out = merge_all([p])
        assert out == p
        twice = merge_all([out, p])
        assert (p, out) == (before, before)
        assert twice == _reference_sum([before, before])
        assert merge_all([p, p]) == twice
        assert p == before


def test_merge_meta_rules():
    meta = {"approx_epsilon": 0.01}
    a = Profile(meta=dict(meta))
    b = Profile(meta=dict(meta))
    assert merge(a, b).meta == meta
    assert merge(a, Profile()).meta == meta
    c = Profile(meta={"approx_epsilon": 0.5})
    assert merge(a, c).meta == META_MIXED


def test_canonicalize_interns_one_row_for_equal_paths():
    b = Build()
    b.sm.add_site(1, "main", "m.c", 1)
    b.sm.add_site(2, "main", "m.c", 5)
    b.thread_start()
    b.call(1)
    b.load(0x100, u32(1), 2)
    b.load(0x100, u32(1), 2)
    b.load(0x100, u32(1), 2)
    b.ret(1)
    profile = analyze_events(b.events, b.sm, FULL)
    pair_rows = [k for k in profile.temporal_pairs if k[0] is not None]
    assert len(pair_rows) == 1


def test_canonicalize_unresolved_site_names_handle():
    b = Build()
    b.sm.add_site(1, "main", "m.c", 1)
    b.thread_start()
    b.call(1)
    b.load(0x100, u32(1), 2)    # site 2 never registered
    b.ret(1)
    with pytest.raises(RedloadError) as err:
        analyze_events(b.events, b.sm, FULL)
    assert "handle" in str(err.value)


def test_canonicalize_folds_rows_without_changing_the_worker(monkeypatch):
    workers = []

    class CapturedWorker(engine.ThreadWorker):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            workers.append(self)

    monkeypatch.setattr(engine, "ThreadWorker", CapturedWorker)
    b = Build()
    b.sm.add_site(1, "main", "m.c", 1)
    b.sm.add_site(2, "main", "m.c", 5)
    b.sm.add_site(3, "main", "m.c", 5)     # same source line as site 2
    b.thread_start()
    b.call(1)
    b.load(0x100, u32(1), 2)
    b.load(0x200, u32(1), 3)
    b.ret(1)
    profile = analyze_events(b.events, b.sm, FULL)

    (row,) = profile.temporal_pairs.values()
    assert row.total_instances == 2
    (worker,) = workers
    assert [r.total_instances for r in worker.temporal.rows.values()] == [1, 1]


def test_canonicalize_unresolved_ancestor_names_requested_handle():
    b = Build()
    b.sm.add_site(1, "main", "m.c", 1)
    b.sm.add_site(2, "main", "m.c", 5)
    b.thread_start()
    b.call(1)                   # handle 1
    b.call(9)                   # handle 2; site 9 never registered
    b.load(0x100, u32(1), 2)    # handle 3, whose path is asked for
    b.ret(9)
    b.ret(1)
    with pytest.raises(RedloadError) as err:
        analyze_events(b.events, b.sm, FULL)
    assert "context handle 3" in str(err.value)
    assert "unresolved site_id 9" in str(err.value)


def test_canonicalize_unresolved_allocation_context_names_the_id():
    # No load runs inside call 9, so only the object's key holds it.
    b = Build()
    b.sm.add_site(1, "main", "m.c", 1)
    b.thread_start()
    b.call(9)
    b.alloc(0x100, 8)
    b.ret(9)
    b.load(0x100, u32(1), 1)
    with pytest.raises(RedloadError) as err:
        analyze_events(b.events, b.sm, FULL)
    assert str(err.value) == "allocation context: unresolved site_id 9"


def test_canonicalize_path_deeper_than_recursion_limit():
    depth = sys.getrecursionlimit() + 500
    b = Build()
    b.sm.add_site(1, "f", "deep.c", 1)
    b.sm.add_site(2, "f", "deep.c", 2)
    b.sm.add_site(3, "f", "deep.c", 3)
    b.thread_start()
    for _ in range(depth):
        b.call(1)
    b.load(0x100, u32(7), 2)
    for _ in range(depth // 2):
        b.ret(1)
    b.load(0x200, u32(7), 3)    # its ancestors' paths are known by now
    for _ in range(depth - depth // 2):
        b.ret(1)
    profile = analyze_events(b.events, b.sm, FULL)

    call = ("function", "f", "deep.c", 1)
    bottom = (call,) * depth + (("load", "f", "deep.c", 2),)
    middle = (call,) * (depth - depth // 2) + (("load", "f", "deep.c", 3),)
    assert set(profile.temporal_pairs) == {(None, bottom, None),
                                           (None, middle, None)}
    assert len(bottom) == depth + 1


def test_same_scenario_two_threads_identical_keys_doubled_counters():
    single = analyze_events(*generate(Scenario("forward_copy",
                                               {"len": 16, "reps": 6})),
                            config=FULL)
    double = analyze_events(
        *generate(Scenario("forward_copy",
                           {"len": 16, "reps": 6, "threads": 2})),
        config=FULL)
    assert double.thread_count == 2
    assert set(double.temporal_pairs) == set(single.temporal_pairs)
    for key, row in single.temporal_pairs.items():
        got = double.temporal_pairs[key]
        assert got.total_instances == 2 * row.total_instances
        assert got.redundant_bytes_precise == 2 * row.redundant_bytes_precise
    assert double.totals.total_nonfp_bytes == \
        2 * single.totals.total_nonfp_bytes
    for key, row in single.objects.items():
        assert double.objects[key].total_instances == \
            2 * row.total_instances


def _saved_random_mixed(tmp_path):
    """A random_mixed profile of 1,456 rows and its file."""
    profile = analyze_events(*generate(Scenario("random_mixed",
                                                {"loads": 1500, "seed": 3})),
                             config=FULL)
    path = tmp_path / "p.json"
    save(profile, path)
    return profile, path


def _frames_of(profile):
    """Every frame of every row key, one entry per occurrence."""
    paths = [*[p for key in profile.temporal_pairs for p in key],
             *[p for key in profile.spatial_pairs for p in key[1:]],
             *[ident for kind, ident in profile.objects if kind == "dynamic"]]
    return [frame for path in paths if path is not None for frame in path]


def _written(tmp_path, doc):
    """The path of a file holding json.dumps(doc)."""
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    return path


def test_profile_json_roundtrip(tmp_path):
    profile, path = _saved_random_mixed(tmp_path)
    assert load(_written(tmp_path, to_json(profile))) == profile
    assert load(path) == profile
    # Serialization is byte-stable.
    save(profile, tmp_path / "q.json")
    assert (tmp_path / "p.json").read_bytes() == \
        (tmp_path / "q.json").read_bytes()


def test_load_gives_equal_frames_one_tuple(tmp_path):
    _, path = _saved_random_mixed(tmp_path)
    frames = _frames_of(load(path))
    assert len({id(frame) for frame in frames}) == len(set(frames))
    assert len(set(frames)) * 20 < len(frames)


def _load_peak(path):
    """What loading `path` gives (a Profile or the RedloadError) and the
    peak of the memory traced meanwhile, as a share of the file size."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        try:
            loaded = load(path)
        except RedloadError as exc:
            loaded = exc
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    return loaded, peak / path.stat().st_size


def test_load_peak_memory_follows_distinct_frames(tmp_path):
    # Rows stream through a text window of profiles.CHUNK bytes, and
    # equal frames share one tuple, so the peak is about the window and
    # the loaded profile (0.17x). Holding the file's bytes and text
    # together put it at 2x; one dict and four strings per frame
    # occurrence at about 4.2x.
    profile, path = _saved_random_mixed(tmp_path)
    rows = (len(profile.temporal_pairs) + len(profile.objects)
            + len(profile.spatial_pairs))
    assert rows >= 1000
    loaded, peak = _load_peak(path)
    assert loaded == profile
    assert peak < 0.5, f"peak {peak:.2f}x the file size"
    # A fault stops the one pass where it is met, so rejecting the file
    # costs the window too. Parsing the whole text again to word the
    # error peaked at 4.2x; reading on to the end of the file after a
    # syntax fault in a row, at 2x.
    text = path.read_text()
    at = text.index('"total_instances": ', text.index('"temporal_pairs"'))
    at += len('"total_instances": ')
    end = text.index("\n", at)
    for value, fault in (('"5"', "temporal_pairs row 0 counters: field "
                          "'total_instances' is '5', not a non-negative "
                          "integer"),
                         ("x", f"not JSON at character {at}: "
                          "Expecting value")):
        path.write_text(f"{text[:at]}{value}{text[end:]}")
        loaded, peak = _load_peak(path)
        assert str(loaded) == f"{path}: {fault}"
        assert peak < 0.5, f"peak {peak:.2f}x the file size"


def _boundary_cases():
    """Documents, each with a piece of its text that a chunk boundary
    should cut, and the profile it holds. They are not what `save`
    writes: meta keeps its non-ASCII characters, members are spaced
    freely, and one member is not a profile's."""
    profile = analyze_events(*generate(Scenario("sparse_zeros",
                                                {"len": 64})), config=FULL)
    profile.thread_count = 10**30 + 1234567
    key = next(iter(profile.objects))
    profile.objects[key] = PairCounters(*[9876543210 + i for i in range(7)])
    profile.meta = {"note": "na\u00efve \u20ac\U0001f600", "n": 12345}
    doc = to_json(profile)
    text = json.dumps(doc, ensure_ascii=False)
    # First, so that no earlier value was read on past it.
    first = json.dumps({"thread_count": doc.pop("thread_count"), **doc})
    spaced = json.dumps(to_json(profile), indent=2).replace(
        '],\n  "', '],\r\n\t \n  \r "')
    # A number cut after "12." parses as 12 until more text is read.
    extra = json.dumps({"extra": 12.5, **to_json(profile)})
    deeper = merge_all([profile])
    deep = tuple(("loop", "", "deep.c", i) for i in range(4000))
    deeper.temporal_pairs[None, deep, deep[:1]] = PairCounters()
    cases = [("thread_count", first, "1234567", profile),
             ("counter", text, "9876543213", profile),
             ("utf8_meta", text, "\U0001f600", profile),
             ("deep_row", json.dumps(to_json(deeper)), '"line": 2000,',
              deeper),
             ("whitespace", spaced, '],\r\n\t \n  \r "', profile),
             ("float_member", extra, "12.5, ", profile)]
    return [pytest.param(text, piece, want, id=name)
            for name, text, piece, want in cases]


@pytest.mark.parametrize("chunk", [1, 7, 64, profiles.CHUNK])
@pytest.mark.parametrize("text,piece,want", _boundary_cases())
def test_load_streams_across_chunk_boundaries(text, piece, want, chunk,
                                              tmp_path, monkeypatch):
    # Leading whitespace shifts the text so that a chunk ends inside
    # `piece`; the one pass must still take the file.
    data = text.encode()
    cut = data.index(piece.encode()) + len(piece.encode()) // 2
    data = b" " * (-cut % chunk) + data
    path = tmp_path / "p.json"
    path.write_bytes(data)
    monkeypatch.setattr(profiles, "CHUNK", chunk)
    assert load(path) == want


@pytest.mark.parametrize("chunk", [1, 7, 64, profiles.CHUNK])
@pytest.mark.parametrize("gap", [0, 9, 500])
def test_load_reports_a_syntax_fault_before_a_later_utf8_fault(
        gap, chunk, tmp_path, monkeypatch):
    # Faults come in file order: a row that is not JSON stops the pass,
    # so bytes further on that are not UTF-8 are never read to be met.
    text = json.dumps(to_json(analyze_events(*generate(Scenario(
        "forward_copy", {"len": 8, "reps": 3})), config=FULL)), indent=1)
    at = text.index('"total_instances": ', text.index('"objects"'))
    at += len('"total_instances": ')
    bad = at + 1 + gap
    path = tmp_path / "p.json"
    path.write_bytes(f"{text[:at]}x{text[at + 1:bad]}".encode() + b"\xff"
                     + text[bad:].encode())
    monkeypatch.setattr(profiles, "CHUNK", chunk)
    with pytest.raises(RedloadError) as exc:
        load(path)
    assert str(exc.value) == \
        f"{path}: not JSON at character {at}: Expecting value"


def _merge_inputs(tmp_path, metas):
    """Paths of saved random_mixed profiles with these metas."""
    paths = []
    for seed, meta in enumerate(metas):
        profile = analyze_events(*generate(Scenario(
            "random_mixed", {"loads": 150, "seed": seed % 2})), config=FULL)
        profile.meta = meta
        paths.append(tmp_path / f"in{len(paths)}.json")
        save(profile, paths[-1])
    return paths


@pytest.mark.parametrize("count", [1, 2, 3, 4])
@pytest.mark.parametrize("metas", ["null", "equal", "different"])
def test_cli_merge_folds_inputs_as_merge_all_does(count, metas, tmp_path):
    meta = {"null": lambda i: None, "equal": lambda i: {"w": 1},
            "different": lambda i: None if i == 1 else {"w": i % 3}}[metas]
    paths = _merge_inputs(tmp_path, [meta(i) for i in range(count)])
    out = tmp_path / "out.json"
    assert cli.main(["merge", *map(str, paths), "-o", str(out)]) == 0
    save(merge_all([load(p) for p in paths]), tmp_path / "want.json")
    assert out.read_bytes() == (tmp_path / "want.json").read_bytes()


def test_merge_keeps_meta_that_looks_like_frames(tmp_path):
    # Objects of four members are parsed to one shared dict when equal;
    # meta must come out of a merge as it went in, value types included.
    frame = {"kind": "function", "name": "f", "file": "a.c", "line": 1}
    meta = {"frames": [frame, dict(frame), {**frame, "line": 1.0}],
            "typed": [{"a": 1, "b": 0, "c": "x", "d": 2},
                      {"a": True, "b": -0.0, "c": "x", "d": 2},
                      {"a": 1, "b": 0.0, "c": "x", "d": 2.0},
                      {"a": 1, "b": 0, "c": "x", "d": 2}],
            "listed": [{"kind": "loop", "name": ["x"], "file": "b.c",
                        "line": 2}] * 2,
            "kind": "function", "name": "f", "file": "a.c"}
    profile, path = _saved_random_mixed(tmp_path)
    profile.meta = meta
    save(profile, path)
    out = tmp_path / "m.json"
    assert cli.main(["merge", str(path), str(path), "-o", str(out)]) == 0
    merged = json.loads(out.read_text())["meta"]
    assert json.dumps(merged, sort_keys=True) == \
        json.dumps(meta, sort_keys=True)
    assert load(out).meta == meta


def test_profile_json_matches_schema():
    jsonschema = pytest.importorskip("jsonschema")
    from importlib.resources import files
    schema = json.loads(files("redload").joinpath("profile.schema.json")
                        .read_text())
    # sparse_zeros has no prior context, scope or loop frame; the
    # hash_collision profile has redundant pairs under a loop scope.
    for scenario in (Scenario("sparse_zeros", {"len": 64}),
                     Scenario("hash_collision", {"chain": 3,
                                                 "searches": 3})):
        doc = to_json(analyze_events(*generate(scenario), config=FULL))
        assert any(row["scope"] and row["old_context"]
                   for row in doc["temporal_pairs"]) == \
            (scenario.name == "hash_collision")
        jsonschema.validate(doc, schema)


def test_load_rejects_other_documents(tmp_path):
    with pytest.raises(RedloadError):
        load(_written(tmp_path, {"format": "something-else", "version": 1}))
    with pytest.raises(RedloadError):
        load(_written(tmp_path, {"format": "redload-profile", "version": 99}))
    with pytest.raises(RedloadError, match="not a redload-profile"):
        load(_written(tmp_path, [{"format": "redload-profile",
                                  "version": 1}]))


def test_load_names_what_is_missing_or_malformed(tmp_path):
    profile = analyze_events(*generate(Scenario("sparse_zeros",
                                                {"len": 64})), config=FULL)
    doc = to_json(profile)
    del doc["totals"]
    with pytest.raises(RedloadError, match="missing field 'totals'"):
        load(_written(tmp_path, doc))
    doc = to_json(profile)
    del doc["temporal_pairs"][0]["counters"]["total_instances"]
    with pytest.raises(RedloadError, match="missing field 'total_instances'"):
        load(_written(tmp_path, doc))
    doc = to_json(profile)
    doc["temporal_pairs"][0]["counters"] = 7
    with pytest.raises(RedloadError, match="malformed profile"):
        load(_written(tmp_path, doc))
    # A table is a list of rows; an empty {} was taken for an empty table.
    for value in (7, {}, ""):
        doc["objects"] = value
        with pytest.raises(RedloadError, match=f"profile: field 'objects' "
                           f"is {value!r}, not a list of rows"):
            load(_written(tmp_path, doc))


def test_load_checks_every_frame_document(tmp_path):
    # true and 1.0 equal 1: a frame that only equals a valid one is still
    # checked, wherever it comes.
    profile = analyze_events(*generate(Scenario("sparse_zeros",
                                                {"len": 64})), config=FULL)
    for bad in (True, 1.0):
        doc = to_json(profile)
        frame = doc["temporal_pairs"][-1]["new_context"][0]
        frame["line"] = bad if frame["line"] == 1 else float(frame["line"])
        row = len(doc["temporal_pairs"]) - 1
        with pytest.raises(RedloadError, match=f"temporal_pairs row {row} "
                           "new_context frame 0: field 'line' is"):
            load(_written(tmp_path, doc))


def test_post_merge_conservation():
    rng = random.Random(13)
    scenarios = [Scenario("random_mixed", {"loads": 1200, "seed": s})
                 for s in (1, 2, 3)]
    profiles = [analyze_events(*generate(sc), config=FULL)
                for sc in scenarios]
    merged = merge_all(profiles)
    assert sum(r.total_bytes_precise
               for r in merged.temporal_pairs.values()) == \
        merged.totals.total_nonfp_bytes
    assert sum(r.redundant_bytes_precise
               for r in merged.temporal_pairs.values()) == \
        merged.totals.redundant_nonfp_bytes
    assert sum(r.total_bytes_approx
               for r in merged.temporal_pairs.values()) == \
        merged.totals.total_fp_bytes
    assert sum(r.redundant_bytes_approx
               for r in merged.temporal_pairs.values()) == \
        merged.totals.redundant_fp_bytes
