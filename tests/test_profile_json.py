"""Saved profiles are byte-identical to the reference encoding.

`reference_json.reference_bytes` builds the whole document as dicts and
hands it to `json.dumps(indent=1, sort_keys=True)`; `profiles.save`
streams it row by row and must write exactly the same bytes.
"""

import json
import tracemalloc

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from redload import cli
from redload.engine import AnalysisConfig, analyze_events
from redload.profiles import (META_MIXED, Profile, load, merge_all, save,
                              to_json)
from redload.sampling import SamplingConfig
from redload.spatial import DYNAMIC, STATIC
from redload.temporal import PairCounters, ProgramTotals
from redload.trace import SourceMap
from redload.workloads import Scenario, generate, scenario_names

from helpers import SMALL_SCENARIOS, Build
from reference_json import reference_bytes, reference_doc

FULL = AnalysisConfig(sampling=SamplingConfig.disabled())


def _saved(profile, tmp_path, name="p.json"):
    path = tmp_path / name
    save(profile, path)
    return path.read_bytes()


def assert_reference_bytes(profile, tmp_path):
    expected = reference_bytes(profile)
    assert _saved(profile, tmp_path) == expected
    assert to_json(profile) == json.loads(expected)


def test_small_scenarios_cover_every_scenario():
    assert sorted(SMALL_SCENARIOS) == scenario_names()


@pytest.mark.parametrize("threads", [1, 3])
@pytest.mark.parametrize("name", sorted(SMALL_SCENARIOS))
def test_save_matches_reference_for_every_scenario(name, threads, tmp_path):
    params = dict(SMALL_SCENARIOS[name], threads=threads)
    profile = analyze_events(*generate(Scenario(name, params)), FULL)
    assert profile.thread_count == threads
    assert profile.temporal_pairs
    assert_reference_bytes(profile, tmp_path)


@pytest.mark.parametrize("meta", [None, META_MIXED,
                                  {"b": [1, 2.5, {"z": None}], "a": {}}])
def test_empty_profile_matches_reference(meta, tmp_path):
    assert_reference_bytes(Profile(meta=meta), tmp_path)


# Names and files that need escaping: non-ASCII (including a character
# outside the BMP, written as a surrogate pair), quotes, backslashes and
# control characters.
AWKWARD = ["main", "", "für", "日本", "\U0001F642", 'say "hi"',
           "back\\slash", "tab\there", "nl\nline", "\x00\x1f\x7f", " "]


def _frame(i, kind="function"):
    text = AWKWARD[i % len(AWKWARD)]
    if kind == "loop":
        return ("loop", "", text + ".c", i)
    return (kind, text, AWKWARD[(i + 3) % len(AWKWARD)], i)


def _counters(*values):
    return PairCounters(*values)


def test_awkward_profile_matches_reference(tmp_path):
    path = tuple(_frame(i) for i in range(len(AWKWARD)))
    loop = (_frame(1, "loop"),)
    site = (_frame(2, "load"),)
    profile = Profile(totals=ProgramTotals(10, 8, 3, 1), thread_count=2,
                      meta=META_MIXED)
    rows = profile.temporal_pairs
    rows[(None, path + site, None)] = _counters(1, 2, 3, 4, 5, 6, 7)
    rows[((), (), None)] = _counters(0, 0, 0, 0, 0, 0, 0)
    rows[(path + site, path[:1] + site, path[:1] + loop)] = \
        _counters(0, 0, 8, 0, 0, 1, 0)
    static = (STATIC, 'the "heap" \\ é')
    dynamic = (DYNAMIC, path[:4] + loop)
    empty_dynamic = (DYNAMIC, ())
    for n, obj in enumerate((static, dynamic, empty_dynamic)):
        profile.objects[obj] = _counters(n, 0, 4, 0, 1, 2, 0)
        profile.spatial_pairs[(obj, path + site, site, None)] = \
            _counters(0, n, 0, 8, 1, 2, 1)
        profile.spatial_pairs[(obj, (), path[:2], path[:2] + loop)] = \
            _counters(4, 0, 4, 0, 1, 1, 0)
    assert_reference_bytes(profile, tmp_path)


def test_rows_with_long_shared_key_prefixes_match_reference(tmp_path):
    # Equal counters and long equal paths push the first difference deep
    # into each row's sort key: at the last frame, at a digit of a line or
    # a counter (1 against 10), at an escaped character, or where one path
    # is a prefix of another.
    base = tuple(("function", f"f{i}", "deep.c", i) for i in range(30))
    tails = [(), (("load", "x", "deep.c", 1),), (("load", "x", "deep.c", 10),),
             (("load", "x", "deep.c", 100),), (("load", "x", "deep.c", 2),),
             (("load", 'x"', "deep.c", 1),), (("load", "x\\", "deep.c", 1),),
             (("load", "x", "deep.c", 1), ("load", "x", "deep.c", 1))]
    profile = Profile(thread_count=1)
    for a, tail in enumerate(tails):
        for b, other in enumerate(tails):
            for c, scope in ((1, None), (10, base[:a + 1]),
                             (2, base[:a + 2])):
                key = (base + tail, base + other, scope)
                profile.temporal_pairs[key] = \
                    _counters(0, 0, c * (b + 1), 0, 0, c, 0)
    assert len(profile.temporal_pairs) == len(tails) ** 2 * 3
    assert_reference_bytes(profile, tmp_path)


def test_a_deep_recursion_saves_in_less_memory_than_half_its_file(
        tmp_path):
    # One redundant load per level of a d-deep recursion: row i pairs the
    # contexts of levels i - 1 and i, so the file grows as d**2. save keeps
    # one sort key per distinct context and no context's text, so its peak
    # stays far below the file; holding every row's text would not.
    depth = 300
    source_map = SourceMap(sites={1: ("f", "deep.c", 10),
                                  2: ("f", "deep.c", 11)})
    build = Build(source_map=source_map)
    build.thread_start()
    for _ in range(depth):
        build.call(1)
        build.load(0x1000, b"\x01\x02\x03\x04", site=2)
    for _ in range(depth):
        build.ret(1)
    profile = analyze_events(build.events, source_map, FULL)
    assert len(profile.temporal_pairs) == depth
    path = tmp_path / "deep.json"
    tracemalloc.start()
    try:
        save(profile, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    saved = path.read_bytes()
    assert saved == reference_bytes(profile)
    assert peak < len(saved) / 2, (peak, len(saved))


_texts = st.text(alphabet=st.characters(blacklist_categories=("Cs",)),
                 max_size=6)
_frames = st.one_of(
    st.tuples(st.sampled_from(["function", "load"]), _texts, _texts,
              st.integers(0, 2 ** 40)),
    st.tuples(st.just("loop"), st.just(""), _texts, st.integers(0, 99)))
_paths = st.lists(_frames, max_size=5).map(tuple)
_counter_rows = st.builds(PairCounters, *[st.integers(0, 10 ** 12)] * 7)
_objects = st.one_of(st.tuples(st.just(STATIC), _texts),
                     st.tuples(st.just(DYNAMIC), _paths))


def _json_objects(values):
    """Dicts of `values` whose keys are all strings or all ints."""
    return (st.dictionaries(_texts, values, max_size=3)
            | st.dictionaries(st.integers(-99, 99), values, max_size=3))


# Any object json can write: nested dicts, lists and tuples, strings that
# need escaping, ints, finite floats, bools and None.
_metas = st.none() | _json_objects(st.recursive(
    st.none() | st.booleans() | st.integers(-2 ** 64, 2 ** 64)
    | st.floats(allow_nan=False, allow_infinity=False) | _texts,
    lambda children: (st.lists(children, max_size=3)
                      | st.lists(children, max_size=3).map(tuple)
                      | _json_objects(children)),
    max_leaves=8))


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(temporal=st.dictionaries(
           st.tuples(st.none() | _paths, _paths, st.none() | _paths),
           _counter_rows, max_size=8),
       objects=st.dictionaries(_objects, _counter_rows, max_size=4),
       spatial=st.dictionaries(
           st.tuples(_objects, st.none() | _paths, _paths,
                     st.none() | _paths),
           _counter_rows, max_size=8),
       meta=_metas)
def test_random_profiles_match_reference(temporal, objects, spatial, meta,
                                         tmp_path):
    profile = Profile(totals=ProgramTotals(7, 5, 3, 2), thread_count=1,
                      temporal_pairs=temporal, objects=objects,
                      spatial_pairs=spatial, meta=meta)
    assert_reference_bytes(profile, tmp_path)
    # The rows above may hold an empty new context, which load rejects.
    path = tmp_path / "meta.json"
    save(Profile(meta=meta), path)
    assert load(path).meta == json.loads(json.dumps(meta))


def test_cli_merge_output_matches_reference(tmp_path):
    inputs = []
    for n, (name, config) in enumerate((
            ("random_mixed", FULL), ("stencil", FULL),
            ("random_mixed", AnalysisConfig(approx_epsilon=0.02)))):
        params = dict(SMALL_SCENARIOS[name], threads=2)
        profile = analyze_events(*generate(Scenario(name, params)), config)
        inputs.append(str(tmp_path / f"in{n}.json"))
        save(profile, inputs[-1])
    out = tmp_path / "merged.json"
    assert cli.main(["merge", *inputs, "-o", str(out)]) == 0
    merged = merge_all([load(p) for p in inputs])
    assert merged.meta == META_MIXED
    assert out.read_bytes() == reference_bytes(merged)
    assert to_json(merged) == json.loads(reference_bytes(merged))
    assert reference_doc(load(out)) == json.loads(out.read_bytes())
