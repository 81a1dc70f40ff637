"""Acceptance suite: one test per criterion, at the stated tolerances.

The conftest summary hook prints one pass/fail line per criterion at the
end of the run.
"""

import io
import random
import time

import pytest

from redload.cli import main as cli_main
from redload.engine import AnalysisConfig, analyze_events, analyze_path
from redload.errors import TraceDecodeError
from redload.profiles import load as load_profile
from redload.profiles import merge
from redload.report import build_report
from redload.sampling import SamplingConfig
from redload.temporal import program_fraction
from redload.trace import read_trace, write_trace
from redload.workloads import Scenario, generate

from oracles import (assert_profiles_equal, expected_analysis,
                     instance_fraction, scenario_analysis)
from test_profile_merge import _random_profile

FULL = AnalysisConfig(sampling=SamplingConfig.disabled())


def check_conservation(profile):
    """Criterion 8 invariants, applied to every profile an acceptance test
    produces."""
    t = profile.totals
    rows = profile.temporal_pairs.values()
    assert sum(r.total_bytes_precise for r in rows) == t.total_nonfp_bytes
    assert sum(r.total_bytes_approx for r in rows) == t.total_fp_bytes
    assert sum(r.redundant_bytes_precise for r in rows) == \
        t.redundant_nonfp_bytes
    assert sum(r.redundant_bytes_approx for r in rows) == t.redundant_fp_bytes
    assert t.redundant_nonfp_bytes <= t.total_nonfp_bytes
    assert t.redundant_fp_bytes <= t.total_fp_bytes
    (p, _), (a, _) = program_fraction(t)
    assert 0.0 <= p <= 1.0 and 0.0 <= a <= 1.0
    for group in (profile.temporal_pairs, profile.objects,
                  profile.spatial_pairs):
        for c in group.values():
            assert c.redundant_bytes_precise <= c.total_bytes_precise
            assert c.redundant_bytes_approx <= c.total_bytes_approx
            assert c.redundant_instances <= c.total_instances


def _run_full(scenario):
    events, sm = generate(scenario)
    profile = analyze_events(events, sm, FULL)
    check_conservation(profile)
    return profile


def _sweep_scenario(seed):
    return Scenario("random_mixed", {
        "loads": 10_000,
        "seed": seed,
        "fp_fraction": (0.15, 0.3, 0.45)[seed % 3],
        "churn": (0.01, 0.03)[seed % 2],
        "region_bytes": (160, 192, 256)[seed % 3],
    })


@pytest.fixture(scope="module")
def oracle_sweep():
    """Criteria 1 and 2 share one sweep over 100 seeded traces.

    Besides the total, the time of each stage (trace generation, test
    oracle, engine) is summed over the seeds so a slow sweep says where
    its time went.
    """
    t0 = time.monotonic()
    stages = {"generate": 0.0, "oracle": 0.0, "engine": 0.0}
    temporal_failures = []
    spatial_failures = []
    for seed in range(100):
        t_gen = time.monotonic()
        scenario = _sweep_scenario(seed)
        events, sm = generate(scenario)
        events = list(events)
        t_oracle = time.monotonic()
        expected = expected_analysis(events, sm)
        t_engine = time.monotonic()
        sink = []
        profile = analyze_events(events, sm, FULL,
                                 verdict_sink=sink.append)
        t_end = time.monotonic()
        stages["generate"] += t_oracle - t_gen
        stages["oracle"] += t_engine - t_oracle
        stages["engine"] += t_end - t_engine
        check_conservation(profile)

        got = [(tid, tv[0], tv[1]) for tid, tv, _ in sink]
        if got != expected.temporal_verdicts \
                or profile.totals != expected.profile.totals \
                or profile.temporal_pairs != expected.profile.temporal_pairs:
            temporal_failures.append(seed)

        got_s = [(tid, object_id - 1 if object_id is not None else None,
                  redundant) for tid, _, (redundant, object_id) in sink]
        if got_s != expected.spatial_verdicts \
                or profile.objects != expected.profile.objects \
                or profile.spatial_pairs != expected.profile.spatial_pairs:
            spatial_failures.append(seed)
        # Free this seed's traces, profiles and verdicts before the next
        # seed runs; kept alive, they are rescanned by every garbage
        # collection the next seed triggers.
        del events, expected, sink, profile, got, got_s
    elapsed = time.monotonic() - t0
    return {"temporal": temporal_failures, "spatial": spatial_failures,
            "elapsed": elapsed, "stages": stages}


def test_criterion_1_temporal_oracle_equivalence(oracle_sweep):
    assert oracle_sweep["temporal"] == []
    split = ", ".join(f"{name} {seconds:.1f}s"
                      for name, seconds in oracle_sweep["stages"].items())
    took = f"oracle sweep took {oracle_sweep['elapsed']:.1f}s ({split})"
    print(took)     # shown for a passing run with pytest -rP
    assert oracle_sweep["elapsed"] < 60.0, took


def test_criterion_2_spatial_oracle_equivalence(oracle_sweep):
    assert oracle_sweep["spatial"] == []


def test_criterion_3_scope_worked_examples_and_random():
    from redload.cct import ContextTree
    from redload.scope import resolve_scope

    # Inner-loop walkthrough: timestamps 3 and 5 select the inner loop.
    t = ContextTree()
    t.on_call(1)
    t.on_loop_head(11)
    t.on_loop_head(12)
    h_old, ts_old = t.current_load_context(2)
    t.on_loop_head(12)
    h_new, ts_new = t.current_load_context(2)
    assert (ts_old, ts_new) == (3, 5)
    assert t.nodes[resolve_scope(t, h_old, ts_old, h_new, ts_new)].ident == 12

    # Outer-loop walkthrough: timestamps 3 and 10, loops at 8 and 9,
    # select the outer loop.
    t = ContextTree()
    t.on_call(1)
    l1 = t.on_loop_head(11)
    first = None
    for _ in range(3):
        t.on_loop_head(12)
        h, ts = t.current_load_context(2)
        first = first or (h, ts)
    t.on_loop_head(11)
    l2 = t.on_loop_head(12)
    h_new, ts_new = t.current_load_context(2)
    assert (first[1], ts_new) == (3, 10)
    assert (t.nodes[l1].last_pass_ts, t.nodes[l2].last_pass_ts) == (8, 9)
    scope = resolve_scope(t, first[0], first[1], h_new, ts_new)
    assert t.nodes[scope].ident == 11

    # 200 seeded randomized nested-loop traces against the pass-history
    # oracle: scopes are part of every row key, so whole-profile equality
    # pins them exactly.
    for seed in range(200):
        scenario = Scenario("random_mixed",
                            {"loads": 1200, "seed": 9000 + seed,
                             "region_bytes": 96,
                             "fp_fraction": (0.0, 0.25)[seed % 2]})
        events, sm = generate(scenario)
        events = list(events)
        expected = expected_analysis(events, sm)
        profile = analyze_events(events, sm, FULL)
        assert_profiles_equal(expected.profile, profile)


def test_criterion_4_adjacent_equal_exact():
    profile = _run_full(Scenario("adjacent_equal"))
    row = profile.objects[("static", "A")]
    assert row.redundant_instances == 2
    assert row.total_instances == 4
    from redload.spatial import object_fractions
    (precise, defined), _ = \
        object_fractions(profile.objects)[("static", "A")]
    assert defined and precise == 0.5
    # No temporal redundancy: all four addresses are touched once.
    assert profile.totals.redundant_nonfp_bytes == 0


def _top_temporal_scope(profile):
    temporal, _ = build_report(profile, top=1)
    return temporal[0]["scope"]


def test_criterion_5_pattern_analogs():
    # Linear search: almost every load repeats the first query's scan.
    scenario = Scenario("linear_search")     # n=1000, queries=1000
    oracle = scenario_analysis(scenario)
    (o_precise, _), _ = program_fraction(oracle.profile.totals)
    profile = _run_full(scenario)
    (precise, _), _ = program_fraction(profile.totals)
    assert precise >= 0.95
    assert abs(precise - o_precise) <= 0.02
    scope = _top_temporal_scope(profile)
    assert scope[-1] == {"kind": "loop", "name": "",       # query loop
                         "file": "linear_search.c", "line": 15}

    # Forward copy: the constant is reloaded on every later invocation.
    scenario = Scenario("forward_copy")      # len=64, reps=20
    oracle = scenario_analysis(scenario)
    (o_precise, _), _ = program_fraction(oracle.profile.totals)
    profile = _run_full(scenario)
    (precise, _), _ = program_fraction(profile.totals)
    assert precise >= 0.9
    assert abs(precise - o_precise) <= 0.02
    scope = _top_temporal_scope(profile)
    assert scope[-1] == {"kind": "loop", "name": "",       # calling loop
                         "file": "forward_copy.c", "line": 13}

    # Sparse zeros: consecutive object loads mostly both read zero.
    scenario = Scenario("sparse_zeros")      # 90% zeros, block layout
    oracle = scenario_analysis(scenario)
    o_frac = instance_fraction(oracle.profile.objects)
    profile = _run_full(scenario)
    red = sum(r.redundant_instances for r in profile.objects.values())
    tot = sum(r.total_instances for r in profile.objects.values())
    frac = red / tot
    assert frac >= 0.85
    assert abs(frac - o_frac) <= 0.02

    # Approximate drift: within 1% every reload matches approximately,
    # and a 0.1% epsilon kills every match.
    scenario = Scenario("approx_drift")      # step 0.5%
    oracle = scenario_analysis(scenario)
    _, (o_approx, _) = program_fraction(oracle.profile.totals)
    profile = _run_full(scenario)
    _, (approx, defined) = program_fraction(profile.totals)
    assert defined and approx >= 0.99
    assert abs(approx - o_approx) <= 0.02
    events, sm = generate(scenario)
    tight = analyze_events(events, sm,
                           AnalysisConfig(sampling=SamplingConfig.disabled(),
                                          approx_epsilon=0.001))
    check_conservation(tight)
    _, (approx_tight, _) = program_fraction(tight.totals)
    assert approx_tight == 0.0
    oracle_tight = scenario_analysis(scenario, epsilon=0.001)
    _, (o_approx, _) = program_fraction(oracle_tight.profile.totals)
    assert o_approx == 0.0


def _fraction_under(scenario, sampling, klass="precise"):
    events, sm = generate(scenario)
    profile = analyze_events(events, sm, AnalysisConfig(sampling=sampling))
    check_conservation(profile)
    (p, _), (a, _) = program_fraction(profile.totals)
    return p if klass == "precise" else a


def test_criterion_6_sampling_fidelity():
    desk = SamplingConfig(window_enable=1_000, window_disable=99_000)

    # Short reuse distance (far below the window): sampled fractions stay
    # within 10 percentage points of full monitoring.
    fc = Scenario("forward_copy", {"len": 64, "reps": 2000})
    full = _fraction_under(fc, SamplingConfig.disabled())
    sampled = _fraction_under(fc, desk)
    assert abs(full - sampled) <= 0.10

    st = Scenario("stencil", {"nx": 200, "ny": 400})
    full = _fraction_under(st, SamplingConfig.disabled(), "approx")
    sampled = _fraction_under(st, desk, "approx")
    assert abs(full - sampled) <= 0.10

    # Long reuse distance (one query spans ~4000 instructions, beyond the
    # 1000-instruction window): the sampled fraction collapses, and
    # growing the window recovers it.
    ls = Scenario("linear_search", {"n": 2000, "queries": 60})
    full = _fraction_under(ls, SamplingConfig.disabled())
    ladder = [_fraction_under(ls, SamplingConfig(window_enable=we,
                                                 window_disable=99_000))
              for we in (1_000, 10_000, 30_000, 100_000)]
    assert full - ladder[0] > 0.10          # underestimates
    assert ladder == sorted(ladder)         # recovery grows with the window
    assert full - ladder[-2] <= 0.10
    assert full - ladder[-1] <= 0.10


def test_criterion_7_merge_algebra():
    from redload.profiles import Profile

    rng = random.Random(20240614)
    for _ in range(100):
        p1, p2, p3 = (_random_profile(rng) for _ in range(3))
        assert merge(p1, p2) == merge(p2, p1)
        assert merge(merge(p1, p2), p3) == merge(p1, merge(p2, p3))
        assert merge(p1, Profile()) == p1

    single = _run_full(Scenario("sparse_zeros", {"len": 300}))
    double = _run_full(Scenario("sparse_zeros", {"len": 300, "threads": 2}))
    assert double.thread_count == 2 * single.thread_count
    for attr in ("total_nonfp_bytes", "total_fp_bytes",
                 "redundant_nonfp_bytes", "redundant_fp_bytes"):
        assert getattr(double.totals, attr) == \
            2 * getattr(single.totals, attr)
    for group in ("temporal_pairs", "objects", "spatial_pairs"):
        ours = getattr(single, group)
        theirs = getattr(double, group)
        assert set(ours) == set(theirs)
        for key, row in ours.items():
            got = theirs[key]
            for attr in ("redundant_bytes_precise", "redundant_bytes_approx",
                         "total_bytes_precise", "total_bytes_approx",
                         "redundant_instances", "total_instances",
                         "fp_exact_instances"):
                assert getattr(got, attr) == 2 * getattr(row, attr)


def test_criterion_8_conservation_suite():
    # check_conservation runs after every acceptance analysis; assert it
    # here over a representative spread, including a sampled run.
    for name, params in (("adjacent_equal", {}),
                         ("hash_collision", {}),
                         ("callee_spill", {}),
                         ("random_mixed", {"loads": 5000, "seed": 123})):
        _run_full(Scenario(name, params))
    events, sm = generate(Scenario("random_mixed",
                                   {"loads": 5000, "seed": 321}))
    sampled = analyze_events(
        events, sm,
        AnalysisConfig(sampling=SamplingConfig(window_enable=700,
                                               window_disable=4300)))
    check_conservation(sampled)


@pytest.fixture(scope="module")
def big_trace(tmp_path_factory):
    path = tmp_path_factory.mktemp("big") / "big.lrt"
    events, sm = generate(Scenario("linear_search",
                                   {"n": 2500, "queries": 2000}))
    with open(path, "wb") as f:
        write_trace(events, sm, f)
    return path


def test_criterion_9_plumbing_and_performance(tmp_path, big_trace, capsys):
    # Round-trip over a generated scenario.
    events, sm = generate(Scenario("hash_collision", {"searches": 20}))
    original = list(events)
    buf = io.BytesIO()
    write_trace(original, sm, buf)
    buf.seek(0)
    back, _ = read_trace(buf)
    assert list(back) == original

    # Reader robustness on mutated bytes.
    rng = random.Random(5150)
    raw = buf.getvalue()
    for _ in range(100):
        mutated = bytearray(raw)
        for _ in range(rng.randrange(1, 8)):
            mutated[rng.randrange(len(mutated))] = rng.randrange(256)
        try:
            evs, _ = read_trace(io.BytesIO(bytes(mutated)))
            for _ in evs:
                pass
        except TraceDecodeError:
            pass

    # CLI end to end.
    trace = tmp_path / "t.lrt"
    prof = tmp_path / "p.json"
    merged = tmp_path / "m.json"
    assert cli_main(["gen", "--scenario", "adjacent_equal", "-o",
                     str(trace)]) == 0
    assert cli_main(["analyze", str(trace), "-o", str(prof),
                     "--no-sampling"]) == 0
    assert cli_main(["merge", str(prof), str(prof), "-o", str(merged)]) == 0
    assert cli_main(["report", str(merged), "--top", "5"]) == 0
    out = capsys.readouterr().out
    assert "R_prog" in out
    assert load_profile(merged).thread_count == 2

    # A ten-million-event trace analyzes inside the budget with the
    # default sampling windows.
    t0 = time.monotonic()
    profile = analyze_path(str(big_trace), AnalysisConfig())
    elapsed = time.monotonic() - t0
    took = f"analyze took {elapsed:.1f}s"
    print(took)     # shown for a passing run with pytest -rP
    check_conservation(profile)
    assert profile.totals.total_nonfp_bytes > 0
    assert elapsed < 120.0, took
