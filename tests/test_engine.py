"""Engine wiring: demultiplexing, gating, error positions, file formats."""

import random

import pytest

from redload import engine
from redload.cli import main as cli_main
from redload.engine import AnalysisConfig, analyze_events, analyze_path
from redload.errors import ConfigError, MalformedTraceError, TraceDecodeError
from redload.profiles import Profile, merge_all, save
from redload.sampling import SamplingConfig
from redload.scope import ScopeBudget
from redload.trace import (ALLOC, CALL, FREE, LOAD, LOOPHEAD, RETURN,
                           STATIC_IMAGE, THREAD_START, SourceMap, TraceEvent,
                           read_trace, write_text_trace, write_trace)
from redload.workloads import Scenario, generate

from helpers import SMALL_SCENARIOS, Build, is_monitored, u32


@pytest.mark.parametrize("epsilon", ["0.1", True, False, None, [0.1]],
                         ids=["str", "true", "false", "none", "list"])
def test_approx_epsilon_must_be_an_int_or_float_not_a_bool(epsilon):
    with pytest.raises(ConfigError,
                       match="^approx_epsilon must be an int or float, not "):
        AnalysisConfig(approx_epsilon=epsilon)


def test_int_and_float_epsilons_reach_the_meta_as_given():
    for epsilon in (0, 2, 0.0, 0.25):
        meta = AnalysisConfig(approx_epsilon=epsilon).meta()
        assert meta["approx_epsilon"] == epsilon
        assert type(meta["approx_epsilon"]) is type(epsilon)


FULL = AnalysisConfig(sampling=SamplingConfig.disabled())


def test_empty_trace_gives_zero_profile():
    profile = analyze_events([], SourceMap(), FULL)
    assert profile == Profile()
    assert profile.totals.total_nonfp_bytes == 0


def test_malformed_trace_error_names_event_position():
    sm = SourceMap()
    sm.add_site(1, "main", "m.c", 1)
    events = [TraceEvent(THREAD_START, 0, 0),
              TraceEvent(CALL, 0, 1, site_id=1),
              TraceEvent(RETURN, 0, 2, site_id=1),
              TraceEvent(RETURN, 0, 3, site_id=1)]
    with pytest.raises(MalformedTraceError) as err:
        analyze_events(events, sm, FULL)
    assert "event 3" in str(err.value)



def test_return_must_match_its_call_site():
    sm = SourceMap()
    sm.add_site(1, "main", "m.c", 1)
    sm.add_site(2, "helper", "m.c", 5)
    events = [TraceEvent(THREAD_START, 4, 0),
              TraceEvent(CALL, 4, 1, site_id=1),
              TraceEvent(CALL, 4, 2, site_id=2),
              TraceEvent(RETURN, 4, 3, site_id=2),
              TraceEvent(CALL, 4, 5, site_id=2),
              TraceEvent(RETURN, 4, 8, site_id=1)]
    analyze_events(events[:4], sm, FULL)
    with pytest.raises(MalformedTraceError) as err:
        analyze_events(events, sm, FULL)
    message = str(err.value)
    assert message.startswith("event 5 (thread 4, ins_index 8): ")
    assert "site_id 1" in message and "site_id 2" in message

def test_unmatched_free_names_position_thread_and_ins_index():
    events = [TraceEvent(THREAD_START, 7, 10),
              TraceEvent(ALLOC, 7, 12, base=0x1000, alloc_size=16),
              TraceEvent(FREE, 7, 15, base=0x2000)]
    with pytest.raises(MalformedTraceError) as err:
        analyze_events(events, SourceMap(), FULL)
    message = str(err.value)
    assert "event 2" in message
    assert "thread 7" in message
    assert "ins_index 15" in message
    assert "0x2000" in message


def test_overlapping_alloc_reported_with_position():
    b = Build()
    b.sm.add_site(1, "main", "m.c", 1)
    b.thread_start()
    b.call(1)
    b.alloc(0x1000, 64)
    b.alloc(0x1010, 8)
    with pytest.raises(MalformedTraceError) as err:
        analyze_events(b.events, b.sm, FULL)
    assert "event 3" in str(err.value)


def test_multiplexed_equals_split_threads_merged():
    scenario = Scenario("forward_copy", {"len": 12, "reps": 5, "threads": 2})
    events, sm = generate(scenario)
    events = list(events)
    multiplexed = analyze_events(events, sm, FULL)

    profiles = []
    for tid in (0, 1):
        subset = [e for e in events
                  if e.thread_id == tid or e.kind == STATIC_IMAGE]
        profiles.append(analyze_events(subset, sm, FULL))
    split = merge_all(profiles)
    split.thread_count = multiplexed.thread_count
    assert split == multiplexed


def test_unmonitored_loads_touch_nothing():
    sm = SourceMap()
    sm.add_site(1, "main", "m.c", 1)
    sm.add_site(2, "main", "m.c", 5)
    # Window of 2 on, 2 off: ins 2 falls in the gap, 4 and 8 are inside.
    sampling = SamplingConfig(window_enable=2, window_disable=2)
    events = [
        TraceEvent(THREAD_START, 0, 0),
        TraceEvent(CALL, 0, 1, site_id=1),
        TraceEvent(LOAD, 0, 2, addr=0x10, size=4, value=u32(9), site_id=2),
        TraceEvent(LOAD, 0, 4, addr=0x10, size=4, value=u32(9), site_id=2),
        TraceEvent(LOAD, 0, 8, addr=0x10, size=4, value=u32(9), site_id=2),
        TraceEvent(RETURN, 0, 9, site_id=1),
    ]
    profile = analyze_events(events, sm,
                             AnalysisConfig(sampling=sampling))
    rows = profile.temporal_pairs
    # Two monitored loads: a first touch (ins 4) and one redundant (ins 8)
    # pairing with it; the unmonitored load at ins 2 left no trace.
    assert sum(r.total_instances for r in rows.values()) == 2
    assert sum(r.redundant_instances for r in rows.values()) == 1
    assert profile.totals.total_nonfp_bytes == 8


def test_alloc_context_is_event_time_context():
    b = Build()
    b.sm.add_site(1, "main", "m.c", 1)
    b.sm.add_site(2, "make_buf", "m.c", 7)
    b.sm.add_site(3, "main", "m.c", 12)
    b.thread_start()
    b.call(1)
    b.call(2)
    b.alloc(0x1000, 16)
    b.ret(2)
    b.load(0x1000, u32(1), 3)
    b.load(0x1004, u32(1), 3)
    b.ret(1)
    profile = analyze_events(b.events, b.sm, FULL)
    ((key, row),) = profile.objects.items()
    assert key[0] == "dynamic"
    assert [f[1] for f in key[1]] == ["main", "make_buf"]
    assert row.redundant_instances == 1


def test_analyze_path_binary_and_text(tmp_path):
    events, sm = generate(Scenario("adjacent_equal"))
    events = list(events)
    binary = tmp_path / "t.lrt"
    with open(binary, "wb") as f:
        write_trace(events, sm, f)
    text = tmp_path / "t.txt"
    with open(text, "w") as f:
        write_text_trace(events, sm, f)
    p_bin = analyze_path(str(binary), FULL)
    p_txt = analyze_path(str(text), FULL)
    assert p_bin == p_txt

    junk = tmp_path / "junk.bin"
    junk.write_bytes(b"\x00\x01\x02")
    with pytest.raises(TraceDecodeError):
        analyze_path(str(junk), FULL)


def test_two_thread_random_trace_matches_oracle():
    from oracles import assert_profiles_equal, expected_analysis
    scenario = Scenario("random_mixed",
                        {"loads": 3000, "seed": 1717, "threads": 2})
    events, sm = generate(scenario)
    events = list(events)
    assert {e.thread_id for e in events} == {0, 1}
    expected = expected_analysis(events, sm)
    profile = analyze_events(events, sm, FULL)
    assert_profiles_equal(expected.profile, profile)


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("name", sorted(SMALL_SCENARIOS))
def test_file_roundtrips_analyze_like_memory(name, threads, tmp_path):
    # Write, read and analyze, in both forms, gives the profile and the
    # saved bytes of analyzing the events in memory.
    params = dict(SMALL_SCENARIOS[name], threads=threads)
    events, sm = generate(Scenario(name, params))
    events = list(events)
    expected = analyze_events(events, sm, FULL)
    save(expected, tmp_path / "memory.json")
    for form, write, mode in (("binary", write_trace, "wb"),
                              ("text", write_text_trace, "w")):
        trace = tmp_path / f"trace.{form}"
        with open(trace, mode) as f:
            write(events, sm, f)
        profile = analyze_path(str(trace), FULL)
        assert profile == expected, form
        save(profile, tmp_path / f"{form}.json")
        assert (tmp_path / f"{form}.json").read_bytes() == \
            (tmp_path / "memory.json").read_bytes(), form


def _capture_workers(monkeypatch):
    workers = []

    class CapturedWorker(engine.ThreadWorker):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            workers.append(self)

    monkeypatch.setattr(engine, "ThreadWorker", CapturedWorker)
    return workers


@pytest.mark.parametrize("seed", range(10))
def test_analysis_without_sink_matches_sink_and_oracle(seed, tmp_path):
    # The CLI never passes a verdict sink; without one the analysis must
    # give the profile of the sink path and of the oracle, to the byte.
    from oracles import assert_profiles_equal, expected_analysis
    scenario = Scenario("random_mixed", {
        "loads": 1500, "seed": 900 + seed, "threads": 1 + seed % 2,
        "fp_fraction": (0.1, 0.3, 0.5)[seed % 3],
        "churn": (0.005, 0.02, 0.05, 0.1)[seed % 4]})
    events, sm = generate(scenario)
    events = list(events)
    plain = analyze_events(events, sm, FULL)
    sink = []
    sunk = analyze_events(events, sm, FULL, verdict_sink=sink.append)
    assert len(sink) == sum(e.kind == LOAD for e in events)
    assert plain == sunk
    save(plain, tmp_path / "plain.json")
    save(sunk, tmp_path / "sunk.json")
    assert (tmp_path / "plain.json").read_bytes() == \
        (tmp_path / "sunk.json").read_bytes()
    assert_profiles_equal(expected_analysis(events, sm).profile, plain)


@pytest.mark.parametrize("name,params", [
    ("forward_copy", {"len": 8, "reps": 6}),
    ("random_mixed", {"loads": 2000, "seed": 41, "threads": 2}),
])
def test_scope_budget_traversals_are_exact(name, params, monkeypatch):
    # A pair row asks its budget once, at its first redundant instance: a
    # later ask could not change the scope. So the traversals, and the
    # asks, are the number of pair rows with a redundant instance.
    events, sm = generate(Scenario(name, params))
    events = list(events)
    asks = []
    resolve = ScopeBudget.resolve

    def counted(budget, *args):
        asks.append(budget)
        return resolve(budget, *args)

    monkeypatch.setattr(ScopeBudget, "resolve", counted)
    workers = _capture_workers(monkeypatch)
    analyze_events(events, sm, FULL)
    redundant = 0
    for w in workers:
        for budget, rows in ((w.temporal_budget, w.temporal.rows),
                             (w.spatial_budget, w.spatial.pair_rows)):
            expected = sum(r.redundant_instances >= 1 for r in rows.values())
            assert budget.traversals == expected
            assert sum(b is budget for b in asks) == expected
            redundant += sum(r.redundant_instances for r in rows.values())
    # The rule has work to do: some pair row has more than one redundant
    # instance.
    assert len(asks) < redundant


# 2 instructions monitored in every 102: ins_index 10 to 99 fall in a gap.
GAP = AnalysisConfig(sampling=SamplingConfig(2, 100))


def _write_binary(events, sm, path):
    with open(path, "wb") as f:
        write_trace(events, sm, f)
    return str(path)


def _assert_error_position(events, sm, tmp_path, capsys, monkeypatch,
                           kinds, skipped, prefix):
    """The gated decoder yields `kinds` and skips `skipped` records, and
    analyze_events, analyze_path and the CLI all fail with `prefix`."""
    path = _write_binary(events, sm, tmp_path / "t.lrt")
    with open(path, "rb") as f:
        decoded, _ = read_trace(f)
        decoded.sampling = GAP.sampling
        assert [ev.kind for ev in decoded] == kinds
        assert decoded.skipped == skipped

    with pytest.raises(MalformedTraceError) as memory:
        analyze_events(events, sm, GAP)
    opened = []

    def recorded_read_trace(source):
        decoded, source_map = read_trace(source)
        opened.append(decoded)
        return decoded, source_map

    monkeypatch.setattr(engine.tr, "read_trace", recorded_read_trace)
    with pytest.raises(MalformedTraceError) as binary:
        analyze_path(path, GAP)
    assert [decoded.skipped for decoded in opened] == [skipped]
    assert str(memory.value).startswith(prefix)
    assert str(binary.value) == str(memory.value)
    rc = cli_main(["analyze", path, "-o", str(tmp_path / "p.json"),
                   "--window-enable", "2", "--window-disable", "100"])
    assert rc == 1
    assert f"redload analyze: {prefix}" in capsys.readouterr().err


def _bad_return_after(middle):
    """Events of thread 0: a call at site 1, `middle`, and a return at
    site 2, which does not match the call."""
    sm = SourceMap()
    sm.add_site(1, "main", "m.c", 1)
    sm.add_site(2, "helper", "m.c", 5)
    sm.add_loop(11, "m.c", 2)
    return ([TraceEvent(THREAD_START, 0, 0),
             TraceEvent(CALL, 0, 1, site_id=1)] + middle
            + [TraceEvent(RETURN, 0, 20, site_id=2)]), sm


def test_gated_decoder_keeps_error_positions(tmp_path, capsys,
                                            monkeypatch):
    # The decoder drops the five unmonitored loads, yet the engine's
    # error still counts them: the bad return is event 7.
    events, sm = _bad_return_after(
        [TraceEvent(LOAD, 0, ins, addr=0x100, size=8, value=bytes(8),
                    site_id=1) for ins in range(10, 15)])
    _assert_error_position(events, sm, tmp_path, capsys, monkeypatch,
                           [THREAD_START, CALL, RETURN], 5,
                           "event 7 (thread 0, ins_index 20): ")


def test_gated_decoder_keeps_error_positions_past_folded_passes(
        tmp_path, capsys, monkeypatch):
    # Three passes of one loop, with dropped loads between them, reach the
    # engine as one loop head; the bad return is still event 9.
    middle = []
    for ins in range(10, 17):
        middle.append(
            TraceEvent(LOOPHEAD, 0, ins, loop_id=11, site_id=1) if ins % 2
            else TraceEvent(LOAD, 0, ins, addr=0x100, size=8,
                            value=bytes(8), site_id=1))
    events, sm = _bad_return_after(middle)
    _assert_error_position(events, sm, tmp_path, capsys, monkeypatch,
                           [THREAD_START, CALL, LOOPHEAD, RETURN], 6,
                           "event 9 (thread 0, ins_index 20): ")


def test_gated_decoder_keeps_thread_count(tmp_path):
    # Thread 1's only events are loads the gate drops.
    sm = SourceMap()
    sm.add_site(1, "main", "m.c", 1)
    b = Build(tid=0, source_map=sm)
    b.thread_start()
    b.call(1)
    b.load(0x100, u32(3), 1)
    b.ret(1)
    events = b.events + [TraceEvent(LOAD, 1, ins, addr=0x200, size=4,
                                    value=u32(ins), site_id=1)
                         for ins in (10, 11, 12)]
    path = _write_binary(events, sm, tmp_path / "t.lrt")
    expected = analyze_events(events, sm, GAP)
    assert expected.thread_count == 2
    profile = analyze_path(path, GAP)
    assert profile.thread_count == expected.thread_count
    assert profile == expected


SAMPLINGS = [SamplingConfig(1, 0), SamplingConfig(1, 1), SamplingConfig(2, 3),
             SamplingConfig(7, 50), SamplingConfig(1000, 99000),
             SamplingConfig.disabled()]


def _verdicts(sink):
    return [(tid, *tv, *sv) for tid, tv, sv in sink]


def _analyze_three_ways(events, sm, config, tmp_path):
    """(profile, saved bytes, verdicts) of `events` under `config`, by
    source: a binary file (gated in the decoder), a text file and the
    decoded events in memory (gated in the engine only). Each source gives
    the same profile with a verdict sink as without one."""
    binary = _write_binary(events, sm, tmp_path / "t.lrt")
    text = tmp_path / "t.txt"
    with open(text, "w") as f:
        write_text_trace(events, sm, f)
    with open(binary, "rb") as f:
        decoded = list(read_trace(f)[0])
    results = {}
    for label, run in (
            ("binary", lambda sink: analyze_path(binary, config, sink)),
            ("text", lambda sink: analyze_path(str(text), config, sink)),
            ("memory", lambda sink: analyze_events(decoded, sm, config,
                                                   sink))):
        sink = []
        profile = run(sink.append)
        assert run(None) == profile, label
        save(profile, tmp_path / f"{label}.json")
        results[label] = (profile, (tmp_path / f"{label}.json").read_bytes(),
                          _verdicts(sink))
    return results


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("name", sorted(SMALL_SCENARIOS))
def test_gated_decoder_analyzes_like_every_other_source(name, threads,
                                                        tmp_path):
    # A binary file (gated in the decoder), a text file and the decoded
    # events in memory (gated in the engine only) give one profile, the
    # same saved bytes and verdicts for the same loads.
    params = dict(SMALL_SCENARIOS[name], threads=threads)
    events, sm = generate(Scenario(name, params))
    events = list(events)
    for sampling in SAMPLINGS:
        results = _analyze_three_ways(
            events, sm, AnalysisConfig(sampling=sampling), tmp_path)
        monitored = sum(e.kind == LOAD and is_monitored(e.ins_index, sampling)
                        for e in events)
        assert len(results["binary"][2]) == monitored, sampling
        for label in ("text", "memory"):
            assert results[label] == results["binary"], (label, sampling)


# 4 instructions monitored in every 24: ins_index 4 to 23 and 28 to 47
# fall in gaps.
FOLD = AnalysisConfig(sampling=SamplingConfig(4, 20))


def _fold_trace():
    """Two threads whose gap events interleave, under FOLD: nested loops
    11 (outer) and 12 (inner) in thread 0, loop 12 in thread 1, which
    starts with a loop head in a gap, and a run of passes that ends the
    stream. The loads of thread 0 at ins_index 3 and 25 pair across a
    gap."""
    sm = SourceMap()
    sm.add_site(1, "main", "f.c", 1)
    sm.add_site(2, "main", "f.c", 4)
    sm.add_loop(11, "f.c", 2)
    sm.add_loop(12, "f.c", 3)

    def head(tid, ins, loop_id):
        return TraceEvent(LOOPHEAD, tid, ins, loop_id=loop_id, site_id=1)

    def load(tid, ins, addr):
        return TraceEvent(LOAD, tid, ins, addr=addr, size=4,
                          value=u32(addr), site_id=2)

    events = [
        TraceEvent(STATIC_IMAGE, 0, 0, objects=(("A", 0x100, 64),)),
        TraceEvent(CALL, 0, 1, site_id=1),
        head(0, 2, 11), load(0, 3, 0x100), head(0, 4, 12),
        head(1, 5, 12), load(0, 5, 0x100), load(1, 6, 0x104),
        head(1, 7, 12),
        head(0, 6, 12), head(1, 8, 12), head(0, 7, 12),
        load(0, 8, 0x100), head(0, 9, 12), head(0, 10, 12),
        head(0, 11, 11), head(0, 12, 12), load(0, 13, 0x104),
        head(0, 14, 12), load(1, 9, 0x104), head(0, 24, 12),
        load(0, 25, 0x100),
        load(1, 24, 0x104), head(1, 25, 12), load(1, 26, 0x104),
        head(1, 30, 12), load(1, 31, 0x104), head(1, 32, 12),
        load(0, 30, 0x100), head(1, 33, 12),
    ]
    return events, sm


def test_gated_decoder_folds_loop_head_runs(tmp_path):
    # A run of one loop's passes in one thread, with only dropped loads
    # between them, reaches the engine as its first loop head: each later
    # pass repeats the loop head yielded last and is dropped. Any built
    # event, another thread or another loop ends the run.
    events, sm = _fold_trace()
    path = _write_binary(events, sm, tmp_path / "t.lrt")
    with open(path, "rb") as f:
        decoded, _ = read_trace(f)
        decoded.sampling = FOLD.sampling
        got = [(ev.kind, ev.thread_id, ev.ins_index) for ev in decoded]
    H, L = LOOPHEAD, LOAD
    assert got == [(STATIC_IMAGE, 0, 0), (CALL, 0, 1), (H, 0, 2), (L, 0, 3),
                   (H, 0, 4), (H, 1, 5), (H, 0, 6), (H, 1, 8), (H, 0, 7),
                   (H, 0, 11), (H, 0, 12), (L, 0, 25), (L, 1, 24), (H, 1, 25),
                   (L, 1, 26), (H, 1, 30)]
    dropped = sum(ev.kind == LOAD and not is_monitored(ev.ins_index,
                                                       FOLD.sampling)
                  for ev in events)
    repeats = (sum(ev.kind == H for ev in events)
               - sum(kind == H for kind, _, _ in got))
    assert (dropped, repeats) == (7, 7)
    assert decoded.skipped == dropped + repeats
    assert len(got) + decoded.skipped == len(events)
    # Ungated, every record is its own event.
    with open(path, "rb") as f:
        assert list(read_trace(f)[0]) == events


def test_folded_loop_heads_analyze_like_every_pass(tmp_path):
    # Binary (repeated passes dropped in the decoder), text and in-memory
    # events give one profile, the same saved bytes and the same verdicts,
    # prior timestamps included.
    events, sm = _fold_trace()
    results = _analyze_three_ways(events, sm, FOLD, tmp_path)
    profile, _, verdicts = results["binary"]
    assert [v[1] for v in verdicts] == [False, True, False, True]
    assert results["binary"] == results["text"] == results["memory"]
    # The pair across the gap has the outer loop (f.c:2) as its scope.
    assert any(scope and scope[-1] == ("loop", "", "f.c", 2)
               for _, _, scope in profile.temporal_pairs)


def _empty_pass_trace(seed, threads=3, actions=400):
    """Events of `threads` interleaved threads whose loops often pass with
    nothing ticked since their last pass: back-to-back passes of one loop,
    passes with only a call and its return or an alloc and its free
    between them, and nested loops left and re-entered. Loads read few
    addresses and values, so they pair across such runs."""
    rng = random.Random(seed)
    sm = SourceMap()
    for site in (1, 2, 3, 4):
        sm.add_site(site, f"f{site}", "e.c", site)
    for loop in (11, 12, 13):
        sm.add_loop(loop, "e.c", loop)
    events = [TraceEvent(STATIC_IMAGE, 0, 0, objects=(("A", 0x100, 32),))]
    events += [TraceEvent(THREAD_START, tid, 0) for tid in range(1, threads)]
    ins = [0] * threads
    frames = [[] for _ in range(threads)]   # call sites of open frames

    def emit(tid, kind, **fields):
        ins[tid] += rng.choice((1, 1, 2, 7))
        events.append(TraceEvent(kind, tid, ins[tid], **fields))

    for _ in range(actions):
        tid = rng.randrange(threads)
        loop = rng.choice((11, 12, 13))
        roll = rng.random()
        if roll < 0.5:
            # A run of passes of one loop, back to back or each followed
            # by a call and its return or by an alloc and its free.
            between = ()
            if roll >= 0.4:
                base = 0x1000 + 0x100 * tid
                between = ((ALLOC, {"base": base, "alloc_size": 16}),
                           (FREE, {"base": base}))
            elif roll >= 0.3:
                site = rng.choice((2, 3))
                between = ((CALL, {"site_id": site}),
                           (RETURN, {"site_id": site}))
            for _ in range(rng.randrange(1, 5)):
                emit(tid, LOOPHEAD, loop_id=loop, site_id=1)
                for kind, fields in between:
                    emit(tid, kind, **fields)
        elif roll < 0.58 and len(frames[tid]) < 3:
            frames[tid].append(rng.choice((2, 3, 4)))
            emit(tid, CALL, site_id=frames[tid][-1])
        elif roll < 0.64 and frames[tid]:
            emit(tid, RETURN, site_id=frames[tid].pop())
        else:
            for _ in range(rng.randrange(1, 4)):
                emit(tid, LOAD, addr=0x100 + 4 * rng.randrange(8), size=4,
                     value=u32(rng.randrange(2)), site_id=rng.choice((1, 4)))
    return events, sm


@pytest.mark.parametrize("seed", range(4))
def test_empty_passes_analyze_as_the_oracle_counts_every_pass(seed,
                                                              tmp_path):
    # The context tree gives no tick to a pass with nothing ticked since
    # its loop's last pass, while the oracle ticks on every pass. Ungated,
    # the verdicts and the profile, scopes included, are the oracle's.
    # Gated, the binary decoder drops the passes that repeat the loop head
    # it yielded last, and all three sources agree on the profile, the
    # saved bytes and every verdict, prior timestamps included.
    from oracles import assert_profiles_equal, expected_analysis
    events, sm = _empty_pass_trace(seed)
    sink = []
    profile = analyze_events(events, sm, FULL, verdict_sink=sink.append)
    expected = expected_analysis(events, sm)
    assert ([(tid, tv[0], tv[1]) for tid, tv, _ in sink]
            == expected.temporal_verdicts)
    # The oracle numbers objects from 0, the registry from 1.
    assert ([(tid, None if oid is None else oid - 1, redundant)
             for tid, _, (redundant, oid) in sink]
            == expected.spatial_verdicts)
    assert_profiles_equal(expected.profile, profile)
    # Some pairs have a loop scope, which a wrong tick would move.
    assert any(scope for _, _, scope in profile.temporal_pairs)
    # Gated with every load monitored, the decoder still drops passes.
    path = _write_binary(events, sm, tmp_path / "gated.lrt")
    with open(path, "rb") as f:
        decoded, _ = read_trace(f)
        decoded.sampling = SamplingConfig(1, 0)
        assert len(list(decoded)) < len(events)
    for sampling in SAMPLINGS:
        results = _analyze_three_ways(
            events, sm, AnalysisConfig(sampling=sampling), tmp_path)
        for label in ("text", "memory"):
            assert results[label] == results["binary"], (label, sampling)
