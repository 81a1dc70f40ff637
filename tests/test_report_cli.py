"""Report rendering and the end-to-end command line."""

import builtins
import io
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from redload import output, profiles
from redload.cli import _exit_on_signal, main
from redload.engine import AnalysisConfig, analyze_events
from redload.errors import ConfigError, RedloadError
from redload.profiles import load as load_profile
from redload.profiles import Profile, merge_all, save, to_json
from redload.report import build_report, report_json, report_text
from redload.sampling import SamplingConfig
from redload.spatial import STATIC
from redload.temporal import PairCounters, ProgramTotals
from redload.trace import F64, write_trace
from redload.workloads import Scenario, generate

from helpers import Build, u32

FULL = AnalysisConfig(sampling=SamplingConfig.disabled())


def profile_of(name, params=None, config=FULL):
    events, sm = generate(Scenario(name, params or {}))
    return analyze_events(events, sm, config)


def test_adjacent_equal_top_spatial_row_names_object_a():
    profile = profile_of("adjacent_equal")
    temporal, spatial = build_report(profile, top=1)
    assert temporal == []            # no temporal redundancy here
    (row,) = spatial
    assert row["object"] == {"kind": "static", "name": "A"}
    assert row["instance_percent"] == 100.0
    assert row["redundant_bytes"] == 8
    assert row["object_fraction"] == 0.5
    assert row["scope"] is not None
    assert row["chain"] == row["new_context"] + row["old_context"]


def test_an_object_allocated_before_any_call_is_labelled_without_a_site():
    # An allocation at the root has an empty allocation path, so the text
    # report has no site to name for its object.
    b = Build()
    b.sm.add_site(1, "main", "root.c", 3)
    b.thread_start()
    b.alloc(0x1000, 8)
    b.load(0x1000, u32(7), site=1)
    b.load(0x1004, u32(7), site=1)
    profile = analyze_events(b.events, b.sm, FULL)
    assert list(profile.objects) == [("dynamic", ())]
    assert "   object: dynamic object allocated  object_fraction=0.5\n" \
        in report_text(profile, top=5)


def test_object_fractions_of_20000_objects_are_direct_sums():
    # Every object shares the two per-class denominators, so a report sums
    # them once, not once per object: 20,000 rows take well under a second.
    objects = {(STATIC, f"o{i}"): PairCounters(
        redundant_bytes_precise=i % 5, redundant_bytes_approx=i % 3,
        total_bytes_precise=8 + i % 7, total_bytes_approx=i % 2 * 16)
        for i in range(20_000)}
    frame = ("function", "f", "a.c", 1)
    spatial = {(key, (frame,), (frame,), None): objects[key]
               for key in ((STATIC, f"o{i}") for i in (4, 7, 12_346, 19_999))}
    profile = Profile(objects=objects, spatial_pairs=spatial)
    start = time.perf_counter()
    _, rows = build_report(profile, top=10)
    took = time.perf_counter() - start
    precise = sum(r.total_bytes_precise for r in objects.values())
    approx = sum(r.total_bytes_approx for r in objects.values())
    assert len(rows) == 8       # a precise and an approx row each
    for row in rows:
        counters = objects[STATIC, row["object"]["name"]]
        expected = (counters.redundant_bytes_precise / precise
                    if row["class"] == "precise"
                    else counters.redundant_bytes_approx / approx)
        assert row["object_fraction_defined"]
        assert row["object_fraction"] == expected
    assert took < 5.0, f"build_report took {took:.1f}s"


def test_report_top_zero_is_header_only():
    profile = profile_of("forward_copy", {"len": 8, "reps": 3})
    text = report_text(profile, top=0)
    assert "R_prog precise" in text
    assert "#1" not in text


def test_cli_report_negative_top_exits_1(tmp_path, capsys):
    prof = tmp_path / "p.json"
    save(profile_of("forward_copy", {"len": 8, "reps": 3}), prof)
    for fmt in ("text", "json"):
        assert main(["report", str(prof), "--top", "-1",
                     "--format", fmt]) == 1
        captured = capsys.readouterr()
        assert captured.err == "redload report: top must be >= 0, got -1\n"
        assert captured.out == ""


def test_report_rows_sorted_and_stable():
    profile = profile_of("random_mixed", {"loads": 3000, "seed": 9})
    temporal, spatial = build_report(profile, top=50)
    sizes = [r["redundant_bytes"] for r in temporal]
    assert sizes == sorted(sizes, reverse=True)
    again_t, again_s = build_report(profile, top=50)
    key = lambda r: (r["rank"], r["redundant_bytes"], r["new_context"],
                     r["old_context"])
    assert [key(r) for r in temporal] == [key(r) for r in again_t]
    assert [key(r) for r in spatial] == [key(r) for r in again_s]


def test_report_json_counters_match_profile_exactly():
    profile = profile_of("forward_copy", {"len": 16, "reps": 10})
    doc = report_json(profile, top=5)
    assert doc["totals"]["total_nonfp_bytes"] == \
        profile.totals.total_nonfp_bytes
    assert doc["totals"]["redundant_nonfp_bytes"] == \
        profile.totals.redundant_nonfp_bytes
    top = doc["temporal"][0]
    key_rows = [(k, c) for k, c in profile.temporal_pairs.items()
                if c.redundant_bytes_precise == top["redundant_bytes"]]
    assert key_rows
    _, counters = key_rows[0]
    assert top["redundant_instances"] == counters.redundant_instances
    assert top["total_instances"] == counters.total_instances
    assert 0.0 <= top["instance_percent"] <= 100.0


def test_report_json_matches_schema():
    jsonschema = pytest.importorskip("jsonschema")
    from importlib.resources import files
    schema = json.loads(files("redload").joinpath("report.schema.json")
                        .read_text())
    for name, params in (("adjacent_equal", {}),
                         ("random_mixed", {"loads": 2500, "seed": 4}),
                         ("approx_drift", {})):
        doc = report_json(profile_of(name, params), top=10)
        jsonschema.validate(doc, schema)


def test_fractions_render_six_significant_digits():
    profile = profile_of("forward_copy", {"len": 16, "reps": 10})
    text = report_text(profile, top=3)
    frac = profile.totals.redundant_nonfp_bytes / \
        profile.totals.total_nonfp_bytes
    assert f"{frac:.6g}" in text


def test_cli_end_to_end(tmp_path, capsys):
    trace = tmp_path / "t.lrt"
    prof = tmp_path / "p.json"
    assert main(["gen", "--scenario", "adjacent_equal", "-o",
                 str(trace)]) == 0
    assert main(["analyze", str(trace), "-o", str(prof),
                 "--no-sampling"]) == 0
    assert main(["report", str(prof), "--top", "5"]) == 0
    out = capsys.readouterr().out
    assert "static object 'A'" in out
    assert main(["report", str(prof), "--top", "5", "--format",
                 "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["spatial"][0]["object"] == {"kind": "static", "name": "A"}


def test_cli_gen_params_and_text_format(tmp_path):
    trace = tmp_path / "t.txt"
    rc = main(["gen", "--scenario", "adjacent_equal",
               "--param", "values=2,2,9", "--text", "-o", str(trace)])
    assert rc == 0
    text = trace.read_text()
    assert text.startswith("LRT1 1\n")
    assert len([l for l in text.splitlines() if l.startswith("L ")]) == 3
    prof = tmp_path / "p.json"
    assert main(["analyze", str(trace), "-o", str(prof),
                 "--no-sampling"]) == 0
    profile = load_profile(prof)
    assert profile.objects[("static", "A")].redundant_instances == 1


def test_cli_analyze_missing_file(tmp_path, capsys):
    rc = main(["analyze", str(tmp_path / "missing.lrt"), "-o",
               str(tmp_path / "p.json")])
    assert rc == 1
    assert "missing.lrt" in capsys.readouterr().err


def test_cli_analyze_malformed_traces_exit_1(tmp_path, capsys):
    b = Build()
    b.sm.add_site(1, "main", "a.c", 1)
    b.load(0x1000, u32(1), 1)
    b.load(0x1000, u32(2), 1)
    buf = io.BytesIO()
    write_trace(b.events, b.sm, buf)
    raw = bytearray(buf.getvalue())
    raw[-9] = F64       # the fp_class of the last 4-byte load
    (tmp_path / "t.lrt").write_bytes(bytes(raw))
    # A second object at the base of a live zero-size one, then a free
    # and a load there.
    same_base = ("LRT1 1\nsite 1 main m.c 1\nA 0 0 0x100 0\nA 0 1 0x100 {}\n"
                 "F 0 2 0x100\nL 0 3 {} 4 01000000 nonfp 1\n")
    texts = {"short.txt": b"LRT1 1\nL 0 1 0x1000 8 aabb nonfp 1\n",
             "utf8.txt": b"LRT1 1\n\xff\xfe\n",
             "zero.txt": same_base.format(0, "0x100").encode(),
             "zero8.txt": same_base.format(8, "0x104").encode()}
    for name, data in texts.items():
        (tmp_path / name).write_bytes(data)
    overlap = "event 1 (thread 0, ins_index 1): allocation [0x100, {}) " \
        "overlaps live object at 0x100"
    for name, message in (("t.lrt", "f64 load size 4 not a multiple of 8"),
                          ("short.txt", "line 2: value has 2 bytes"),
                          ("utf8.txt", "line 2: invalid UTF-8"),
                          ("zero.txt", overlap.format("0x100")),
                          ("zero8.txt", overlap.format("0x108"))):
        rc = main(["analyze", str(tmp_path / name), "-o",
                   str(tmp_path / "p.json"), "--no-sampling"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "redload analyze: " in err and message in err, err


def test_cli_analyze_malformed_trace_headers_exit_1(tmp_path, capsys):
    # The form is told by the first bytes; a header of neither form, or
    # of an unsupported version, is one error line and no profile.
    out = tmp_path / "p.json"
    for data, message in ((b"", "not a trace file"),
                          (b"LR", "not a trace file"),
                          (b"LRT1 2\n", "line 1: bad text trace header"),
                          (b"LRT1", "offset 0: truncated record"),
                          (b"LRT1\x02\x00", "offset 4: unsupported version 2")):
        trace = tmp_path / "t.lrt"
        trace.write_bytes(data)
        assert main(["analyze", str(trace), "-o", str(out)]) == 1, data
        err = capsys.readouterr().err
        assert err.startswith("redload analyze: ") and message in err, err
        assert err.count("\n") == 1, err
        assert not out.exists()


def test_cli_merge_with_self_doubles(tmp_path):
    trace = tmp_path / "t.lrt"
    prof = tmp_path / "p.json"
    merged = tmp_path / "m.json"
    main(["gen", "--scenario", "forward_copy", "--param", "reps=4",
          "-o", str(trace)])
    main(["analyze", str(trace), "-o", str(prof), "--no-sampling"])
    assert main(["merge", str(prof), str(prof), "-o", str(merged)]) == 0
    one = load_profile(prof)
    two = load_profile(merged)
    assert two.totals.total_nonfp_bytes == 2 * one.totals.total_nonfp_bytes
    for key, row in one.temporal_pairs.items():
        assert two.temporal_pairs[key].total_instances == \
            2 * row.total_instances


def test_cli_usage_errors_exit_2(capsys):
    assert main(["frobnicate"]) == 2
    assert main(["gen", "--scenario", "nonexistent", "-o", "x"]) == 2
    assert main([]) == 2
    capsys.readouterr()


_OUT_OF_RANGE = (
    ("random_mixed", "region_bytes=5"), ("sparse_zeros", "len=-3"),
    ("approx_drift", "len=-1"), ("callee_spill", "reps=-1"),
    ("hash_collision", "chain=0"))


@pytest.mark.parametrize("scenario,param,form", [
    pytest.param(scenario, param, form,
                 id=f"{scenario}-{param}" + ("-text" if form else ""))
    for form in ((), ("--text",)) for scenario, param in _OUT_OF_RANGE])
def test_cli_gen_out_of_range_params_exit_1(scenario, param, form, tmp_path,
                                            capsys):
    # A failed gen leaves no partial trace, and no changed one; the text
    # form, which has no field a bad size overflows, rejects it as well.
    out = tmp_path / "t.lrt"
    argv = ["gen", "--scenario", scenario, "--param", param, *form,
            "-o", str(out)]
    rc = main(argv)
    assert rc == 1
    assert capsys.readouterr().err.startswith("redload gen: ")
    assert not out.exists()
    out.write_bytes(b"earlier trace")
    rc = main(argv)
    assert rc == 1
    assert out.read_bytes() == b"earlier trace"
    assert os.listdir(tmp_path) == ["t.lrt"]
    capsys.readouterr()


def test_cli_gen_killed_by_sigterm_leaves_no_file(tmp_path):
    # A gen terminated part way through its write removes its temporary
    # file and writes no output.
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    out = tmp_path / "t.lrt"
    gen = subprocess.Popen(
        [sys.executable, "-m", "redload.cli", "gen", "--scenario",
         "random_mixed", "--param", "loads=10000000", "-o", str(out)],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    try:
        deadline = time.monotonic() + 60
        while not list(tmp_path.glob("t.lrt.*.tmp")):
            assert gen.poll() is None and time.monotonic() < deadline
            time.sleep(0.01)
        gen.send_signal(signal.SIGTERM)
        assert gen.wait(timeout=60) != 0
    finally:
        gen.kill()
        gen.wait()
    assert os.listdir(tmp_path) == []


def test_sigterm_as_the_temporary_file_opens_leaves_no_file(tmp_path,
                                                            monkeypatch):
    # The handler of a SIGTERM that arrives while `open` creates the
    # temporary file runs before `open` returns; the file is still removed.
    def open_then_term(*args, **kwargs):
        f = builtins.open(*args, **kwargs)
        os.kill(os.getpid(), signal.SIGTERM)
        return f

    monkeypatch.setattr(output, "open", open_then_term, raising=False)
    previous = signal.signal(signal.SIGTERM, _exit_on_signal)
    try:
        with pytest.raises(SystemExit):
            with output.replacing(tmp_path / "t.lrt", "xb") as f:
                f.write(b"x")
    finally:
        signal.signal(signal.SIGTERM, previous)
    assert os.listdir(tmp_path) == []


def test_cli_failed_profile_write_leaves_no_file(tmp_path, monkeypatch,
                                                capsys):
    # analyze and merge that fail part way through writing the profile
    # leave no partial file at -o, and an earlier file there unchanged.
    trace = tmp_path / "t.lrt"
    prof = tmp_path / "p.json"
    assert main(["gen", "--scenario", "forward_copy", "-o", str(trace)]) == 0
    assert main(["analyze", str(trace), "-o", str(prof),
                 "--no-sampling"]) == 0

    def disk_full(profile, write):
        write('{\n "format": ')
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(profiles, "_write", disk_full)
    out = tmp_path / "out.json"
    for argv in (["analyze", str(trace), "-o", str(out), "--no-sampling"],
                 ["merge", str(prof), str(prof), "-o", str(out)]):
        assert main(argv) == 1
        assert "No space left on device" in capsys.readouterr().err
        assert not out.exists()
        out.write_bytes(b"earlier profile")
        assert main(argv) == 1
        assert out.read_bytes() == b"earlier profile"
        assert sorted(os.listdir(tmp_path)) == ["out.json", "p.json",
                                                "t.lrt"]
        out.unlink()
    capsys.readouterr()


def test_cli_bad_param_exits_1(tmp_path, capsys):
    rc = main(["gen", "--scenario", "adjacent_equal", "--param", "oops",
               "-o", str(tmp_path / "t.lrt")])
    assert rc == 1
    rc = main(["gen", "--scenario", "adjacent_equal",
               "--param", "bogus=1", "-o", str(tmp_path / "t.lrt")])
    assert rc == 1
    capsys.readouterr()


def test_cli_sampling_flags_conflict(tmp_path, capsys):
    trace = tmp_path / "t.lrt"
    main(["gen", "--scenario", "adjacent_equal", "-o", str(trace)])
    rc = main(["analyze", str(trace), "-o", str(tmp_path / "p.json"),
               "--no-sampling", "--window-enable", "10"])
    assert rc == 1
    capsys.readouterr()


@pytest.mark.parametrize("epsilon", ["nan", "inf", "-inf", "-1"])
def test_cli_analyze_rejects_a_bad_approx_epsilon(epsilon, tmp_path,
                                                  capsys):
    # A profile's JSON can hold neither NaN nor an infinity.
    trace, profile = tmp_path / "t.lrt", tmp_path / "p.json"
    main(["gen", "--scenario", "adjacent_equal", "-o", str(trace)])
    rc = main(["analyze", str(trace), "-o", str(profile),
               f"--approx-epsilon={epsilon}"])
    assert rc == 1
    assert "approx_epsilon must be finite and >= 0" in \
        capsys.readouterr().err
    assert not profile.exists()
    with pytest.raises(ConfigError):
        AnalysisConfig(approx_epsilon=float(epsilon))
    assert main(["analyze", str(trace), "-o", str(profile),
                 "--approx-epsilon=0"]) == 0


def test_cli_module_entry_point(tmp_path):
    trace = tmp_path / "t.lrt"
    prof = tmp_path / "p.json"
    run = lambda *args: subprocess.run(
        [sys.executable, "-m", "redload.cli", *args],
        capture_output=True, text=True)
    assert run("gen", "--scenario", "adjacent_equal", "-o",
               str(trace)).returncode == 0
    assert run("analyze", str(trace), "-o", str(prof),
               "--no-sampling").returncode == 0
    done = run("report", str(prof), "--top", "1")
    assert done.returncode == 0
    assert "R_prog" in done.stdout
    usage = run("definitely-not-a-command")
    assert usage.returncode == 2


def test_python_m_redload_reports_like_main(tmp_path, capsys):
    root = Path(__file__).resolve().parents[1]
    prof = tmp_path / "p.json"
    save(profile_of("forward_copy", {"len": 8, "reps": 3}), prof)
    assert main(["report", str(prof), "--top", "3"]) == 0
    expected = capsys.readouterr().out
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    done = subprocess.run(
        [sys.executable, "-m", "redload", "report", str(prof), "--top", "3"],
        env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == expected


def test_cli_sampling_windows_flow_into_profile(tmp_path):
    trace = tmp_path / "t.lrt"
    prof = tmp_path / "p.json"
    main(["gen", "--scenario", "forward_copy", "-o", str(trace)])
    assert main(["analyze", str(trace), "-o", str(prof),
                 "--window-enable", "100", "--window-disable", "900"]) == 0
    profile = load_profile(prof)
    assert profile.meta["sampling"] == {"enabled": True,
                                        "window_enable": 100,
                                        "window_disable": 900}


def _mutated_profile(edit):
    """Bytes of a valid profile document after `edit(doc)`."""
    doc = to_json(profile_of("adjacent_equal"))
    edit(doc)
    return json.dumps(doc).encode()


def _reported_row_cases():
    """Cases of a hash_collision profile whose first reported temporal
    row, one with a prior context and redundant bytes, is edited: a null
    new context, a loop frame of null kind, an empty scope."""
    doc = to_json(profile_of("hash_collision", {"chain": 3, "searches": 3}))
    index = next(i for i, row in enumerate(doc["temporal_pairs"])
                 if row["old_context"] and (
                     row["counters"]["redundant_bytes_precise"]
                     or row["counters"]["redundant_bytes_approx"]))
    frame = next(i for i, f in enumerate(
        doc["temporal_pairs"][index]["new_context"]) if f["kind"] == "loop")
    where = f"temporal_pairs row {index}"

    def edited(field, value, frame=None):
        edit = json.loads(json.dumps(doc))
        target = edit["temporal_pairs"][index]
        if frame is not None:
            target = target["new_context"][frame]
        target[field] = value
        return json.dumps(edit).encode()

    non_empty = "not a list of frames, empty only in an object"
    return {
        "null_new_context.json": (
            edited("new_context", None),
            f"{where}: field 'new_context' is None, {non_empty}"),
        "null_kind.json": (
            edited("kind", None, frame),
            f"{where} new_context frame {frame}: field 'kind' is None, "
            "not 'function', 'loop' or 'load'"),
        "empty_scope.json": (
            edited("scope", []), f"{where}: field 'scope' is [], {non_empty}"),
    }


def _repeated_row_cases():
    """Cases of a hash_collision profile with a copy of one row of a
    table appended to that table: the copy must not replace the row."""
    doc = to_json(profile_of("hash_collision", {"chain": 3, "searches": 3}))
    cases = {}
    for table, index in (("temporal_pairs", 3), ("objects", 0),
                         ("spatial_pairs", 0)):
        edit = json.loads(json.dumps(doc))
        rows = edit[table]
        rows.append(rows[index])
        cases[f"repeated_{table}.json"] = (
            json.dumps(edit).encode(),
            f"{table} row {len(rows) - 1}: repeats the key of an earlier row")
    return cases


def test_cli_report_and_merge_of_malformed_profiles_exit_1(tmp_path, capsys):
    header = b'{"format": "redload-profile", "version": 1}'
    latin1 = header[:-1] + b', "x": "\xe9"}'
    not_a_count = "not a non-negative integer"
    cases = {"header.json": (header, "missing field 'totals'"),
             "text.json": (b"not json\n",
                           "not JSON at character 0: Expecting value"),
             "no_colon.json": (b'{"format" "redload-profile"}',
                               "not JSON at character 10: "
                               "Expecting ':' delimiter"),
             "deep_meta.json": (
                 _mutated_profile(lambda d: d.update(meta="deep")).replace(
                     b'"deep"', b"[" * 10_000 + b"]" * 10_000),
                 "JSON nested too deeply"),
             "latin1.json": (latin1, "invalid UTF-8 at byte "
                                     f"{latin1.index(0xE9)}"),
             "list.json": (b"[1, 2]", "not a redload-profile document"),
             "str_counter.json": (
                 _mutated_profile(lambda d: d["objects"][0]["counters"]
                                  .update(total_instances="5")),
                 "objects row 0 counters: field 'total_instances' is '5', "
                 + not_a_count),
             "bool_counter.json": (
                 _mutated_profile(lambda d: d["spatial_pairs"][0]["counters"]
                                  .update(fp_exact_instances=True)),
                 "spatial_pairs row 0 counters: field 'fp_exact_instances' "
                 "is True, " + not_a_count),
             "null_total.json": (
                 _mutated_profile(lambda d: d["totals"]
                                  .update(total_nonfp_bytes=None)),
                 "totals: field 'total_nonfp_bytes' is None, "
                 + not_a_count),
             "str_threads.json": (
                 _mutated_profile(lambda d: d.update(thread_count="two")),
                 "field 'thread_count' is 'two', " + not_a_count),
             "object_kind.json": (
                 _mutated_profile(lambda d: d["objects"][0]["object"]
                                  .update(kind="heap")),
                 "objects row 0 object: field 'kind' is 'heap', "
                 "not 'static' or 'dynamic'"),
             "int_meta.json": (
                 _mutated_profile(lambda d: d.update(meta=5)),
                 "profile: field 'meta' is 5, not an object or null"),
             # true and 1.0 equal 1; the schema wants a string name.
             "bool_version.json": (
                 _mutated_profile(lambda d: d.update(version=True)),
                 "profile: field 'version' is True, not an integer"),
             "float_version.json": (
                 _mutated_profile(lambda d: d.update(version=1.0)),
                 "profile: field 'version' is 1.0, not an integer"),
             "int_name.json": (
                 _mutated_profile(lambda d: d["objects"][0]["object"]
                                  .update(name=5)),
                 "objects row 0 object: field 'name' is 5, not a string"),
             "null_name.json": (
                 _mutated_profile(lambda d: d["objects"][0]["object"]
                                  .update(name=None)),
                 "objects row 0 object: field 'name' is None, "
                 "not a string"),
             **_reported_row_cases(), **_repeated_row_cases()}
    for name, (data, message) in cases.items():
        path = tmp_path / name
        path.write_bytes(data)
        for argv in (["report", str(path)],
                     ["merge", str(path), str(path), "-o",
                      str(tmp_path / "m.json")]):
            assert main(argv) == 1, argv
            err = capsys.readouterr().err
            assert f"redload {argv[0]}: {path}: " in err, err
            assert message in err, err
            assert "Traceback" not in err
            assert not (tmp_path / "m.json").exists(), argv


def test_an_integer_past_the_digit_limit_is_a_malformed_profile(
        tmp_path, capsys):
    # json's scanner raises a plain ValueError for an integer of more than
    # 4,300 digits, wherever it sits: load words it as a fault of the file,
    # and report and merge exit 1 without a traceback.
    marker = 123456789123
    edits = {
        "counter": lambda d: d["objects"][0]["counters"].update(
            total_instances=marker),
        "meta": lambda d: d["meta"].update(scope_budget=marker),
        "version": lambda d: d.update(version=marker),
        "line": lambda d: d["temporal_pairs"][0]["new_context"][0].update(
            line=marker),
    }
    for name, edit in edits.items():
        text = _mutated_profile(edit)
        assert text.count(str(marker).encode()) == 1, name
        path = tmp_path / f"{name}.json"
        path.write_bytes(text.replace(str(marker).encode(), b"9" * 5000))
        with pytest.raises(RedloadError) as err:
            load_profile(path)
        assert str(err.value).startswith(f"{path}: malformed profile: "), \
            name
        assert "4300 digits" in str(err.value), name
        for argv in (["report", str(path)],
                     ["merge", str(path), str(path), "-o",
                      str(tmp_path / "m.json")]):
            assert main(argv) == 1, (name, argv)
            err = capsys.readouterr().err
            assert f"redload {argv[0]}: {path}: malformed profile" in err, \
                err
            assert "Traceback" not in err, err


def test_a_merge_sum_past_the_digit_limit_is_an_error_of_the_output(
        tmp_path, capsys):
    # Each input holds a 4,300-digit counter, which loads; the sum has
    # 4,301 digits, which str() refuses as save writes it. The merge exits
    # 1 naming the output, and leaves neither it nor its temporary file.
    marker = 123456789123
    text = _mutated_profile(lambda d: d["objects"][0]["counters"].update(
        total_instances=marker))
    path = tmp_path / "in.json"
    path.write_bytes(text.replace(str(marker).encode(), b"9" * 4300))
    out = tmp_path / "m.json"
    assert main(["merge", str(path), str(path), "-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"redload merge: {out}: "), err
    assert len(err.splitlines()) == 1, err
    assert "4300 digits" in err and "Traceback" not in err, err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.json"]


def test_a_report_of_counters_past_the_float_range(tmp_path, capsys):
    # 10**400 is past the float range, so the instance percent is taken in
    # ints. Redundant equals total, so every fraction is 1.
    n = 10 ** 400
    counters = PairCounters(n, 0, n, 0, n, n, 0)
    context = (("function", "main", "a.c", 1), ("load", "main", "a.c", 2))
    obj = (STATIC, "A")
    profile = Profile(
        totals=ProgramTotals(n, 0, n, 0), thread_count=1,
        temporal_pairs={(context, context, None): counters},
        objects={obj: counters},
        spatial_pairs={(obj, context, context, None): counters})
    path = tmp_path / "big.json"
    save(profile, path)
    assert main(["report", str(path)]) == 0
    assert capsys.readouterr().out.count(f"{n}/{n} (100.00%)") == 2
    assert main(["report", str(path), "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    rows = doc["temporal"] + doc["spatial"]
    assert [row["instance_percent"] for row in rows] == [100.0, 100.0]
    assert [row["pair_fraction"] for row in rows] == [1.0, 1.0]


def _past_the_float_range(doc):
    """Edit a profile document so that one row's redundant bytes are
    10**400 against a total of 1: their pair fraction is past the float
    range, while every program fraction is not."""
    row = next(row for row in doc["temporal_pairs"] + doc["spatial_pairs"]
               if row["old_context"])
    row["counters"]["redundant_bytes_precise"] = 10 ** 400
    doc["totals"].update(total_nonfp_bytes=1, redundant_nonfp_bytes=1)


@pytest.mark.parametrize("edit, merges", [
    (_past_the_float_range, True),
    (lambda doc: doc["totals"].update(
        total_nonfp_bytes=1, total_fp_bytes=0,
        redundant_nonfp_bytes=10 ** 400, redundant_fp_bytes=0), False),
], ids=["row", "totals"])
def test_a_fraction_past_the_float_range_is_an_error(edit, merges, tmp_path,
                                                     capsys):
    # load checks each count alone, so a profile can hold redundant bytes
    # past the float range over their total. A fraction of them is an
    # error naming both counts: in every report of the row, and in every
    # report or merge of the totals, which a saved profile states.
    path = tmp_path / "in.json"
    path.write_bytes(_mutated_profile(edit))
    out = tmp_path / "m.json"
    runs = [["report", str(path)], ["report", str(path), "--format", "json"]]
    merge = ["merge", str(path), "-o", str(out)]
    if merges:      # a merge writes no pair fraction; its reports fail
        assert main(merge) == 0
        assert load_profile(out) == load_profile(path)
        runs += [["report", str(out)],
                 ["report", str(out), "--format", "json"]]
    else:
        runs.append(merge)
    capsys.readouterr()
    for argv in runs:
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err
        assert err.startswith(f"redload {argv[0]}: {10 ** 400} redundant "
                              "bytes of 1 total bytes "), err
        assert len(err.splitlines()) == 1, err
        assert "float range" in err and "Traceback" not in err, err
    assert sorted(p.name for p in tmp_path.iterdir()) == (
        ["in.json", "m.json"] if merges else ["in.json"])


@pytest.fixture(scope="module")
def small_profile():
    """The text of a profile with temporal and spatial pairs, and static
    and dynamic objects."""
    merged = merge_all([profile_of("hash_collision",
                                   {"chain": 3, "searches": 3}),
                        profile_of("adjacent_equal")])
    return json.dumps(to_json(merged))


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 2**64) | st.floats()
    | st.sampled_from(["", "loop", "static", "dynamic", "kind", "x"]),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.sampled_from(["kind", "name", "file", "line",
                                       "context", "x"]), children,
                      max_size=4),
    max_leaves=6)


def _mutate(data, node):
    """Replace or delete one value somewhere inside `node`."""
    while node:
        key = data.draw(st.sampled_from(
            list(node) if isinstance(node, dict) else range(len(node))))
        child = node[key]
        if isinstance(child, (dict, list)) and child \
                and data.draw(st.booleans()):
            node = child
        elif data.draw(st.booleans()):
            del node[key]
            return
        else:
            node[key] = data.draw(_JSON_VALUES)
            return


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_cli_report_and_merge_of_mutated_profiles_exit_0_or_1(
        data, small_profile, tmp_path, capsys):
    # Any document a profile file may hold ends in a report or a merge, or
    # in a RedloadError and exit code 1, never in a traceback.
    doc = json.loads(small_profile)
    if data.draw(st.booleans()):
        # Append a copy of a row to its table.
        rows = doc[data.draw(st.sampled_from(
            ["temporal_pairs", "objects", "spatial_pairs"]))]
        rows.append(json.loads(json.dumps(data.draw(st.sampled_from(rows)))))
    for _ in range(data.draw(st.integers(1, 3))):
        _mutate(data, doc)
    path = tmp_path / "p.json"
    path.write_text(json.dumps(doc))
    for argv in (["report", str(path)],
                 ["report", str(path), "--format", "json"],
                 ["merge", str(path), str(path), "-o",
                  str(tmp_path / "m.json")]):
        rc = main(argv)
        err = capsys.readouterr().err
        assert rc in (0, 1), argv
        assert (rc == 1) == err.startswith(
            f"redload {argv[0]}: {path}: "), (argv, err)


def _load_outcome(path):
    try:
        return load_profile(path)
    except RedloadError as exc:
        return str(exc)


def _damaged(data, text):
    """Bytes of the document `text` after one of three kinds of damage:
    values mutated, the bytes cut short, or one byte replaced."""
    doc = json.loads(text)
    damage = data.draw(st.sampled_from(["mutate", "truncate", "replace"]))
    if damage == "mutate":
        for _ in range(data.draw(st.integers(1, 3))):
            _mutate(data, doc)
    raw = json.dumps(doc, indent=data.draw(st.sampled_from([None, 1]))
                     ).encode()
    if damage == "truncate":
        raw = raw[:data.draw(st.integers(0, len(raw)))]
    elif damage == "replace":
        at = data.draw(st.integers(0, len(raw) - 1))
        raw = raw[:at] + bytes([data.draw(st.integers(0, 255))]) + \
            raw[at + 1:]
    return raw


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_load_places_each_fault_where_json_and_utf8_place_it(
        data, small_profile, tmp_path, monkeypatch):
    # One pass words every error: a damaged file loads, or fails where
    # its UTF-8 or its JSON fails or with the field of another shape,
    # whatever the size of the chunks it is read in.
    raw = _damaged(data, small_profile)
    path = tmp_path / "p.json"
    path.write_bytes(raw)
    outcomes = set()
    for chunk in (1, 7, 64, profiles.CHUNK):
        monkeypatch.setattr(profiles, "CHUNK", chunk)
        # repr, not ==: a meta may hold NaN, which equals nothing.
        outcomes.add(repr(_load_outcome(path)))
    assert len(outcomes) == 1, outcomes
    outcome = _load_outcome(path)
    fault = outcome.removeprefix(f"{path}: ") \
        if isinstance(outcome, str) else ""
    # json.loads of the file, or of the text before its first byte that
    # is not UTF-8: a fault there comes first in file order.
    json_at = utf8_at = None
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        utf8_at = exc.start
        text = raw[:utf8_at].decode("utf-8")
    try:
        json.loads(text)
    except ValueError as exc:
        json_at, json_msg = exc.pos, exc.msg
    if json_at is not None or utf8_at is not None:
        assert fault, "loaded what json.loads rejects"
    if fault.startswith("not JSON"):
        assert fault.startswith(f"not JSON at character {json_at}: "), \
            (fault, json_at)
    if fault.startswith("invalid UTF-8"):
        assert fault == f"invalid UTF-8 at byte {utf8_at}", fault
        # Only a string the bad byte cuts, or a fault at that byte, gives
        # way to the UTF-8 fault.
        assert json_at in (None, len(text)) or \
            json_msg.startswith("Unterminated string"), (json_at, json_msg)
    if not fault:
        save(outcome, tmp_path / "a.json")
        save(load_profile(tmp_path / "a.json"), tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() == \
            (tmp_path / "b.json").read_bytes()


def _parity_cases(text):
    """Named damaged or unusual variants of a profile document's text."""
    doc = json.loads(text)
    rows = json.dumps(doc["temporal_pairs"])
    cut = text.index('"counters"', text.index('"temporal_pairs"'))
    late = {k: v for k, v in doc.items() if k != "version"}
    late["temporal_pairs"][0]["counters"]["total_instances"] = "5"
    late["version"] = 2
    return {
        "cut_in_a_row": text[:cut + 5],
        "trailing_data": text + "{}",
        "bom": "\ufeff" + text,
        "late_version": json.dumps(late),
        "repeated_table": '{"temporal_pairs": [],' + text[1:],
        "repeated_table_bad_first": '{"temporal_pairs": [7],' + text[1:],
        "repeated_table_empty_last": (
            '{"temporal_pairs": ' + rows + ", "
            + text[1:].replace(rows, "[]")),
    }


@pytest.mark.parametrize("case", ["cut_in_a_row", "trailing_data", "bom",
                                  "late_version", "repeated_table",
                                  "repeated_table_bad_first",
                                  "repeated_table_empty_last"])
def test_load_parity_cases(case, small_profile, tmp_path):
    text = _parity_cases(small_profile)[case]
    path = tmp_path / f"{case}.json"
    path.write_text(text, encoding="utf-8")
    outcome = _load_outcome(path)
    if case == "late_version":
        # Rows are checked as they are read; the other members, of which
        # a later copy would replace an earlier one, at the end.
        assert outcome == (f"{path}: temporal_pairs row 0 counters: field "
                           "'total_instances' is '5', not a non-negative "
                           "integer")
    elif case == "repeated_table_bad_first":
        # Rows are made as they are read, so a bad earlier copy of a
        # table fails, though json.loads would keep only the last.
        assert outcome == (f"{path}: malformed profile: 'int' object is "
                           "not subscriptable")
    elif case.startswith("repeated_table"):
        # A good earlier copy is replaced by the last, as in json.loads.
        whole = tmp_path / "whole.json"
        whole.write_text(small_profile, encoding="utf-8")
        want = load_profile(whole)
        if case == "repeated_table_empty_last":
            want.temporal_pairs = {}
        assert outcome == want
    else:
        with pytest.raises(ValueError) as exc:
            json.loads(text)
        assert outcome.startswith(
            f"{path}: not JSON at character {exc.value.pos}: "), outcome


def _traced(tmp_path, command):
    """The standard output and the per-layer metrics of the benchmark's
    tracer over `redload <command>`, run in a process of its own."""
    root = Path(__file__).resolve().parents[1]
    stats = tmp_path / "stats.json"
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    done = subprocess.run(
        [sys.executable, str(root / "perfbench" / "tracer.py"), str(stats),
         *command], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout, json.loads(stats.read_text())["metrics"]


def _traced_analyze(tmp_path, analyze_args):
    """Per-layer metrics of the benchmark's tracer over `redload analyze`
    of a small forward_copy binary trace, after checking that the traced
    run saves the untraced run's bytes."""
    trace = tmp_path / "t.lrt"
    events, sm = generate(Scenario("forward_copy", {"len": 8, "reps": 3}))
    with open(trace, "wb") as f:
        write_trace(events, sm, f)
    assert main(["analyze", str(trace), "-o", str(tmp_path / "plain.json"),
                 *analyze_args]) == 0
    _, metrics = _traced(tmp_path, ["analyze", str(trace), "-o",
                                    str(tmp_path / "traced.json"),
                                    *analyze_args])
    assert (tmp_path / "traced.json").read_bytes() == \
        (tmp_path / "plain.json").read_bytes()
    return metrics


def test_benchmark_tracer_sees_a_sampled_binary_analyze(tmp_path):
    # The benchmark's tracer replaces `trace.read_trace` with a wrapper of
    # its own, so the decoder is not gated under it and every load passes
    # its decode step: the traced run must still save the untraced bytes
    # and see both decode time and monitored loads.
    metrics = _traced_analyze(
        tmp_path, ["--window-enable", "2", "--window-disable", "3"])
    assert metrics["trace.decode_s"] > 0
    assert metrics["sampling.loads_monitored"] > 0
    assert metrics["sampling.loads_skipped"] > 0


def test_benchmark_tracer_sees_every_layer(tmp_path):
    # The tracer wraps and reads names inside the package; a renamed one
    # zeroes its metric instead of failing. Every load is monitored and
    # forward_copy repeats loads, so each of these layers has work to do.
    metrics = _traced_analyze(tmp_path, ["--no-sampling"])
    assert metrics["scope.resolves"] == metrics["scope.traversals"] > 0
    for name in ("cct.nodes", "shadow.pages", "temporal.rows",
                 "spatial.pair_rows"):
        assert metrics[name] > 0, name
    # A wrapped call that is inlined, or an object lookup that is skipped,
    # would zero a count or a time here rather than fail on its own.
    assert metrics["shadow.probes"] == metrics["sampling.loads_monitored"]
    assert 0 < metrics["spatial.hit_ratio"] <= 1
    for name in ("cct.calls", "shadow.self_s", "temporal.self_s",
                 "spatial.self_s"):
        assert metrics[name] > 0, name


def test_benchmark_tracer_sees_a_traced_report(tmp_path, capsys):
    # `report` is timed as load, then build (`report.build_report`, which
    # the report code must call through its module), then the rest of
    # `cli.report_text`. An inlined or aliased seam would read 0 rather
    # than fail on its own.
    profile = tmp_path / "p.json"
    save(profile_of("forward_copy", {"len": 8, "reps": 3}), profile)
    command = ["report", str(profile), "--top", "5"]
    out, metrics = _traced(tmp_path, command)
    assert main(command) == 0
    assert out == capsys.readouterr().out
    for name in ("profiles.load_s", "report.build_s", "report.render_s"):
        assert metrics[name] > 0, name
