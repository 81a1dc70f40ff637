"""Scenario generation shapes, and the test oracle on whole scenarios."""

import hashlib
import io
import struct

import pytest

from redload.engine import AnalysisConfig, analyze_events
from redload.errors import ConfigError
from redload.sampling import SamplingConfig
from redload.temporal import program_fraction
from redload.trace import LOAD, write_text_trace, write_trace
from redload.workloads import Scenario, generate

from oracles import MAX_ORACLE_LOADS, instance_fraction, scenario_analysis

FULL = AnalysisConfig(sampling=SamplingConfig.disabled())


def loads_of(events):
    return [e for e in events if e.kind == LOAD]


def temporal_instances(oracle):
    """(total, redundant) loads by the oracle's temporal verdicts."""
    verdicts = oracle.temporal_verdicts
    return len(verdicts), sum(redundant for _, redundant, _ in verdicts)


def test_adjacent_equal_shape():
    events, sm = generate(Scenario("adjacent_equal"))
    loads = loads_of(list(events))
    assert len(loads) == 4
    assert all(l.size == 4 for l in loads)
    values = [struct.unpack("<I", l.value)[0] for l in loads]
    assert values == [1, 1, 1, 15]
    addrs = {l.addr for l in loads}
    assert len(addrs) == 4


def test_forward_copy_single_rep_loads_ones():
    events, _ = generate(Scenario("forward_copy", {"len": 8, "reps": 1}))
    loads = loads_of(list(events))
    assert len(loads) == 7
    assert all(struct.unpack("<I", l.value)[0] == 1 for l in loads)
    assert len({l.addr for l in loads}) == 7


def test_linear_search_scan_shape():
    events, _ = generate(Scenario("linear_search",
                                  {"n": 100, "queries": 1, "probe": 99}))
    loads = loads_of(list(events))
    assert len(loads) == 100
    values = [struct.unpack("<I", l.value)[0] for l in loads]
    assert len(set(values)) == 100


def test_unknown_scenario_and_params_rejected():
    with pytest.raises(ConfigError):
        generate(Scenario("nope"))
    with pytest.raises(ConfigError):
        generate(Scenario("adjacent_equal", {"bogus": 1}))
    with pytest.raises(ConfigError):
        generate(Scenario("linear_search", {"probe": 5000}))
    with pytest.raises(ConfigError):
        generate(Scenario("adjacent_equal", {"threads": 0}))


@pytest.mark.parametrize("name,params", [
    ("adjacent_equal", {"reps": -1}), ("linear_search", {"n": 0}),
    ("linear_search", {"queries": -1}), ("hash_collision", {"searches": -1}),
    ("stencil", {"nx": -2, "ny": -2}), ("forward_copy", {"len": -1}),
    ("sparse_zeros", {"zero_density": 1.5}), ("sparse_zeros", {"passes": -1}),
    ("approx_drift", {"step": 1e10}), ("random_mixed", {"region_bytes": 23}),
    ("random_mixed", {"churn": 0.8}), ("random_mixed", {"fp_fraction": -0.1}),
    ("random_mixed", {"max_depth": 0})])
def test_out_of_range_params_rejected_before_any_event(name, params):
    with pytest.raises(ConfigError, match="must be|overflows"):
        generate(Scenario(name, params))


def test_generation_is_deterministic_byte_for_byte():
    for name, params in (("random_mixed", {"loads": 800, "seed": 5}),
                         ("sparse_zeros", {"layout": "shuffled", "seed": 9}),
                         ("hash_collision", {"searches": 5})):
        raws = []
        for _ in range(2):
            events, sm = generate(Scenario(name, params))
            buf = io.BytesIO()
            write_trace(events, sm, buf)
            raws.append(buf.getvalue())
        assert raws[0] == raws[1]


# SHA-256 of the binary and of the text trace of every scenario, one in
# the shape of criterion 9's long scan, and four with interleaved threads
# (one whose body yields nothing): each thread's `main` frame is emitted
# around its body, and the interleaver cuts every thread into 64-event
# chunks, so moving those events would shift bytes.
# Traces are golden inputs, so generation and encoding may get faster but
# must not change a byte.
PRODUCER_DIGESTS = [
    ("adjacent_equal", {},
     "a355d94f29233e6ad4bbb276445674ca89316b3c6d9f234e2594ad0bb67980a6",
     "01db20e03af349d9e487dbbba65d9d643dfbdaca6eac5c2fad07be29c5eaddc6"),
    ("approx_drift", {"len": 2, "reps": 40},
     "024f3fbc17557e40238b859868285af64e74c5a5d0e4f109f3c62aae9780f7a9",
     "7ac2b8472923774390aab92e1fa1165eb1701799e1344fb6f74b8f282fecf517"),
    ("callee_spill", {"reps": 10},
     "34ab2dc9eed3c890745fdc2e42bd5bc99a867c0d51ed27755c5529bb7b2841bf",
     "713560f0450efecad26cf70bbbdb4eabd93c14ae7f1b82a3bd534639797fee94"),
    ("forward_copy", {"len": 16, "reps": 4},
     "6831112e18eabf2dccb39a34eb1870d35a99b0d5e2e9ebd546f50ba1dc0e0962",
     "3ba8d29a1ff4fabe4214447b8ee06feae13159d081d81d269f3111d6c2a030b2"),
    ("hash_collision", {"chain": 8, "searches": 10},
     "425c0b15cf7f3797eeffe1ef0487bd0c8bc8ee6acd6dabed8564ce5f68f66592",
     "a1c3159084f347934754fada3945fb1d87d1871cd81b4baa8a388b1d0b37ba4b"),
    ("linear_search", {"n": 40, "queries": 12},
     "c8929aaab42c30f287f679c73ff7b418ea6e7e9ea19955e129870d722fac3300",
     "3b49eed7728dd4341644afced1566f5c5183e4393e94f95c48a77f3c508e2991"),
    ("random_mixed", {"loads": 1200, "seed": 3},
     "2fa274677addc9a914282acde93670759734412dc43f73d8f676713e462d9c08",
     "e2ecd188945487fc767df3ed9e8a865536fd7917c02d3581e9f3abe2a38f8b37"),
    ("sparse_zeros", {"len": 120},
     "9baecd606d03d56b144a9e6b518fc91f01cbf6abe767f005e55f67342d2af195",
     "15c5d391d14ab184d2808e60aa9d5ac001b9b8fd816d6fd90a7502bfc93ace55"),
    ("stencil", {"nx": 16, "ny": 4},
     "069a9f815b248cf50bd7ecfe53f540b37370175305d3d47867cc372b7ca8fb32",
     "b931fb2188c989167f4bd24b870165e67cea2162b9b59882f2c7a0434aa520c9"),
    ("random_mixed", {"loads": 1200, "seed": 3, "threads": 2},
     "b348a3f80a49cdd2443699a7bca48262b821b09ff3275ea6a0222cc1e6403027",
     "2a2c1df8a73953f98bba3b51b60df4a36f97a6273b8a2df7d05a8a93b4e39b4b"),
    ("linear_search", {"n": 2500, "queries": 4},
     "3e91845c0f1d9c846f2358354a6b685a9df368e46e08863d14ef6590881dbd4a",
     "be5564bab78641ae13b35fa48d255100b516cdd4281dc5adb172e677b0511dca"),
    ("hash_collision", {"chain": 4, "searches": 3, "threads": 3},
     "d74b2301e9c2a43ae2a0117ab8107c12553c4d45283ed688e32746eab9449217",
     "e39b2a59e0abf82bb0ce58e38d4bc6ce622b6ff2c19e55940b5fbe62c6829120"),
    ("adjacent_equal", {"reps": 0, "threads": 2},
     "c47a7035c35232d2be29ae4fed2a6d7619afd5f15b26537fd8ec3420e03a06de",
     "36df5b0d8c6fcd630d374fa4e122d3f05acdb7c2b2e7cafbd06ddd88e111591b"),
    ("sparse_zeros", {"len": 40, "threads": 2},
     "b6092901d3f74f22df10c09e814477facff2a2fabbdf3a104d4d412ad15d0d8a",
     "1527bc1eea81005190f3b92e625245bac24d27b86c2585d01e59b72343a90a1a"),
]


@pytest.mark.parametrize(
    "name,params,binary,text", PRODUCER_DIGESTS,
    ids=[name + "".join(f"-{k}={v}" for k, v in params.items())
         for name, params, _, _ in PRODUCER_DIGESTS])
def test_producer_bytes_are_pinned(name, params, binary, text):
    events, sm = generate(Scenario(name, params))
    raw = io.BytesIO()
    write_trace(events, sm, raw)
    assert hashlib.sha256(raw.getvalue()).hexdigest() == binary
    events, sm = generate(Scenario(name, params))
    out = io.StringIO()
    write_text_trace(events, sm, out)
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == text


def test_oracle_adjacent_equal_values():
    oracle = scenario_analysis(Scenario("adjacent_equal"))
    # Four distinct addresses: no temporal redundancy at all.
    assert temporal_instances(oracle)[1] == 0
    assert oracle.profile.totals.redundant_nonfp_bytes == 0
    assert oracle.profile.totals.total_nonfp_bytes == 16
    row = oracle.profile.objects[("static", "A")]
    assert row.redundant_instances == 2 and row.total_instances == 4
    assert row.redundant_bytes_precise == 8


def test_oracle_single_load_never_redundant():
    oracle = scenario_analysis(Scenario("adjacent_equal",
                                        {"values": (42,)}))
    assert temporal_instances(oracle)[1] == 0
    assert oracle.profile.objects[("static", "A")].redundant_instances == 0


def test_oracle_forward_copy_single_rep():
    # Every load hits a fresh address, so loads 2..7 are redundant only
    # spatially (value 1 reloaded within the same object); the temporal
    # map sees no repeats.
    oracle = scenario_analysis(Scenario("forward_copy",
                                        {"len": 8, "reps": 1}))
    assert temporal_instances(oracle)[1] == 0
    ((key, row),) = oracle.profile.objects.items()
    assert key[0] == "dynamic"
    assert row.redundant_instances == 6 and row.total_instances == 7
    spatial = [red for _, obj, red in oracle.spatial_verdicts
               if obj is not None]
    assert spatial == [False] + [True] * 6


def test_oracle_forward_copy_across_reps_temporal():
    oracle = scenario_analysis(Scenario("forward_copy",
                                        {"len": 8, "reps": 3}))
    # 7 loads per rep; every rep after the first repeats the addresses
    # with the same value.
    assert temporal_instances(oracle) == (21, 14)


def test_oracle_refuses_oversized_scenarios():
    big = Scenario("linear_search", {"n": 2000, "queries": 1000})
    with pytest.raises(ConfigError) as err:
        scenario_analysis(big)
    assert str(MAX_ORACLE_LOADS) in str(err.value)


def test_oracle_sparse_zeros_block_layout():
    oracle = scenario_analysis(Scenario("sparse_zeros"))
    frac = instance_fraction(oracle.profile.objects)
    # 900 zeros in one run per array: 899 redundant of 1000 per object.
    assert frac == pytest.approx(899 / 1000)


def test_oracle_approx_drift_epsilon_sensitivity():
    scenario = Scenario("approx_drift", {"len": 2, "reps": 50})
    loose = scenario_analysis(scenario, epsilon=0.01)
    _, (approx, _) = program_fraction(loose.profile.totals)
    assert approx == pytest.approx(49 / 50)
    tight = scenario_analysis(scenario, epsilon=0.001)
    _, (approx, _) = program_fraction(tight.profile.totals)
    assert approx == 0.0


@pytest.mark.parametrize("name,params", [
    ("adjacent_equal", {}),
    ("forward_copy", {"len": 16, "reps": 5}),
    ("linear_search", {"n": 50, "queries": 20}),
    ("hash_collision", {"chain": 8, "searches": 10}),
    ("stencil", {"nx": 16, "ny": 4}),
    ("callee_spill", {"reps": 30}),
    ("sparse_zeros", {"len": 200}),
    ("sparse_zeros", {"len": 200, "layout": "shuffled", "seed": 4}),
    ("approx_drift", {"len": 2, "reps": 40}),
    ("random_mixed", {"loads": 2000, "seed": 77}),
])
def test_engine_matches_oracle_totals(name, params):
    scenario = Scenario(name, params)
    oracle = scenario_analysis(scenario)
    events, sm = generate(scenario)
    profile = analyze_events(events, sm, FULL)
    assert profile.totals == oracle.profile.totals
    total, redundant = temporal_instances(oracle)
    assert sum(r.total_instances for r in profile.temporal_pairs.values()) \
        == total
    assert sum(r.redundant_instances
               for r in profile.temporal_pairs.values()) == redundant
    # Spatial: both key objects by name or allocation context, so every
    # object row, not only the sums over rows, must agree.
    assert profile.objects == oracle.profile.objects


def test_two_threads_double_the_oracle_and_profile():
    one = scenario_analysis(Scenario("forward_copy",
                                     {"len": 8, "reps": 4}))
    two = scenario_analysis(Scenario("forward_copy",
                                     {"len": 8, "reps": 4, "threads": 2}))
    assert two.profile.totals.total_nonfp_bytes == \
        2 * one.profile.totals.total_nonfp_bytes
    assert temporal_instances(two)[1] == 2 * temporal_instances(one)[1]
