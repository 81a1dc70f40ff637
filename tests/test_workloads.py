"""Scenario generation shapes, and the test oracle on whole scenarios."""

import io
import struct

import pytest

from redload.engine import AnalysisConfig, analyze_events
from redload.errors import ConfigError
from redload.sampling import SamplingConfig
from redload.temporal import program_fraction
from redload.trace import LOAD, write_trace
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
