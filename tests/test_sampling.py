"""Sampling gate behavior and its interaction with profile counters."""

import random

import pytest

from redload.engine import AnalysisConfig, analyze_events
from redload.errors import ConfigError
from redload.sampling import SamplingConfig, monitoring_window
from redload.trace import LOAD, SourceMap, TraceEvent
from redload.workloads import Scenario, generate

from helpers import is_monitored


def _gated(indices, cfg):
    """The indices of the loads that analyze_events monitors, given one
    load at each index, in order."""
    sm = SourceMap()
    sm.add_site(1, "main", "m.c", 1)
    current = []

    def feed():
        for i in indices:
            current.append(i)
            yield TraceEvent(LOAD, 0, i, addr=0x40, size=4, value=b"\0" * 4,
                             site_id=1)

    gated = []
    profile = analyze_events(feed(), sm, AnalysisConfig(sampling=cfg),
                             verdict_sink=lambda v: gated.append(current[-1]))
    assert profile.totals.total_nonfp_bytes == 4 * len(gated)
    return gated


def test_disabled_sampling_monitors_everything():
    indices = list(range(0, 10_000, 97))
    assert _gated(indices, SamplingConfig.disabled()) == indices


def test_small_window_pattern():
    cfg = SamplingConfig(window_enable=2, window_disable=3)
    got = [monitoring_window(i, cfg)[2] for i in range(10)]
    assert got == [True, True, False, False, False,
                   True, True, False, False, False]


def test_default_window_boundary():
    cfg = SamplingConfig()
    assert monitoring_window(999_999, cfg)[2]
    assert not monitoring_window(1_000_000, cfg)[2]
    assert not monitoring_window(99_999_999, cfg)[2]
    assert monitoring_window(100_000_000, cfg)[2]


def test_window_enable_must_be_positive():
    with pytest.raises(ConfigError):
        SamplingConfig(window_enable=0)
    SamplingConfig(window_enable=0, enabled=False)


@pytest.mark.parametrize("kwargs", [
    {"window_enable": 2.5}, {"window_enable": True}, {"window_enable": "5"},
    {"window_disable": None}, {"window_disable": False},
    {"window_disable": 10.0}, {"window_enable": 1.0, "enabled": False}],
    ids=["enable-float", "enable-bool", "enable-str", "disable-none",
         "disable-bool", "disable-float", "enable-float-disabled"])
def test_windows_must_be_ints_not_bools(kwargs):
    name = next(iter(kwargs))
    with pytest.raises(ConfigError, match=f"^{name} must be an int, not "):
        SamplingConfig(**kwargs)


GATE_CONFIGS = [SamplingConfig(window_enable=1, window_disable=0),
                SamplingConfig(window_enable=5, window_disable=0),
                SamplingConfig(window_enable=1, window_disable=4),
                SamplingConfig(window_enable=2, window_disable=3),
                SamplingConfig(window_enable=3, window_disable=17),
                SamplingConfig()]


def _gate_indices(cfg, seed):
    """Indices around every window edge of the first periods, repeated and
    shuffled, plus far-off ones."""
    rng = random.Random(seed)
    period = cfg.window_enable + cfg.window_disable
    edges = [k * period + d for k in range(4)
             for d in (0, cfg.window_enable, period)]
    near = [e + off for e in edges for off in (-1, 0, 1) if e + off >= 0]
    far = [rng.randrange(1 << 63) for _ in range(50)]
    indices = near * 3 + far + list(range(3 * period if period < 100 else 0))
    rng.shuffle(indices)
    return indices


@pytest.mark.parametrize("cfg", GATE_CONFIGS)
def test_monitoring_window_matches_is_monitored(cfg):
    for i in _gate_indices(cfg, 7):
        lo, hi, monitored = monitoring_window(i, cfg)
        assert lo <= i < hi
        assert monitored == is_monitored(i, cfg)
        assert all(is_monitored(j, cfg) == monitored
                   for j in (lo, hi - 1, (lo + hi) // 2))


@pytest.mark.parametrize("cfg", GATE_CONFIGS)
def test_engine_gate_agrees_with_is_monitored_in_any_order(cfg):
    # The engine caches the latest window; loads are fed straight to
    # analyze_events (no reader), so their ins_index order is arbitrary.
    indices = _gate_indices(cfg, 11)
    assert _gated(indices, cfg) == [i for i in indices if is_monitored(i, cfg)]


def test_long_run_monitored_fraction_converges():
    cfg = SamplingConfig(window_enable=3, window_disable=17)
    n = 200_000
    monitored = sum(monitoring_window(i, cfg)[2] for i in range(n))
    assert monitored / n == pytest.approx(3 / 20, abs=1e-4)


def _counter_values(profile):
    vals = [profile.totals.total_nonfp_bytes, profile.totals.total_fp_bytes,
            profile.totals.redundant_nonfp_bytes,
            profile.totals.redundant_fp_bytes]
    for rows in (profile.temporal_pairs, profile.objects,
                 profile.spatial_pairs):
        for key in sorted(rows, key=repr):
            c = rows[key]
            vals.extend([c.redundant_bytes_precise, c.redundant_bytes_approx,
                         c.total_bytes_precise, c.total_bytes_approx,
                         c.redundant_instances, c.total_instances])
    return vals


def _run(scenario, sampling):
    events, sm = generate(scenario)
    return analyze_events(events, sm, AnalysisConfig(sampling=sampling))


def test_sampled_totals_never_exceed_full_monitoring():
    # Monitored loads are a subset, so byte totals can only shrink. On
    # value-mutating traces the *pairing* may differ (a load compares
    # against the last monitored prior), so redundant counters are only
    # bounded on traces whose per-address values never change.
    scenario = Scenario("random_mixed", {"loads": 6000, "seed": 21})
    full = _run(scenario, SamplingConfig.disabled())
    sampled = _run(scenario, SamplingConfig(window_enable=500,
                                            window_disable=2000))
    assert sampled.totals.total_nonfp_bytes <= full.totals.total_nonfp_bytes
    assert sampled.totals.total_fp_bytes <= full.totals.total_fp_bytes
    for key, row in sampled.objects.items():
        assert row.total_instances <= full.objects[key].total_instances


def test_sampled_counters_bounded_on_value_stable_trace():
    scenario = Scenario("forward_copy", {"len": 32, "reps": 120})
    full = _run(scenario, SamplingConfig.disabled())
    sampled = _run(scenario, SamplingConfig(window_enable=300,
                                            window_disable=900))
    tf, ts = full.totals, sampled.totals
    assert ts.total_nonfp_bytes <= tf.total_nonfp_bytes
    assert ts.redundant_nonfp_bytes <= tf.redundant_nonfp_bytes
    full_rows = {k[:2]: c for k, c in full.temporal_pairs.items()}
    for key, row in sampled.temporal_pairs.items():
        counterpart = full_rows[key[:2]]
        assert row.total_instances <= counterpart.total_instances
        assert row.redundant_instances <= counterpart.redundant_instances
    for key, row in sampled.objects.items():
        assert row.total_instances <= full.objects[key].total_instances
        assert row.redundant_instances <= \
            full.objects[key].redundant_instances
