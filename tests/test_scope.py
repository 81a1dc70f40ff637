"""Scope resolution: the worked nested-loop cases, the LCA case, the
per-pair-key store, and equivalence with a pass-history oracle on
randomized traces."""

import pytest

from redload.cct import LOOP, ContextTree
from redload.engine import AnalysisConfig, analyze_events
from redload.sampling import SamplingConfig
from redload.scope import ScopeBudget, resolve_scope
from redload.workloads import Scenario, generate

from helpers import inner_scope_trace, outer_scope_trace
from oracles import expected_analysis

FULL = AnalysisConfig(sampling=SamplingConfig.disabled())


def _walk_inner_case():
    t = ContextTree()
    t.on_call(1)
    t.on_loop_head(11)
    t.on_loop_head(12)
    h_old, ts_old = t.current_load_context(2)
    t.on_loop_head(12)
    h_new, ts_new = t.current_load_context(2)
    return t, h_old, ts_old, h_new, ts_new


def test_inner_loop_case_resolves_inner_loop():
    t, h_old, ts_old, h_new, ts_new = _walk_inner_case()
    assert (ts_old, ts_new) == (3, 5)
    scope = resolve_scope(t, h_old, ts_old, h_new, ts_new)
    node = t.nodes[scope]
    assert node.kind == LOOP and node.ident == 12
    assert node.last_pass_ts == 4


def test_outer_loop_case_resolves_outer_loop():
    t = ContextTree()
    t.on_call(1)
    t.on_loop_head(11)
    holds = []
    for k in range(3):
        t.on_loop_head(12)
        holds.append(t.current_load_context(2))
    t.on_loop_head(11)
    t.on_loop_head(12)
    h_new, ts_new = t.current_load_context(2)
    h_old, ts_old = holds[0]
    assert (ts_old, ts_new) == (3, 10)
    scope = resolve_scope(t, h_old, ts_old, h_new, ts_new)
    node = t.nodes[scope]
    assert node.kind == LOOP and node.ident == 11
    assert node.last_pass_ts == 8


def test_no_loop_between_loads_gives_none():
    t = ContextTree()
    t.on_call(1)
    h1, ts1 = t.current_load_context(2)
    h2, ts2 = t.current_load_context(2)
    assert resolve_scope(t, h1, ts1, h2, ts2) is None


def test_lca_case_searches_only_common_prefix():
    # One loop drives calls to two different callees; the pair's contexts
    # differ, and the qualifying loop sits on the shared prefix.
    t = ContextTree()
    t.on_call(1)
    t.on_loop_head(11)
    t.on_call(2)
    t.on_loop_head(21)
    h_old, ts_old = t.current_load_context(3)
    t.on_return(2)
    t.on_loop_head(11)
    t.on_call(4)
    t.on_loop_head(41)
    h_new, ts_new = t.current_load_context(5)
    scope = resolve_scope(t, h_old, ts_old, h_new, ts_new)
    node = t.nodes[scope]
    assert node.kind == LOOP and node.ident == 11
    # loop 41 passed between the loads too, but it is not on the common
    # prefix, so it can never be the scope.
    assert ts_old < t.nodes[t.cursor.handle].last_pass_ts < ts_new


def test_requires_ordered_timestamps():
    t, h_old, ts_old, h_new, ts_new = _walk_inner_case()
    with pytest.raises(ValueError):
        resolve_scope(t, h_old, ts_new, h_new, ts_old)


def test_foreign_handle_is_usage_error():
    t, h_old, ts_old, h_new, ts_new = _walk_inner_case()
    with pytest.raises(KeyError):
        resolve_scope(t, 10_000, ts_old, h_new, ts_new)


def test_budget_one_resolves_once_and_reuses():
    t, h_old, ts_old, h_new, ts_new = _walk_inner_case()
    budget = ScopeBudget(t)
    scope = budget.resolve(("k",), h_old, ts_old, h_new, ts_new)
    assert scope == resolve_scope(t, h_old, ts_old, h_new, ts_new)
    assert t.nodes[scope].ident == 12
    assert budget.scopes.get(("k",)) == scope
    assert budget.traversals == 1


def test_distinct_pair_keys_have_distinct_budgets():
    # Key "a" is resolved while loop 12 is its scope. Later passes move
    # every loop's latest pass past ts_a, so a fresh traversal for "a"
    # finds no scope, but "a" keeps the one it stored.
    t, h_old, ts_old, h_a, ts_a = _walk_inner_case()
    budget = ScopeBudget(t)
    budget.resolve(("a",), h_old, ts_old, h_a, ts_a)
    t.on_loop_head(11)
    t.on_loop_head(12)
    h_b, ts_b = t.current_load_context(2)
    budget.resolve(("b",), h_old, ts_old, h_b, ts_b)
    assert t.nodes[budget.scopes.get(("a",))].ident == 12
    assert t.nodes[budget.scopes.get(("b",))].ident == 11
    assert resolve_scope(t, h_old, ts_old, h_a, ts_a) is None
    assert budget.traversals == 2
    assert budget.scopes.get(("missing",)) is None


def test_worked_examples_through_the_engine():
    b = inner_scope_trace()
    profile = analyze_events(b.events, b.sm, FULL)
    red_rows = [(k, c) for k, c in profile.temporal_pairs.items()
                if c.redundant_instances]
    ((key, row),) = red_rows
    assert key[2] is not None
    assert key[2][-1] == ("loop", "", "walk.c", 4)   # inner loop

    b = outer_scope_trace()
    profile = analyze_events(b.events, b.sm, FULL)
    red_rows = [(k, c) for k, c in profile.temporal_pairs.items()
                if c.redundant_instances]
    ((key, row),) = red_rows
    assert key[2][-1] == ("loop", "", "walk.c", 3)   # outer loop


def test_scope_oracle_equivalence_on_random_traces():
    # A focused slice of acceptance criterion 3; the full 200-seed sweep
    # lives in the acceptance suite.
    for seed in range(20):
        scenario = Scenario("random_mixed",
                            {"loads": 1500, "seed": 400 + seed,
                             "fp_fraction": 0.1})
        events, sm = generate(scenario)
        events = list(events)
        expected = expected_analysis(events, sm)
        profile = analyze_events(events, sm, FULL)
        got = {k[:2]: k[2] for k, c in profile.temporal_pairs.items()
               if c.redundant_instances}
        want = {k[:2]: v for (k, v) in expected.temporal_scopes.items()
                if k[0] is not None}
        want = {k: v for k, v in want.items()
                if any(c.redundant_instances
                       for kk, c in expected.profile.temporal_pairs.items()
                       if kk[:2] == k)}
        assert got == want
