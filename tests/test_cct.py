"""Context tree: interning, counter monotonicity, loop conventions."""

import random

import pytest

from redload.cct import FUNCTION, LOADSITE, LOOP, ROOT, ContextTree
from redload.errors import MalformedTraceError
from redload.spatial import ObjectRegistry


def test_call_from_root():
    t = ContextTree()
    h = t.on_call(7)
    node = t.nodes[h]
    assert node.kind == FUNCTION and node.ident == 7
    assert node.parent is t.root


def test_repeated_loop_head_is_one_node_with_updated_pass():
    t = ContextTree()
    t.on_call(1)
    h1 = t.on_loop_head(4)
    h2 = t.on_loop_head(4)
    assert h1 == h2
    node = t.nodes[h1]
    # Nothing ticked since the first pass, so the second one keeps its
    # counter value; after a load, the next pass stores a fresh one.
    assert (node.last_pass_ts, t.timestamp) == (1, 1)
    t.current_load_context(2)
    assert t.on_loop_head(4) == h1
    assert (node.last_pass_ts, t.timestamp) == (3, 3)


# The tick rule: every load ticks the counter, and a loop pass ticks it
# unless that loop node's last pass is the latest tick.

def test_repeated_pass_with_nothing_between_does_not_tick():
    t = ContextTree()
    t.on_loop_head(4)
    h = t.on_loop_head(4)
    assert (t.timestamp, t.nodes[h].last_pass_ts) == (1, 1)


def test_pass_after_a_load_ticks():
    t = ContextTree()
    t.on_loop_head(4)
    t.current_load_context(2)
    h = t.on_loop_head(4)
    assert (t.timestamp, t.nodes[h].last_pass_ts) == (3, 3)


def test_pass_after_another_loops_pass_ticks():
    t = ContextTree()
    outer = t.on_loop_head(4)
    t.on_loop_head(5)
    t.on_loop_head(4)
    assert (t.timestamp, t.nodes[outer].last_pass_ts) == (3, 3)


def test_pass_after_call_and_return_without_a_load_does_not_tick():
    t = ContextTree()
    h = t.on_loop_head(4)
    t.on_call(1)
    t.on_return(1)
    t.on_loop_head(4)
    assert (t.timestamp, t.nodes[h].last_pass_ts) == (1, 1)


def test_first_pass_of_a_new_loop_node_ticks_at_timestamp_0():
    t = ContextTree()
    h = t.on_loop_head(4)
    assert (t.timestamp, t.nodes[h].last_pass_ts) == (1, 1)


def test_nested_loops_across_calls_get_ordered_timestamps():
    t = ContextTree()
    t.on_call(1)            # f
    l1 = t.on_loop_head(10)
    t.on_call(2)            # g
    l2 = t.on_loop_head(20)
    path = [n.kind for n in t.root_path(l2)]
    assert path == [ROOT, FUNCTION, LOOP, FUNCTION, LOOP]
    assert t.nodes[l1].last_pass_ts < t.nodes[l2].last_pass_ts


def test_load_context_interns_and_counts():
    t = ContextTree()
    t.on_call(1)
    h1, ts1 = t.current_load_context(5)
    h2, ts2 = t.current_load_context(5)
    assert h1 == h2
    assert ts1 == 1         # first timestamp with no prior loops
    assert ts2 == 2
    leaf = t.nodes[h1]
    assert leaf.kind == LOADSITE and leaf.ident == 5


def test_paper_inner_loop_walkthrough_timestamps():
    # loop1 pass, loop2 pass, load -> T=3; second loop2 pass, load -> T=5.
    t = ContextTree()
    t.on_call(1)
    t.on_loop_head(11)
    t.on_loop_head(12)
    _, ts_old = t.current_load_context(2)
    assert ts_old == 3
    t.on_loop_head(12)
    h_new, ts_new = t.current_load_context(2)
    assert ts_new == 5
    assert t.nodes[t.nodes[h_new].parent.handle].last_pass_ts == 4


def test_paper_outer_loop_walkthrough_timestamps():
    # Three inner-loop trips then an outer pass: the second-trip load
    # lands on T=10 with loop1 at T=8 and loop2 at T=9.
    t = ContextTree()
    t.on_call(1)
    l1 = t.on_loop_head(11)
    for _ in range(3):
        t.on_loop_head(12)
        t.current_load_context(2)
    t.on_loop_head(11)
    l2 = t.on_loop_head(12)
    _, ts_new = t.current_load_context(2)
    assert ts_new == 10
    assert t.nodes[l1].last_pass_ts == 8
    assert t.nodes[l2].last_pass_ts == 9


def test_return_unwinds_past_loop_nodes():
    t = ContextTree()
    t.on_call(1)
    t.on_loop_head(4)
    t.on_call(2)
    t.on_loop_head(5)
    t.on_return(2)
    # Back in f's loop 4 context.
    assert t.cursor.kind == LOOP and t.cursor.ident == 4
    t.on_return(1)
    assert t.cursor is t.root


def test_return_with_no_frame_is_malformed():
    t = ContextTree()
    with pytest.raises(MalformedTraceError):
        t.on_return(1)
    t.on_call(1)
    t.on_loop_head(2)
    t.on_return(1)
    with pytest.raises(MalformedTraceError):
        t.on_return(1)


def test_sibling_loop_reheads_pop_deeper_loops():
    t = ContextTree()
    t.on_call(1)
    la = t.on_loop_head(10)
    t.on_loop_head(20)      # nested under 10 per the descent rule
    lb = t.on_loop_head(10)  # re-head of 10 pops loop 20
    assert la == lb
    assert t.cursor.handle == la


def test_same_loop_id_in_recursive_frames_stays_separate():
    t = ContextTree()
    t.on_call(1)
    outer = t.on_loop_head(10)
    t.on_call(1)
    inner = t.on_loop_head(10)
    assert outer != inner
    # The re-head matches the innermost frame's loop only.
    assert t.on_loop_head(10) == inner


def test_root_path_examples():
    t = ContextTree()
    assert t.root_path(0) == [t.root]
    t.on_call(1)
    t.on_loop_head(10)
    t.on_call(2)
    t.on_loop_head(20)
    h, _ = t.current_load_context(3)
    path = t.root_path(h)
    assert [n.kind for n in path] == [ROOT, FUNCTION, LOOP, FUNCTION, LOOP,
                                      LOADSITE]
    assert [n.ident for n in path][1:] == [1, 10, 2, 20, 3]
    # Each node's parent is the one before it, and the last is the handle's.
    assert path[-1].handle == h
    assert all(n.parent is p for p, n in zip(path, path[1:]))


def test_unknown_handle_raises():
    t = ContextTree()
    with pytest.raises(KeyError):
        t.root_path(99)
    with pytest.raises(KeyError):
        t.structural_path(99)
    # A negative handle names no node either, and nothing is cached for it.
    t.on_call(1)
    t.on_loop_head(10)
    for handle in (-1, -2, -3):
        with pytest.raises(KeyError):
            t.root_path(handle)
        with pytest.raises(KeyError):
            t.structural_path(handle)
    assert t._paths == {}


def test_counter_strictly_monotonic_random_walk():
    rng = random.Random(7)
    t = ContextTree()
    t.on_call(1)
    frames = [1]
    seen = 0
    latest = None   # handle of the loop node whose pass ticked last
    for _ in range(5000):
        r = rng.random()
        if r < 0.15 and len(frames) < 8:
            frames.append(rng.randrange(2, 6))
            t.on_call(frames[-1])
        elif r < 0.25 and len(frames) > 1:
            t.on_return(frames.pop())
        elif r < 0.55:
            h = t.on_loop_head(rng.randrange(10, 14))
            if h != latest:
                seen, latest = seen + 1, h
            assert (t.timestamp, t.nodes[h].last_pass_ts) == (seen, seen)
        else:
            _, ts = t.current_load_context(rng.randrange(30, 33))
            seen, latest = seen + 1, None
            assert ts == seen
        assert t.timestamp == seen


def test_interning_same_paths_share_handles():
    t = ContextTree()
    handles = []
    for _ in range(3):
        t.on_call(1)
        t.on_loop_head(10)
        h, _ = t.current_load_context(2)
        handles.append(h)
        t.on_return(1)
    assert len(set(handles)) == 1


def test_structural_path_excludes_root():
    t = ContextTree()
    t.on_call(1)
    t.on_loop_head(10)
    h, _ = t.current_load_context(2)
    assert t.structural_path(h) == ((FUNCTION, 1), (LOOP, 10), (LOADSITE, 2))
    assert t.structural_path(0) == ()


def test_allocations_at_one_context_share_one_path():
    # The engine keys an allocation by the structural path of the cursor.
    t = ContextTree()
    reg = ObjectRegistry()
    t.on_call(1)
    t.on_loop_head(10)
    reg.on_alloc(0x1000, 8, t.structural_path(t.cursor.handle))
    t.on_loop_head(10)
    t.current_load_context(2)
    reg.on_alloc(0x2000, 8, t.structural_path(t.cursor.handle))
    first, second = (reg.by_base[base].report_key[1]
                     for base in (0x1000, 0x2000))
    assert first == ((FUNCTION, 1), (LOOP, 10))
    assert second is first


def test_nesting_property_inner_pass_after_outer():
    # Whenever both loops on a path have been passed since entering the
    # outer one, the inner loop's latest pass is the later one.
    t = ContextTree()
    t.on_call(1)
    rng = random.Random(3)
    outer = t.on_loop_head(10)
    inner = t.on_loop_head(20)
    for _ in range(200):
        if rng.random() < 0.4:
            t.on_loop_head(10)
            t.on_loop_head(20)
        else:
            t.on_loop_head(20)
        assert t.nodes[outer].last_pass_ts < t.nodes[inner].last_pass_ts
