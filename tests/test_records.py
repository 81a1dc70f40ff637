"""The package's plain record classes: value semantics, constructors, and
the modules that a command's process imports."""

import copy
import os
import subprocess
import sys
from pathlib import Path

import pytest

from redload.engine import AnalysisConfig
from redload.profiles import Profile
from redload.sampling import SamplingConfig
from redload.temporal import PairCounters, ProgramTotals
from redload.trace import LOAD, SourceMap, TraceEvent
from redload.workloads import Scenario

ROOT = Path(__file__).resolve().parents[1]

# Per class: its fields in constructor order, and one value for each.
_FIELDS = {
    TraceEvent: (("kind", LOAD), ("thread_id", 3), ("ins_index", 9),
                 ("addr", 0x40), ("size", 8), ("value", b"\1" * 8),
                 ("fp_class", 2), ("site_id", 5), ("loop_id", 6),
                 ("base", 0x1000), ("alloc_size", 64),
                 ("objects", (("a", 0x2000, 16),))),
    SourceMap: (("sites", {1: ("main", "a.c", 1)}),
                ("loops", {2: ("a.c", 2)})),
    PairCounters: (("redundant_bytes_precise", 1),
                   ("redundant_bytes_approx", 2),
                   ("total_bytes_precise", 3), ("total_bytes_approx", 4),
                   ("redundant_instances", 5), ("total_instances", 6),
                   ("fp_exact_instances", 7)),
    ProgramTotals: (("total_nonfp_bytes", 1), ("total_fp_bytes", 2),
                    ("redundant_nonfp_bytes", 3),
                    ("redundant_fp_bytes", 4)),
    Profile: (("totals", ProgramTotals(1, 2, 3, 4)),
              ("temporal_pairs", {(None, (), None): PairCounters(1)}),
              ("objects", {("static", "A"): PairCounters(2)}),
              ("spatial_pairs", {(("static", "A"), None, (), None):
                                 PairCounters(3)}),
              ("thread_count", 2), ("meta", {"approx_epsilon": 0.01})),
}
VALUE_CLASSES = sorted(_FIELDS, key=lambda cls: cls.__name__)


def _sample(cls):
    return cls(*[value for _, value in _FIELDS[cls]])


def _other(value):
    """A value of the same field that differs from `value`."""
    if isinstance(value, (dict, tuple, bytes)):
        return type(value)()
    if isinstance(value, ProgramTotals):
        return ProgramTotals()
    return value + 1


@pytest.mark.parametrize("cls", VALUE_CLASSES, ids=lambda c: c.__name__)
def test_fields_are_the_slots_in_constructor_order(cls):
    names = [name for name, _ in _FIELDS[cls]]
    assert list(cls.__slots__) == names
    by_position, by_keyword = _sample(cls), cls(**dict(_FIELDS[cls]))
    for name, value in _FIELDS[cls]:
        assert getattr(by_position, name) is value
        assert getattr(by_keyword, name) is value


@pytest.mark.parametrize("cls", VALUE_CLASSES, ids=lambda c: c.__name__)
def test_equal_exactly_when_every_field_is_equal(cls):
    a, b = _sample(cls), copy.deepcopy(_sample(cls))
    assert a == b and not a != b
    for name in cls.__slots__:
        changed = copy.deepcopy(a)
        setattr(changed, name, _other(getattr(a, name)))
        assert changed != a and a != changed, name
        assert not changed == a, name


@pytest.mark.parametrize("cls", VALUE_CLASSES, ids=lambda c: c.__name__)
def test_never_equal_to_another_type(cls):
    a = _sample(cls)
    values = tuple(getattr(a, name) for name in cls.__slots__)
    for other in (values, list(values), dict(_FIELDS[cls]), None, object(),
                  *[_sample(c) for c in VALUE_CLASSES if c is not cls]):
        assert a != other and other != a
        assert not a == other


@pytest.mark.parametrize("cls", VALUE_CLASSES, ids=lambda c: c.__name__)
def test_unhashable(cls):
    with pytest.raises(TypeError):
        hash(_sample(cls))
    with pytest.raises(TypeError):
        {_sample(cls)}


@pytest.mark.parametrize("cls", VALUE_CLASSES, ids=lambda c: c.__name__)
def test_deepcopy_is_equal_and_shares_no_container(cls):
    a = _sample(cls)
    b = copy.deepcopy(a)
    assert b == a and b is not a
    for name in cls.__slots__:
        if isinstance(getattr(a, name), dict):
            assert getattr(b, name) is not getattr(a, name)


@pytest.mark.parametrize("cls", VALUE_CLASSES, ids=lambda c: c.__name__)
def test_repr_names_every_field(cls):
    text = repr(_sample(cls))
    assert text.startswith(cls.__name__ + "(")
    for name, value in _FIELDS[cls]:
        assert f"{name}={value!r}" in text


@pytest.mark.parametrize("cls", VALUE_CLASSES, ids=lambda c: c.__name__)
def test_an_unknown_attribute_cannot_be_set(cls):
    a = _sample(cls)
    with pytest.raises(AttributeError):
        a.passes = 1


def test_defaults_are_as_documented():
    ev = TraceEvent(LOAD, 1, 2)
    assert (ev.addr, ev.size, ev.value, ev.fp_class, ev.site_id, ev.loop_id,
            ev.base, ev.alloc_size, ev.objects) == (0, 0, b"", 0, 0, 0, 0, 0,
                                                    ())
    assert PairCounters() == PairCounters(0, 0, 0, 0, 0, 0, 0)
    assert ProgramTotals() == ProgramTotals(0, 0, 0, 0)
    assert Profile() == Profile(ProgramTotals(), {}, {}, {}, 0, None)
    assert SourceMap() == SourceMap({}, {})
    cfg = SamplingConfig()
    assert (cfg.window_enable, cfg.window_disable, cfg.enabled) == \
        (1_000_000, 99_000_000, True)
    config = AnalysisConfig()
    assert config.approx_epsilon == 0.01
    assert config.sampling.window_enable == 1_000_000
    assert Scenario("x").params == {}


def test_mutable_defaults_are_fresh_for_each_instance():
    a, b = Profile(), Profile()
    for name in ("totals", "temporal_pairs", "objects", "spatial_pairs"):
        assert getattr(a, name) is not getattr(b, name), name
    a.temporal_pairs["k"] = PairCounters()
    a.totals.total_fp_bytes = 8
    assert b == Profile()
    s, t = SourceMap(), SourceMap()
    assert s.sites is not t.sites and s.loops is not t.loops
    s.add_site(1, "main", "a.c", 1)
    s.add_loop(2, "a.c", 2)
    assert t == SourceMap()
    x, y = Scenario("adjacent_equal"), Scenario("adjacent_equal")
    assert x.params is not y.params
    assert AnalysisConfig().sampling is not AnalysisConfig().sampling


def test_the_other_classes_construct_positionally_in_the_old_order():
    cfg = SamplingConfig(5, 7, False)
    assert (cfg.window_enable, cfg.window_disable, cfg.enabled) == \
        (5, 7, False)
    config = AnalysisConfig(cfg, 0.5)
    assert config.sampling is cfg and config.approx_epsilon == 0.5
    scenario = Scenario("stencil", {"nx": 4})
    assert (scenario.name, scenario.params) == ("stencil", {"nx": 4})


_MODULES = ("dataclasses", "inspect", "ast", "dis", "tokenize")

_GUARD = f"""
import sys
modules = {_MODULES!r}
assert not [m for m in modules if m in sys.modules], "bare interpreter"
from redload import cli
trace, profile = sys.argv[1:]
for argv in (["gen", "--scenario", "forward_copy", "-o", trace],
             ["analyze", trace, "-o", profile],
             ["analyze", trace, "-o", profile, "--no-sampling"],
             ["report", profile, "--top", "3"],
             ["report", profile, "--format", "json"]):
    assert cli.main(argv) == 0, argv
    found = [m for m in modules if m in sys.modules]
    assert not found, (argv, found)
"""


def test_no_command_imports_dataclasses_or_inspect(tmp_path):
    # Every command is a fresh process: these modules and their imports
    # would cost each one about 13 ms before it does any work.
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c", _GUARD, str(tmp_path / "t.lrt"),
         str(tmp_path / "p.json")],
        env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
