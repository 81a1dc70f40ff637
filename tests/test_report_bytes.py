"""Report bytes, pinned: the text and JSON reports of every scenario.

Each case's digest covers both formats, with sampling off and with a
3-in-8 window, at several `top` values. A refactor of the report code
must leave every byte as it is; a change of the report format changes
these digests on purpose.
"""

import hashlib
import json

import pytest

from redload.engine import AnalysisConfig, analyze_events
from redload.report import report_json, report_text
from redload.sampling import SamplingConfig
from redload.workloads import SCENARIOS, Scenario, generate

CONFIGS = (SamplingConfig.disabled(), SamplingConfig(3, 5))
TOPS = (0, 1, 5, 20, 10**9)     # the last one keeps every row

# (id, scenario, params, SHA-256 of every report of the case in the
# order `_reports` gives them).
CASES = (
    ("adjacent_equal", "adjacent_equal", {},
     "4d5dc63b1f2c3a40852608d5bf4746d558be4991967e1c8baf4326bdd3456aec"),
    ("linear_search", "linear_search", {"n": 64, "queries": 16},
     "b91846e52af7942ee9b860c7567ffceb4e1d98cfe45f6313383d6b6fb990234d"),
    ("hash_collision", "hash_collision", {"chain": 8, "searches": 10},
     "7d7abae0378c18eadab21f9c8c1052128bedc12f78e84020e33d0212bd3f47f1"),
    ("stencil", "stencil", {"nx": 16, "ny": 4, "reps": 2},
     "962cdc8e4f58ed845a18bd7be67868b62ba1a4769e300de2ce1a083699d7f1d6"),
    ("forward_copy", "forward_copy", {"len": 16, "reps": 5},
     "bb75d4b945a646024855165329aced53cac0c3e64062ccccebc58f0b1b3d2ec1"),
    ("callee_spill", "callee_spill", {"reps": 20},
     "1b3b4a1039c6553cac98823e1dce9daaa8ef84f43555237a72b2eee6735ee270"),
    ("sparse_zeros", "sparse_zeros", {"len": 200},
     "e4e40c5371f04ea592e7c0799d492e9e0c9c247a0209f717462497ebdd1bb927"),
    ("approx_drift", "approx_drift", {"len": 4, "reps": 50},
     "5ea9ac559c125ba64d3ba501661fd4ab8261aff060b3712f9152b28eef64edcc"),
    ("random_mixed", "random_mixed", {"loads": 3000, "seed": 5},
     "73fab1f89012129e555db8176e09792c777f5fe52c4b3dfe793ac861aab12a47"),
    ("random_mixed_2_threads_churn", "random_mixed",
     {"loads": 3000, "seed": 6, "threads": 2, "churn": 0.1},
     "2dccba135aeea120329fbd016ef6189996acdd2a3299f88d34387e373172d325"),
)


def _reports(name, params):
    """Each report's text: per config, per top, the text then the JSON
    that `redload report --format json` prints."""
    events, source_map = generate(Scenario(name, params))
    events = list(events)
    for sampling in CONFIGS:
        profile = analyze_events(events, source_map,
                                 AnalysisConfig(sampling=sampling))
        for top in TOPS:
            yield report_text(profile, top)
            yield json.dumps(report_json(profile, top), indent=1,
                             sort_keys=True) + "\n"


def test_every_scenario_is_pinned():
    assert {name for _, name, _, _ in CASES} == set(SCENARIOS)


@pytest.mark.parametrize("name, params, expected",
                         [case[1:] for case in CASES],
                         ids=[case[0] for case in CASES])
def test_report_bytes_are_pinned(name, params, expected):
    digest = hashlib.sha256()
    for text in _reports(name, params):
        digest.update(text.encode("utf-8"))
    assert digest.hexdigest() == expected
