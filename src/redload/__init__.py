"""redload: trace-driven detection of temporal and spatial redundant loads."""

__version__ = "0.1.0"

from .engine import AnalysisConfig, analyze_events, analyze_path
from .errors import (ConfigError, MalformedTraceError, RedloadError,
                     TraceDecodeError, TraceEncodeError)
from .profiles import Profile, merge, merge_all
from .sampling import SamplingConfig
from .trace import SourceMap, TraceEvent, read_trace, write_trace
from .workloads import Scenario, generate

__all__ = [
    "AnalysisConfig", "analyze_events", "analyze_path",
    "ConfigError", "MalformedTraceError", "RedloadError",
    "TraceDecodeError", "TraceEncodeError",
    "Profile", "merge", "merge_all",
    "SamplingConfig",
    "SourceMap", "TraceEvent", "read_trace", "write_trace",
    "Scenario", "generate",
]
