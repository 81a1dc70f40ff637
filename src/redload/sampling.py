"""Bursty sampling gate.

Monitoring alternates between an enabled window and a (larger) disabled
window, measured in per-thread instruction indices and anchored at index 0
so runs are reproducible. Loads falling outside an enabled window update
nothing: no shadow writes, no counters.
"""

from .errors import ConfigError

DEFAULT_WINDOW_ENABLE = 1_000_000
DEFAULT_WINDOW_DISABLE = 99_000_000


class SamplingConfig:
    def __init__(self, window_enable=DEFAULT_WINDOW_ENABLE,
                 window_disable=DEFAULT_WINDOW_DISABLE, enabled=True):
        for name, value in (("window_enable", window_enable),
                            ("window_disable", window_disable)):
            if not isinstance(value, int) or isinstance(value, bool):
                raise ConfigError(f"{name} must be an int, not {value!r}")
        if enabled and window_enable < 1:
            raise ConfigError("window_enable must be >= 1")
        if window_disable < 0:
            raise ConfigError("window_disable must be >= 0")
        self.window_enable = window_enable
        self.window_disable = window_disable
        self.enabled = enabled

    @classmethod
    def disabled(cls):
        return cls(enabled=False)


def monitoring_window(ins_index, config):
    """The sampling window that holds `ins_index`, as (lo, hi, monitored):
    every index in [lo, hi) lies in the first window_enable of its period
    (is monitored), or none does. Lets a caller gate a run of loads with
    one range check per load and this call only when an index falls
    outside the last window. `config` must have sampling enabled."""
    enable = config.window_enable
    period = enable + config.window_disable
    start = ins_index - ins_index % period
    if ins_index < start + enable:
        return start, start + enable, True
    return start + enable, start + period, False
