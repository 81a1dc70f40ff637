"""Exception types shared across the package."""


class RedloadError(Exception):
    """Base class for all errors raised by this package."""


class TraceEncodeError(RedloadError):
    """An event sequence violates a trace invariant and cannot be encoded.

    `event_index` is the position of the offending event in the input
    sequence (0-based).
    """

    def __init__(self, message, event_index=None):
        if event_index is not None:
            message = f"event {event_index}: {message}"
        super().__init__(message)
        self.event_index = event_index


class TraceDecodeError(RedloadError):
    """A byte stream is not a valid trace.

    `offset` is the byte offset where decoding failed; for truncated or
    malformed records this is the start offset of the record. A text
    trace gives the 1-based `line` instead.
    """

    def __init__(self, message, offset=None, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        elif offset is not None:
            message = f"offset {offset}: {message}"
        super().__init__(message)
        self.offset = offset
        self.line = line


class MalformedTraceError(RedloadError):
    """A decoded trace is semantically inconsistent (unbalanced returns,
    overlapping allocations, unmatched frees)."""


class ConfigError(RedloadError):
    """Bad scenario or analysis configuration."""
