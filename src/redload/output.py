"""Output files that appear whole or not at all."""

import os
from contextlib import contextmanager, suppress


@contextmanager
def replacing(path, mode, encoding=None):
    """Yield a new file beside `path`, opened with `mode` ("x" or "xb"),
    and rename it over `path` once the block ends. If the open, the block
    or the rename raises anything, SystemExit included, the file is
    removed: a failed write leaves no partial output and an earlier `path`
    as it was. A signal handler can raise as `open` returns, after the
    file exists, so the open is inside the `try` too.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode, encoding=encoding) as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        with suppress(FileNotFoundError):
            os.remove(tmp)
        raise
