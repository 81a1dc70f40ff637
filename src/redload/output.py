"""Output files that appear whole or not at all."""

import os
from contextlib import contextmanager


@contextmanager
def replacing(path, mode, encoding=None):
    """Yield a new file beside `path`, opened with `mode` ("x" or "xb"),
    and rename it over `path` once the block ends. If the block or the
    rename raises anything, SystemExit included, the file is removed: a
    failed write leaves no partial output and an earlier `path` as it was.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    f = open(tmp, mode, encoding=encoding)
    try:
        with f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise
