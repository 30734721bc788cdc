"""Output files that appear complete or not at all."""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path


@contextmanager
def atomic_write(path):
    """Open ``path`` for binary writing so that it never holds a partial file.

    The bytes go to a temporary file in the same directory, which is renamed
    over ``path`` when the block ends and removed if it raises, so a failed
    or killed writer leaves ``path`` as it was. There is no fsync: this
    covers a killed process, not a power loss.
    """
    path = Path(path)
    temp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        # open rather than mkstemp, so the file mode follows the umask
        with open(temp, "wb") as fh:
            yield fh
        os.replace(temp, path)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise
