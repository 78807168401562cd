"""Atomic file publication: readers see an absent or a complete file.

Every file the package rewrites in place — store entries, the store's
access journal, service submission records, the merged campaign stream,
search checkpoint metadata — is written through :func:`publish_atomic`:
a private temp file in the target's directory, then :func:`os.replace`.
A crash or a concurrent reader never observes a torn file, and a failed
write leaves no temp file behind.
"""

from __future__ import annotations

import os
import tempfile
from contextlib import contextmanager
from typing import Iterator, TextIO

__all__ = ["publish_atomic"]


@contextmanager
def publish_atomic(path: str) -> Iterator[TextIO]:
    """A text handle whose contents replace ``path`` when the block exits.

    The temp file is named ``.tmp-*`` with ``path``'s extension, so
    directory walks that skip ``.tmp-`` names never see it.  An exception
    in the block (or in the replace) unlinks the temp file and propagates.
    """
    fd, tmp = tempfile.mkstemp(
        dir=os.path.dirname(path) or ".",
        prefix=".tmp-",
        suffix=os.path.splitext(path)[1],
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
