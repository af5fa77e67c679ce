"""The one output path: how a JSON document is rendered and how a file
the platform reads back is written.

Every JSON document the platform emits — an integration or batch result,
a ``--json`` report on stdout, a served result, a campaign file, the
lint report — is :func:`document_text` of its dict, so the shell, the
HTTP service and a campaign directory hold the same bytes for the same
document ("Testing SOAR Tools in Use", Bridges et al., 2022, asks for
comparable artifacts).  Every file the platform reads back later — the
campaign's definition, checkpoint, report and repro files, a result-cache
entry, the schema-fingerprint file — is written by :func:`publish`.
Files the user names (``--out``, ``--verilog FILE``, ``--trace-out``)
are written in place.
"""

from __future__ import annotations

import contextlib
import json
import os
from typing import Any


def document_text(doc: Any) -> str:
    """A JSON document's text: two-space indent, keys sorted at every
    level, no trailing newline (``print`` adds one on stdout)."""
    return json.dumps(doc, indent=2, sort_keys=True)


def publish(path: str | os.PathLike[str], data: str | bytes) -> None:
    """Replace ``path`` with ``data`` (text is written as UTF-8) so a
    reader, a second writer or a resume after ``kill -9`` finds the old
    bytes or the new ones, never a torn or unsynced half.

    The data goes to a uniquely named temp file beside ``path``, is
    flushed and fsynced, and the temp file is ``os.replace``d onto
    ``path``; if any step raises, the temp file is removed and the error
    propagates.  The temp file is created with mode ``0o666`` under the
    process umask, the mode ``open(path, "w")`` would give, read from no
    shared state, so threads may publish concurrently (the last replace
    wins).
    """
    if isinstance(data, str):
        data = data.encode("utf-8")
    head, name = os.path.split(os.fspath(path))
    tmp = os.path.join(head, f".{name}.{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise
